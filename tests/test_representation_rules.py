"""Each representation states its own rules: its samples, support shifts, exact profile,
sum over shifts and grid model.  No module chooses a rule by testing a signal's class."""

import ast
from pathlib import Path

import numpy as np

from sisbox import (FrequencyGrid, GridSpectrum, PeriodicPartition, ShiftCombination, TimeKernel, TimeSamples,
                    build_signal, build_space, decompose)
from sisbox.signals import PeriodizedProfile
from sisbox.spectral import fibers

SRC = Path(__file__).resolve().parents[1] / "src" / "sisbox"
CLASSES = {"PiecewiseConstantSpectrum", "GridSpectrum", "TimeKernel", "ShiftCombination"}


def class_tests(source: str) -> list[int]:
    """Lines of an ``isinstance``/``issubclass`` call or a ``type(...)`` comparison naming a signal class."""
    def names(node):
        return {n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.value
                for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
                or isinstance(n, ast.Constant) and isinstance(n.value, str)}

    def is_call(node, *fns):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in fns

    lines = []
    for node in ast.walk(ast.parse(source)):
        if is_call(node, "isinstance", "issubclass") and names(ast.Tuple(node.args[1:], ast.Load())) & CLASSES:
            lines.append(node.lineno)
        elif isinstance(node, ast.Compare) and any(is_call(n, "type") for n in ast.walk(node)):
            if names(node) & CLASSES:
                lines.append(node.lineno)
    return sorted(lines)


def test_the_scan_sees_each_form_of_class_test():
    source = ("isinstance(f, GridSpectrum)\nisinstance(f, (signals.TimeKernel, int))\n"
              "type(f) is ShiftCombination\ntype(f).__name__ == 'PiecewiseConstantSpectrum'\n"
              "isinstance(f, Fibers)\ntype(f) is int\nf.grid_model\n")
    assert class_tests(source) == [1, 2, 3, 4]


def test_no_module_tests_a_signal_class():
    found = {path.name: lines for path in sorted(SRC.glob("*.py")) if (lines := class_tests(path.read_text()))}
    assert found == {}


def test_support_shifts_of_a_combination_over_a_combination():
    hat = build_signal("hat", FrequencyGrid(32, 1024))
    assert np.array_equal(hat.support_shifts(), np.arange(-2, 3))  # floor(-1) - 1 .. ceil(1) + 1
    inner = ShiftCombination(hat, TimeSamples(np.array([0, 5]), np.array([1.0, 2.0]), 5))
    assert np.array_equal(inner.support_shifts(), np.r_[-2:3, 3:8])
    outer = ShiftCombination(inner, TimeSamples(np.array([-10, 1]), np.array([1.0, -1.0]), 10))
    assert np.array_equal(outer.support_shifts(), np.r_[-12:-2, -1:9])
    assert outer.support == (-11.0, 7.0)


def test_a_combination_over_a_grid_spectrum_sums_shifted_base_values():
    grid = FrequencyGrid(8, 256)
    base = build_signal("blhat", grid)
    assert base.grid_model and isinstance(base, GridSpectrum)
    coeffs = TimeSamples(np.array([-3, 0, 4]), np.array([0.5, 1.0 - 2j, 0.25j]), 4)
    xs = np.array([-7.25, -1.0, 0.0, 0.3, 2.5, 9.0])
    want = sum(c * base.time_values(xs - k) for k, c in zip(coeffs.ks, coeffs.values))
    np.testing.assert_allclose(ShiftCombination(base, coeffs).time_values(xs), want, rtol=0, atol=1e-15)


def test_an_interval_spectrums_exact_profile_is_built_once_and_shared():
    grid = FrequencyGrid(64, 1024)
    ex2 = build_signal("ex2", grid)
    prof = fibers(ex2, grid).profile
    assert prof.exact and prof is ex2.exact_profile
    assert prof is PeriodizedProfile.of(ex2, grid) is PeriodizedProfile.of(ex2, FrequencyGrid(64, 4096))
    assert fibers(ex2, grid).profile is prof
    blhat = build_signal("blhat", grid)
    assert blhat.exact_profile is None and not PeriodizedProfile.of(blhat, grid).exact


def test_a_generator_whose_zak_fiber_is_one_is_its_own_kernel(monkeypatch):
    grid, calls = FrequencyGrid(32, 1024), []
    compute = TimeKernel._compute_spectrum
    monkeypatch.setattr(TimeKernel, "_compute_spectrum", lambda self, g: calls.append(g) or compute(self, g))
    hat = build_signal("hat", grid)
    space = build_space(hat, grid)
    assert np.all(space.zak.values == 1) and space.sampling_spectrum is hat
    decompose(space, PeriodicPartition.from_intervals([[(0.0, 0.5)], [(0.5, 1.0)]], grid))
    assert calls == [grid]  # one quadrature: the kernel's spectrum is the generator's
    ex3 = build_signal("ex3", grid)  # Z = 1 + O(1e-16): a rescaled copy
    assert build_space(ex3, grid).sampling_spectrum is not ex3
