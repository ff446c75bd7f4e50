"""Batched probe offsets against the per-probe loops they replace.

The shift-square bound and theorem 5's dual energy evaluate all probe
offsets with one matrix product.  The reference functions below are the
per-probe loops that computed the same quantities one offset at a time;
every batched value must agree with them to 1e-12 relative.
"""

from dataclasses import replace

import numpy as np
import pytest

from sisbox import (
    FrequencyGrid,
    GridSpectrum,
    ShiftCombination,
    TimeSamples,
    build_signal,
    check_theorem5,
    shift_square_sum,
)
from sisbox.signals import PeriodizedProfile, twisted_sum
from sisbox.spaces import _probe_points, sz99_report
from sisbox.spectral import DEFAULT_EPS, fibers, guard_level

RTOL = 1e-12
PARSEVAL_SIGNALS = ["blhat", "ex2", "shannon"]  # the catalog signals without a time kernel
FAR_OFFSETS = np.array([-7.3, -0.5, 1.0, 2.75, 100.5])


def probe_signal(name, grid):
    """A catalog signal, or "complex": a seeded complex spectrum on [-3, 3),
    whose energies (unlike those of the real catalog spectra) change when
    the phases are conjugated."""
    if name != "complex":
        return build_signal(name, grid)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    return GridSpectrum(np.where(np.abs(grid.omegas) < 3, vals, 0.0), grid)


def loop_energies(f, xs, grid):
    """Per-probe mean |Z_f(x, .)|^2 with the full-line phases exp(2i*pi*omega*x)."""
    folded = grid.fold(f.grid_values(grid))
    om_rows = grid.fold(grid.omegas)
    return np.array([np.mean(np.abs((folded * np.exp(2j * np.pi * om_rows * x)).sum(axis=0)) ** 2)
                     for x in xs])


def loop_dual(prof, f, grid, x):
    """One offset's per-piece dual fiber: the grid sum, or the per-cell sum
    over the pieces of a piecewise-constant spectrum."""
    if not prof.exact:
        phases = np.exp(2j * np.pi * grid.shifts() * x)
        return (grid.fold(f.grid_values(grid)) * phases[:, None]).sum(axis=0)
    cut = np.unique(np.array(sorted({0.0, 1.0} | {t for _, lo, hi, _ in f.pieces for t in (lo, hi)})))
    np.testing.assert_array_equal(cut[:-1], prof.starts)
    stacks = [[(v, m) for m, lo, hi, v in f.pieces if lo <= 0.5 * (t0 + t1) < hi]
              for t0, t1 in zip(cut[:-1], cut[1:])]
    return np.array([sum(v * np.exp(2j * np.pi * m * x) for v, m in st) for st in stacks],
                    dtype=complex)


def loop_dual_energy(f, grid, xs):
    """Theorem 5's L: the largest per-probe dual-fiber energy on the guarded support."""
    prof = PeriodizedProfile.from_fibers(fibers(f, grid))
    on = prof.sq_sum > guard_level(prof.sq_sum, DEFAULT_EPS)
    absz = np.abs(prof.z)
    ok = on & (absz > guard_level(absz, DEFAULT_EPS))
    return max(float(np.sum(prof.lengths[ok] * np.abs(loop_dual(prof, f, grid, x)[ok]) ** 2
                            / absz[ok] ** 2)) for x in xs)


@pytest.fixture(scope="module")
def fine_grid():
    return FrequencyGrid(64, 1024)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", PARSEVAL_SIGNALS)
def test_shift_square_bound_matches_loop(name, seed, fine_grid):
    f = build_signal(name, fine_grid)
    xs = _probe_points(seed)
    got = shift_square_sum(f, xs, fine_grid)
    assert got.route == "parseval"
    assert got.bound == pytest.approx(float(np.max(loop_energies(f, xs, fine_grid))), rel=RTOL)


def time_kernel_signal(name, seed, grid):
    """hat or ex3, or (seed > 0) a seeded complex combination of its translates."""
    f = build_signal(name, grid)
    if not seed:
        return f
    rng = np.random.default_rng(seed)
    ks = np.sort(rng.choice(np.arange(-40, 41), 9, replace=False))
    return ShiftCombination(f, TimeSamples(ks, rng.standard_normal(9) + 1j * rng.standard_normal(9), 40))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["hat", "ex3"])
def test_direct_bound_matches_loop(name, seed, grid):
    # one time_values call over the shifts that meet the support, against
    # the per-probe sum over every |k| <= k_max
    f = time_kernel_signal(name, seed, grid)
    ks = np.arange(-512, 513)
    for xs in (_probe_points(seed), FAR_OFFSETS, [511.5], [-600.25]):
        got = shift_square_sum(f, xs, grid)
        assert got.route == "direct"
        want = max(float(np.sum(np.abs(f.time_values(x + ks)) ** 2)) for x in xs)
        assert got.bound == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("name", [*PARSEVAL_SIGNALS, "complex"])
def test_each_probe_energy_matches_loop(name, fine_grid):
    f = probe_signal(name, fine_grid)
    xs = np.concatenate([_probe_points(0), FAR_OFFSETS])
    want = loop_energies(f, xs, fine_grid)
    batched = np.mean(np.abs(twisted_sum(fibers(f, fine_grid).folded, fine_grid.shifts(), xs)) ** 2,
                      axis=1)
    np.testing.assert_allclose(batched, want, rtol=RTOL, atol=0)
    single = [shift_square_sum(f, [x], fine_grid).bound for x in FAR_OFFSETS]
    np.testing.assert_allclose(single, want[-FAR_OFFSETS.size:], rtol=RTOL, atol=0)


@pytest.mark.parametrize("name, grid_name", [("blhat", "grid"), ("hat", "grid"),
                                             ("ex2", "wide_grid")])
def test_theorem5_dual_energy_matches_loop(name, grid_name, request):
    grid = request.getfixturevalue(grid_name)
    f = build_signal(name, grid)
    xs = np.concatenate([_probe_points(0), FAR_OFFSETS])
    rep = check_theorem5(f, grid, x_probes=xs)
    assert rep.constants["exact_pieces"] is (name == "ex2")
    assert rep.constants["L"] == pytest.approx(loop_dual_energy(f, grid, xs), rel=RTOL)


@pytest.mark.parametrize("name, grid_name", [("blhat", "grid"), ("ex2", "wide_grid")])
def test_dual_keeps_scalar_shape(name, grid_name, request):
    grid = request.getfixturevalue(grid_name)
    fib = fibers(build_signal(name, grid), grid)
    prof = PeriodizedProfile.from_fibers(fib)
    pieces = prof.starts.size
    assert prof.dual(0.25).shape == (pieces,)
    assert prof.dual(np.array([0.25])).shape == (1, pieces)
    np.testing.assert_allclose(prof.dual(np.array([0.25]))[0], prof.dual(0.25), rtol=RTOL)
    assert twisted_sum(fib.folded, grid.shifts(), 0.25).shape == (grid.resolution,)
    assert twisted_sum(fib.folded, grid.shifts(), np.array([0.25])).shape == (1, grid.resolution)


def nan_node_signal(grid):
    vals = build_signal("blhat", grid).grid_values(grid).copy()
    vals[grid.size // 2 + 3] = np.nan
    return GridSpectrum(vals, grid)


def test_nan_node_makes_the_bound_nan(grid):
    # the per-probe max() used to drop every NaN probe and report 0.0
    assert np.isnan(shift_square_sum(nan_node_signal(grid), _probe_points(0), grid).bound)


@pytest.mark.parametrize("probes", [[0.25, np.nan], [np.inf], [-np.inf, 0.5]],
                         ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("name", ["hat", "ex3", "hat-combination", "blhat"])
def test_non_finite_probe_makes_the_bound_nan(name, probes, grid):
    # the direct route used to read f(nan) as 0: [0.25, nan] gave 0.625 for hat
    f = build_signal(name.split("-")[0], grid)
    if name.endswith("combination"):
        f = ShiftCombination(f, TimeSamples(np.array([-3, 0, 4]), np.array([1.0, -2.0, 0.5j]), 4))
    assert np.isnan(shift_square_sum(f, probes, grid).bound)


@pytest.mark.parametrize("name", ["hat", "ex3"])
def test_nan_point_of_a_time_kernel_is_nan(name, grid):
    vals = build_signal(name, grid).time_values(np.array([np.nan, 0.0, 5.0, np.inf]))
    assert np.isnan(vals[0]) and vals[1] == 1.0 and vals[2] == 0.0 and vals[3] == 0.0


@pytest.mark.parametrize("name", ["hat", "ex3", "shannon"])
def test_no_probe_reads_zero(name, grid):
    assert shift_square_sum(build_signal(name, grid), [], grid).bound == 0.0


def test_nan_node_fails_the_shift_square_check(blhat, grid):
    cert = sz99_report(replace(fibers(blhat, grid), signal=nan_node_signal(grid)))
    assert np.isnan(cert.shift_sum_bound)
    assert not cert.shift_sum_pass and not cert.passed


def test_nan_probe_fails_the_dual_energy_check(ex2, wide_grid):
    rep = check_theorem5(ex2, wide_grid, x_probes=[0.25, np.nan])
    d = {c.name: c for c in rep.checks}["d_dual_energy"]
    assert np.isnan(d.value) and not d.passed
    assert not rep.passed


def test_empty_shift_rows_are_skipped_exactly(fine_grid):
    # blhat fills 1 of the 128 fold rows; the product over the occupied rows
    # equals the full (P, 2K) @ (2K, N) product
    folded = fibers(build_signal("blhat", fine_grid), fine_grid).folded
    shifts = fine_grid.shifts()
    xs = np.concatenate([_probe_points(0), FAR_OFFSETS])
    full = np.exp(2j * np.pi * np.multiply.outer(xs - np.floor(xs), shifts)) @ folded
    got = twisted_sum(folded, shifts, xs)
    assert np.max(np.abs(got - full)) <= 1e-15 * np.max(np.abs(full))


def test_nan_row_reaches_every_probe(fine_grid):
    folded = np.zeros((2 * fine_grid.half_bandwidth, fine_grid.resolution), dtype=complex)
    folded[70, 10:20] = 1.0
    folded[3, 7] = np.nan
    energy = np.mean(np.abs(twisted_sum(folded, fine_grid.shifts(), _probe_points(0))) ** 2, axis=1)
    assert np.all(np.isnan(energy))
