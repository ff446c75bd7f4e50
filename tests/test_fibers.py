"""The Fibers record and the one division helper against the quantities
and formulas they replace."""

import numpy as np
import pytest

from sisbox import (
    FrequencyGrid,
    abs_periodize,
    build_signal,
    build_space,
    grammian,
    integer_samples,
    periodize,
    support_mask,
    zak_dual_fiber,
    zak_time_fiber,
)
from sisbox.membership import _normalized_signal
from sisbox.signals import GridSpectrum, PeriodizedProfile
from sisbox.spectral import DEFAULT_EPS, DEFAULT_K_MAX, divide_on_support, fibers

CATALOG_GRIDS = {"shannon": (32, 1024), "blhat": (32, 1024), "ex2": (64, 1024),
                 "ex3": (32, 1024), "hat": (32, 1024)}


@pytest.fixture(scope="module", params=sorted(CATALOG_GRIDS))
def catalog_signal(request):
    grid = FrequencyGrid(*CATALOG_GRIDS[request.param])
    return build_signal(request.param, grid), grid


def tiled_division(vals, denom, mask, grid, eps=DEFAULT_EPS):
    """The division each call site wrote before the shared helper."""
    absd = np.abs(denom)
    guard = eps * float(absd.max()) if absd.max() > 0 else 0.0
    ok = np.tile(mask.values & (absd > guard), 2 * grid.half_bandwidth)
    tiled = np.tile(denom, 2 * grid.half_bandwidth)
    out = np.zeros(grid.size, dtype=complex)
    out[ok] = vals[ok] / tiled[ok]
    return out


def test_record_matches_one_quantity_functions(catalog_signal):
    f, grid = catalog_signal
    fib = fibers(f, grid)
    assert np.array_equal(fib.folded.ravel(), f.grid_values(grid))
    assert np.array_equal(fib.periodization.values, periodize(f, grid).values)
    assert np.array_equal(fib.grammian.values, grammian(f, grid).values)
    assert np.array_equal(fib.abs_periodization.values, abs_periodize(f, grid).values)
    assert fib.mask == support_mask(grammian(f, grid))
    samples = integer_samples(f, grid, DEFAULT_K_MAX)
    assert np.array_equal(fib.samples.values, samples.values)
    assert np.array_equal(fib.zak.values, zak_time_fiber(samples, grid).values)
    assert np.array_equal(fib.dual(0.3).values, zak_dual_fiber(f, 0.3, grid).values)


def test_kernel_equals_tiled_formula(catalog_signal):
    f, grid = catalog_signal
    mask = support_mask(grammian(f, grid))
    zak = zak_time_fiber(integer_samples(f, grid, DEFAULT_K_MAX), grid).values
    want = tiled_division(f.grid_values(grid), zak, mask, grid)
    fib = fibers(f, grid)
    assert np.array_equal(divide_on_support(fib.folded, fib.zak.values, fib.mask).ravel(), want)
    kernel = build_space(f, grid, checked=False).sampling_spectrum
    if isinstance(kernel, GridSpectrum):  # constant fibers keep the exact generator
        assert np.array_equal(kernel.values, want)


@pytest.mark.parametrize("normalization", ["zak", "grammian"])
def test_theorem2_normalized_signal_equals_tiled_formula(catalog_signal, normalization):
    f, grid = catalog_signal
    g = grammian(f, grid)
    denom = (zak_time_fiber(integer_samples(f, grid, DEFAULT_K_MAX), grid).values
             if normalization == "zak" else g.values.astype(complex))
    want = tiled_division(f.grid_values(grid), denom, support_mask(g), grid)
    h = _normalized_signal(fibers(f, grid), normalization)
    assert np.array_equal(h.values, want)


def test_divide_on_support_keeps_shape_and_zeroes_guarded_nodes():
    grid = FrequencyGrid(2, 8)
    mask = support_mask(grammian(build_signal("shannon", grid), grid))
    denom = np.array([2.0, 1e-12, 4.0, 1.0, 1.0, 1.0, 1.0, 0.5])
    periodic = divide_on_support(np.ones(8), denom, mask)
    assert periodic.shape == (8,)
    assert periodic[1] == 0.0  # |denom| under eps * max|denom|
    np.testing.assert_array_equal(periodic[mask.values & (np.arange(8) != 1)],
                                  1.0 / denom[mask.values & (np.arange(8) != 1)])
    full = divide_on_support(np.ones(grid.size), denom, mask)
    assert full.shape == (grid.size,)
    assert np.array_equal(grid.fold(full), np.broadcast_to(periodic, (4, 8)))


def test_grid_profile_reads_the_record(blhat, grid):
    fib = fibers(blhat, grid)
    prof = PeriodizedProfile.from_fibers(fib)
    assert not prof.exact
    assert np.array_equal(prof.sq_sum, fib.grammian.real_values)
    assert np.array_equal(prof.dual(0.25), fib.dual(0.25).values)


def test_piecewise_profile_stays_exact(ex2, wide_grid):
    prof = PeriodizedProfile.from_fibers(fibers(ex2, wide_grid))
    assert prof.exact
    assert np.array_equal(prof.lengths, ex2.periodized_profile().lengths)
