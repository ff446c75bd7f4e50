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
from sisbox.errors import DegenerateSpaceError
from sisbox.signals import GridSpectrum, PeriodizedProfile, PiecewiseConstantSpectrum
from sisbox.spaces import _sampling_function
from sisbox.spectral import DEFAULT_EPS, DEFAULT_K_MAX, divide_on_support, fibers

CATALOG_GRIDS = {"shannon": (32, 1024), "blhat": (32, 1024), "ex2": (64, 1024),
                 "ex3": (32, 1024), "hat": (32, 1024)}


@pytest.fixture(scope="module", params=sorted(CATALOG_GRIDS))
def catalog_signal(request):
    grid = FrequencyGrid(*CATALOG_GRIDS[request.param])
    return build_signal(request.param, grid), grid


# the band rule's edge cases: no occupied row, and zero rows inside the band
BAND_EDGES = {"zero": PiecewiseConstantSpectrum([]),
              "gapped": PiecewiseConstantSpectrum([(-3.0, -2.5, 1.0), (2.0, 2.5, 0.5 - 0.25j)])}


@pytest.fixture(scope="module", params=sorted(CATALOG_GRIDS) + sorted(BAND_EDGES))
def band_signal(request):
    """The catalog signals, then the band edge cases at (32, 1024)."""
    if request.param in BAND_EDGES:
        return BAND_EDGES[request.param], FrequencyGrid(32, 1024)
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


def test_record_matches_one_quantity_functions(band_signal):
    f, grid = band_signal
    fib = fibers(f, grid)
    assert np.array_equal(fib.folded.ravel(), f.grid_values(grid))
    assert np.array_equal(fib.periodization.values, periodize(f, grid).values)
    assert np.array_equal(fib.grammian.values, grammian(f, grid).values)
    assert np.array_equal(fib.abs_periodization.values, abs_periodize(f, grid).values)
    assert fib.mask == support_mask(grammian(f, grid))
    samples = integer_samples(f, grid, DEFAULT_K_MAX)
    assert np.array_equal(fib.samples.values, samples.values)
    assert np.array_equal(fib.zak.values, zak_time_fiber(samples, grid).values)


def test_kernel_equals_tiled_formula(band_signal):
    f, grid = band_signal
    mask = support_mask(grammian(f, grid))
    zak = zak_time_fiber(integer_samples(f, grid, DEFAULT_K_MAX), grid).values
    want = tiled_division(f.grid_values(grid), zak, mask, grid)
    fib = fibers(f, grid)
    assert np.array_equal(divide_on_support(fib.folded, fib.zak.values, fib.mask).ravel(), want)
    if mask.is_empty:  # the zero spectrum spans no space
        with pytest.raises(DegenerateSpaceError):
            build_space(f, grid, checked=False)
        return
    kernel = build_space(f, grid, checked=False).sampling_spectrum
    if isinstance(kernel, GridSpectrum):  # constant fibers keep the exact generator
        assert np.array_equal(kernel.values, want)


@pytest.mark.parametrize("normalization", ["zak"])  # the fiber theorem 2 divides by
def test_theorem2_normalized_signal_equals_tiled_formula(catalog_signal, normalization):
    f, grid = catalog_signal
    zak = zak_time_fiber(integer_samples(f, grid, DEFAULT_K_MAX), grid).values
    want = tiled_division(f.grid_values(grid), zak, support_mask(grammian(f, grid)), grid)
    h = _sampling_function(fibers(f, grid))
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
    assert np.array_equal(prof.dual(0.25), zak_dual_fiber(blhat, 0.25, grid).values)


def test_piecewise_profile_stays_exact(ex2, wide_grid):
    prof = PeriodizedProfile.from_fibers(fibers(ex2, wide_grid))
    assert prof.exact
    assert np.array_equal(prof.lengths, PeriodizedProfile.from_pieces(ex2.pieces).lengths)
