"""The Fibers record and the one division helper against the quantities
and formulas they replace."""

import time

import numpy as np
import pytest

from sisbox import (
    FrequencyGrid,
    abs_periodize,
    build_signal,
    build_space,
    check_sz04,
    check_sz99,
    check_theorem2,
    check_theorem5,
    grammian,
    integer_samples,
    periodize,
    support_mask,
    zak_dual_fiber,
    zak_time_fiber,
)
from sisbox.errors import BandwidthOverflowError, DegenerateSpaceError, PreconditionError
from sisbox.signals import GridSpectrum, PeriodizedProfile, PiecewiseConstantSpectrum, pad_band, twisted_sum
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
    folded, outside = grid.fold(f.grid_values(grid)), np.ones(2 * grid.half_bandwidth, dtype=bool)
    outside[fib.band] = False
    assert np.array_equal(fib.cells.coeffs, folded[fib.band]) and not np.any(folded[outside])
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
    full = slice(0, 2 * grid.half_bandwidth)
    quotient = divide_on_support(fib.cells.coeffs, fib.zak.values, fib.mask)
    assert np.array_equal(pad_band(fib.band, quotient, full).ravel(), want)
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


def test_nan_node_outside_the_nonzero_rows_is_refused(blhat, grid):
    # blhat fills the rows of the shifts -1 and 0; a NaN in row 5 widens the band to it
    vals = blhat.grid_values(grid).copy()
    vals[5 * grid.resolution + 7] = np.nan
    sig = GridSpectrum(vals, grid)
    assert sig.band == slice(5, grid.half_bandwidth + 1)
    with pytest.raises(PreconditionError, match="1 non-finite"):
        fibers(sig, grid)


def test_grid_profile_reads_the_record(blhat, grid):
    fib = fibers(blhat, grid)
    prof = fib.profile
    assert not prof.exact and prof is fib.cells
    assert np.array_equal(prof.sq_sum, fib.grammian.real_values)
    assert np.array_equal(twisted_sum(prof.coeffs, prof.shifts, 0.25), zak_dual_fiber(blhat, 0.25, grid).values)
    alone = PeriodizedProfile.of(blhat, grid)  # the one rule, outside the record
    for got, want in ((alone.z, prof.z), (alone.abs_sum, prof.abs_sum), (alone.sq_sum, prof.sq_sum),
                      (alone.lengths, prof.lengths), (alone.starts, prof.starts)):
        assert np.array_equal(got, want)


def test_piecewise_profile_stays_exact(ex2, wide_grid):
    fib = fibers(ex2, wide_grid)
    prof = fib.profile
    assert prof.exact and not fib.cells.exact
    assert prof is fib.profile  # built once, on first read
    # ex2's folded breakpoints: 0 and the block ends 2^-n, n = 1..60, of one period
    assert np.array_equal(prof.starts, np.r_[0.0, 0.5 ** np.arange(60, 0, -1)])
    assert np.array_equal(prof.lengths, np.diff(np.r_[prof.starts, 1.0]))


@pytest.mark.parametrize("a", [0.5, 1 / 3, 0.75])
def test_exact_profile_holds_a_piece_one_ulp_wide(a):
    # the midpoint of [a, a + ulp) rounds to one of its ends; a piece is placed by its ends among the cuts
    prof = PiecewiseConstantSpectrum([(a, np.nextafter(a, 1.0), 1.0), (-2.0, -1.5, 2.0)]).exact_profile
    assert prof.coeffs[list(prof.shifts).index(0), np.searchsorted(prof.starts, a)] == 1.0


# (operation, catalog signal, dense bands it builds): a verdict that reads the cells' sums, the Zak fiber and the
# exact profile builds no interval band (nor build_space, whose constant Zak fiber keeps shannon as its kernel,
# nor theorem 2, which judges the quotient off f's cells); a division by the Zak fiber, the sampling function,
# builds it once
BAND_BUILDS = [(check_theorem5, "shannon", 0), (check_sz04, "shannon", 0), (check_sz99, "shannon", 0),
               (build_space, "shannon", 0), (check_theorem5, "ex2", 0), (check_sz04, "ex2", 0),
               (check_sz99, "ex2", 0), (build_space, "ex2", 1), (check_theorem2, "ex2", 0)]


@pytest.mark.parametrize("op, name, builds", BAND_BUILDS, ids=[f"{op.__name__}-{n}" for op, n, _ in BAND_BUILDS])
def test_only_a_division_builds_an_interval_band(monkeypatch, op, name, builds):
    grid, calls, band_values = FrequencyGrid(64, 1024), [], PiecewiseConstantSpectrum.band_values
    monkeypatch.setattr(PiecewiseConstantSpectrum, "band_values", lambda f, g: calls.append(g) or band_values(f, g))
    op(build_signal(name, grid), grid)
    assert len(calls) == builds


def test_a_wide_interval_is_refused_before_its_pieces_are_read(monkeypatch):
    # [0, 1e12) would be cut into 10^12 unit pieces: the record checks the width first
    reads = []
    monkeypatch.setattr(PiecewiseConstantSpectrum, "pieces", property(lambda self: reads.append(1) or []))
    wide, grid = PiecewiseConstantSpectrum([(0.0, 1e12, 1.0)]), FrequencyGrid(32, 1024)
    for call in (fibers, check_theorem5, check_sz04):
        started = time.monotonic()
        with pytest.raises(BandwidthOverflowError) as refused:
            call(wide, grid)
        assert refused.value.required_k == 2 ** 40 and time.monotonic() - started < 0.1
    assert not reads
