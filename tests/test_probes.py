"""Batched probe offsets against the per-probe loops they replace.

The shift-square bound and theorem 5's dual energy read every probe offset
from one Gram matrix of the rows of a signal's profile (``dual_energy``): an
interval spectrum's exact folded pieces, every other signal's occupied fold
rows.  The reference functions below are the per-probe loops that computed
the same quantities one offset at a time; every batched value must agree
with them to 1e-12 relative.
"""

from dataclasses import replace

import numpy as np
import pytest

from sisbox import (
    FrequencyGrid,
    GridSpectrum,
    ShiftCombination,
    TimeKernel,
    TimeSamples,
    build_signal,
    PiecewiseConstantSpectrum,
    check_sz99,
    check_theorem5,
    shift_square_sum,
)
from sisbox.signals import PeriodizedProfile, dual_energy, twisted_sum
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


def loop_energies(f, xs, grid, weights=None):
    """Per-probe mean |Z_f(x, .)|^2 with the full-line phases exp(2i*pi*omega*x),
    or with ``weights`` the weighted sum over the nodes in place of the mean."""
    folded = grid.fold(f.grid_values(grid))
    om_rows = grid.fold(grid.omegas)
    w = np.full(grid.resolution, grid.step) if weights is None else weights
    return np.array([np.sum(w * np.abs((folded * np.exp(2j * np.pi * om_rows * x)).sum(axis=0)) ** 2)
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


def loop_shift_squares(f, xs, grid):
    """Per-probe Parseval shift-square sums over the profile: for an interval spectrum
    the per-piece loop, sum of length * |dual fiber|^2 over its exact pieces; for any
    other signal the grid loop (``loop_energies``)."""
    prof = PeriodizedProfile.of(f, grid)
    if not prof.exact:
        return loop_energies(f, xs, grid)
    lengths = np.diff(np.r_[prof.starts, 1.0])  # loop_dual checks the starts against the breakpoints
    return np.array([np.sum(lengths * np.abs(loop_dual(prof, f, grid, x)) ** 2) for x in xs])


def loop_dual_energy(f, grid, xs):
    """Theorem 5's L: the largest per-probe dual-fiber energy on the guarded support."""
    prof = fibers(f, grid).profile
    on = prof.sq_sum > guard_level(prof.sq_sum, DEFAULT_EPS)
    absz = np.abs(prof.z)
    ok = on & (absz > guard_level(absz, DEFAULT_EPS))
    return max(float(np.sum(prof.lengths[ok] * np.abs(loop_dual(prof, f, grid, x)[ok]) ** 2
                            / absz[ok] ** 2)) for x in xs)


def loop_time_dual_energy(f, grid, xs):
    """Theorem 5's L of a signal with a support from its exact time values, probe by probe:
    at each node c/N of the guarded support, |sum_k f(x - floor(x) + k) exp(-2i*pi*k*c/N)|^2
    over |Z_f(0, c/N)|^2, Z_f(0, .) the same sum over the samples f(k), times 1/N."""
    prof = fibers(f, grid).profile
    on = prof.sq_sum > guard_level(prof.sq_sum, DEFAULT_EPS)
    absz = np.abs(prof.z)
    ok = on & (absz > guard_level(absz, DEFAULT_EPS))
    a, b = f.support
    ks = np.arange(np.floor(a) - 1, np.ceil(b) + 2)  # every k with x + k in [a, b] for x in [0, 1)
    phases = np.exp(-2j * np.pi * np.outer(ks, grid.unit_omegas[ok]))
    zak = f.time_values(ks) @ phases
    return max(float(np.sum(grid.step * np.abs(f.time_values(x - np.floor(x) + ks) @ phases) ** 2
                            / np.abs(zak) ** 2)) for x in xs)


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
    assert got.bound == pytest.approx(float(np.max(loop_shift_squares(f, xs, fine_grid))), rel=RTOL)


# ex2's bound over the default probes, summed over its exact pieces; the grid rows
# read 2.125376679646494 at (64, 1024) and 2.125385108832255 at (64, 4096)
EX2_SHIFT_SUM_BOUND = 2.1253870807664277


@pytest.mark.parametrize("n", [1024, 4096, 8192])
def test_interval_shift_sum_bound_is_the_piece_sum(n):
    grid = FrequencyGrid(64, n)
    ex2 = build_signal("ex2", grid)
    bound = check_sz99(ex2, grid).shift_sum_bound
    assert bound == EX2_SHIFT_SUM_BOUND
    assert bound == pytest.approx(float(np.max(loop_shift_squares(ex2, _probe_points(0), grid))), rel=RTOL)


def test_probe_points_are_the_golden_weyl_sequence():
    # n/phi mod 1 at n = 1, 2, 3: the offsets seed 0 gives on every platform and numpy version
    xs = _probe_points(0)
    assert xs[64:67].tolist() == [0.6180339887498948, 0.2360679774997897, 0.8541019662496845]
    assert xs.shape == (128,)
    np.testing.assert_array_equal(xs[:64], np.arange(64) / 64)


def test_probe_points_cover_the_period_evenly():
    # three-gap theorem: 64 consecutive terms leave no circular gap above 1.5/64 (1.36/64
    # at worst over these seeds); seeds 0-1999 give 2,000 distinct offset sets
    seen, widest = set(), 0.0
    for seed in range(2000):
        xs = _probe_points(seed)
        assert np.all((xs >= 0.0) & (xs < 1.0))
        seeded = np.sort(xs[64:])
        widest = max(widest, float(np.max(np.diff(seeded, append=seeded[0] + 1.0))))
        seen.add(seeded.tobytes())
    assert len(seen) == 2000
    assert widest <= 1.5 / 64


def test_probe_points_take_every_nonnegative_integer_seed():
    # the start 64*seed + 1 is reduced mod 2^64 with Python ints, as the CLI's --seed allows
    assert np.all((_probe_points(10 ** 30) >= 0.0) & (_probe_points(10 ** 30) < 1.0))
    np.testing.assert_array_equal(_probe_points(np.int64(3)), _probe_points(3))
    with pytest.raises(ValueError):
        _probe_points(-1)
    with pytest.raises(TypeError):
        _probe_points(2.5)


def sub_cell_spectrum(seed):
    """A seeded interval spectrum at shifts -4..3: on each, three pieces with dyadic
    ends at 2^-20 resolution (most narrower than a cell at N = 4096), complex values."""
    rng = np.random.default_rng(seed)
    pieces = []
    for m in range(-4, 4):
        ends = np.sort(rng.choice(2 ** 20, 6, replace=False)) / 2.0 ** 20
        pieces += [(m, lo, hi, complex(*rng.standard_normal(2))) for lo, hi in zip(ends[::2], ends[1::2])]
    return PiecewiseConstantSpectrum.from_local_pieces(pieces)


@pytest.mark.parametrize("seed", [11, 12])
def test_sub_cell_shift_sum_bound_is_the_piece_sum(seed):
    f, xs = sub_cell_spectrum(seed), np.concatenate([_probe_points(seed), FAR_OFFSETS])
    bounds = [shift_square_sum(f, xs, FrequencyGrid(4, n)).bound for n in (1024, 4096)]
    assert bounds[0] == bounds[1]  # the pieces, not the grid's cells
    assert bounds[0] == pytest.approx(float(np.max(loop_shift_squares(f, xs, FrequencyGrid(4, 1024)))), rel=RTOL)


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
    # one time_values call over the shifts that meet the support, against the
    # per-probe sum over every |k| <= 1024, which holds all of them at these
    # offsets (supports within [-41, 41]): no shift is clipped, -600.25 included
    f = time_kernel_signal(name, seed, grid)
    ks = np.arange(-1024, 1025)
    for xs in (_probe_points(seed), FAR_OFFSETS, [511.5], [-600.25]):
        got = shift_square_sum(f, xs, grid)
        assert got.route == "direct"
        want = max(float(np.sum(np.abs(f.time_values(x + ks)) ** 2)) for x in xs)
        assert got.bound == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("k", [0, 513, 600])
def test_direct_bound_sums_every_shift(k, grid):
    # hat moved to [k - 1, k + 1] past the sample truncation (512): its
    # shifts there still count, so the bound is hat(0)^2 = 1, not 0.77 or 0
    f = ShiftCombination(build_signal("hat", grid), TimeSamples.delta(k))
    assert shift_square_sum(f, _probe_points(0), grid).bound == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("x", [1e6 + 0.25, 2.0 ** 53 + 2, 1e19, -1e300])
def test_direct_bound_at_far_offsets(x, grid):
    # the sum over every shift is 1-periodic in x: hat(t)^2 + hat(t - 1)^2 at
    # t = x mod 1, where x + k would round and an integer shift k overflow
    t = x - np.floor(x)
    want = (1 - t) ** 2 + t ** 2
    assert shift_square_sum(build_signal("hat", grid), [x], grid).bound == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("name", [*PARSEVAL_SIGNALS, "complex"])
def test_each_probe_energy_matches_loop(name, fine_grid):
    f = probe_signal(name, fine_grid)
    xs = np.concatenate([_probe_points(0), FAR_OFFSETS])
    want = loop_energies(f, xs, fine_grid)
    fib = fibers(f, fine_grid)
    batched = dual_energy(fib.cells.coeffs, fine_grid.shifts()[fib.band], xs, fine_grid.step)
    np.testing.assert_allclose(batched, want, rtol=RTOL, atol=0)
    single = [shift_square_sum(f, [x], fine_grid).bound for x in FAR_OFFSETS]
    np.testing.assert_allclose(single, loop_shift_squares(f, FAR_OFFSETS, fine_grid), rtol=RTOL, atol=0)


@pytest.mark.parametrize("name, grid_name", [("blhat", "grid"), ("hat", "grid"),
                                             ("ex2", "wide_grid")])
def test_theorem5_dual_energy_matches_loop(name, grid_name, request):
    grid = request.getfixturevalue(grid_name)
    f = build_signal(name, grid)
    xs = np.concatenate([_probe_points(0), FAR_OFFSETS])
    rep = check_theorem5(f, grid, x_probes=xs)
    assert rep.constants["exact_pieces"] is (name == "ex2")
    loop = loop_dual_energy if f.support is None else loop_time_dual_energy  # hat: its time values
    assert rep.constants["L"] == pytest.approx(loop(f, grid, xs), rel=RTOL)


def supported_signal(name, grid):
    """hat, a seeded complex combination of its translates, or an asymmetric smooth kernel."""
    if name == "skew":  # (x + 1/2)(3/2 - x)^2 on [-1/2, 3/2]: f(0) = 9/8, f(1) = 3/8
        return TimeKernel((-0.5, 1.5), lambda x: (x + 0.5) * (1.5 - x) ** 2, integrable_spectrum=True)
    return time_kernel_signal("hat", 1 if name == "combination" else 0, grid)


@pytest.mark.parametrize("name", ["hat", "combination", "skew"])
def test_supported_dual_energy_is_the_time_value_loop(name, grid):
    # condition (d) of a signal with a support reads its exact time values: v G v^H,
    # G the lags of one FFT of the weights, against the node-by-node loop
    f = supported_signal(name, grid)
    xs = np.concatenate([_probe_points(3), FAR_OFFSETS, [511.5, -600.25]])
    rep = check_theorem5(f, grid, x_probes=xs)
    assert rep.constants["L"] == pytest.approx(loop_time_dual_energy(f, grid, xs), rel=RTOL)
    if name == "hat":  # sum_k hat(x + k)^2 over |Z| = 1: 1 at x = 0, below it elsewhere
        assert rep.constants["L"] == pytest.approx(1.0, rel=1e-15, abs=0)
    d = {c.name: c for c in check_theorem5(f, grid, x_probes=[0.25, np.nan]).checks}["d_dual_energy"]
    assert np.isnan(d.value) and not d.passed  # a NaN probe is no energy of 0


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("name", [*PARSEVAL_SIGNALS, "complex"])
def test_dual_energy_matches_loop(name, weighted, fine_grid):
    f = probe_signal(name, fine_grid)
    xs = np.concatenate([_probe_points(1), FAR_OFFSETS])
    w = np.random.default_rng(7).uniform(0.0, 3.0, fine_grid.resolution) if weighted else fine_grid.step
    got = dual_energy(fine_grid.fold(f.grid_values(fine_grid)), fine_grid.shifts(), xs, w)
    want = loop_energies(f, xs, fine_grid, w if weighted else None)
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0)


def test_dual_energy_of_an_empty_band_is_zero(fine_grid):
    rows = np.zeros((0, fine_grid.resolution), dtype=complex)
    got = dual_energy(rows, fine_grid.shifts()[:0], np.concatenate([_probe_points(0), FAR_OFFSETS]), 1.0)
    np.testing.assert_array_equal(got, np.zeros(128 + FAR_OFFSETS.size))


@pytest.mark.parametrize("name, grid_name", [("blhat", "grid"), ("ex2", "wide_grid")])
def test_dual_keeps_scalar_shape(name, grid_name, request):
    grid = request.getfixturevalue(grid_name)
    fib = fibers(build_signal(name, grid), grid)
    prof = fib.profile
    pieces = prof.starts.size
    dual = twisted_sum(prof.coeffs, prof.shifts, 0.25)
    assert dual.shape == (pieces,)
    assert twisted_sum(fib.cells.coeffs, grid.shifts()[fib.band], 0.25).shape == (grid.resolution,)
    energy = dual_energy(prof.coeffs, prof.shifts, np.array([0.25]), prof.lengths)
    assert energy.shape == (1,)
    assert energy[0] == pytest.approx(np.sum(prof.lengths * np.abs(dual) ** 2), rel=RTOL)


def nan_node_signal(grid):
    vals = build_signal("blhat", grid).grid_values(grid).copy()
    vals[grid.size // 2 + 3] = np.nan
    return GridSpectrum(vals, grid)


def test_nan_node_makes_the_bound_nan(grid):
    # the per-probe max() used to drop every NaN probe and report 0.0
    assert np.isnan(shift_square_sum(nan_node_signal(grid), _probe_points(0), grid).bound)


@pytest.mark.parametrize("weights", ["step", "zero-at-nan"])
def test_nan_node_makes_every_energy_nan(weights, grid):
    # a NaN node in one band row: G's row and column are NaN, and every e G e^H reads them
    vals = nan_node_signal(grid).grid_values(grid)
    w = np.full(grid.resolution, grid.step)
    if weights == "zero-at-nan":
        w[3] = 0.0
    energies = dual_energy(grid.fold(vals), grid.shifts(), np.concatenate([_probe_points(0), FAR_OFFSETS]), w)
    assert np.all(np.isnan(energies))


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
    nan_sig = nan_node_signal(grid)  # the certificate reads the record's signal, as theorem 2's does
    cert = sz99_report(replace(fibers(blhat, grid), signal=nan_sig))
    assert np.isnan(cert.shift_sum_bound)
    assert not cert.shift_sum_pass and not cert.passed


def test_kernel_vanishing_at_the_integers_fails_the_dual_energy_check(grid):
    # x(1 - x)^2 on [0, 1]: every sample is 0, so Z_f(0, .) vanishes on the support set
    f = TimeKernel((0.0, 1.0), lambda x: x * (1 - x) ** 2, integrable_spectrum=True)
    d = {c.name: c for c in check_theorem5(f, grid).checks}["d_dual_energy"]
    assert d.value == np.inf and not d.passed


def test_nan_probe_fails_the_dual_energy_check(ex2, wide_grid):
    rep = check_theorem5(ex2, wide_grid, x_probes=[0.25, np.nan])
    d = {c.name: c for c in rep.checks}["d_dual_energy"]
    assert np.isnan(d.value) and not d.passed
    assert not rep.passed


def test_empty_shift_rows_are_skipped_exactly(fine_grid):
    # blhat fills 2 of the 128 fold rows; the Gram matrix of its band's rows
    # gives the energies of the full (P, 2K) @ (2K, N) product
    blhat = build_signal("blhat", fine_grid)
    fib, shifts = fibers(blhat, fine_grid), fine_grid.shifts()
    xs = np.concatenate([_probe_points(0), FAR_OFFSETS])
    phases = np.exp(2j * np.pi * np.multiply.outer(xs - np.floor(xs), shifts))
    full = phases @ fine_grid.fold(blhat.grid_values(fine_grid))
    want = np.mean(np.abs(full) ** 2, axis=1)
    got = dual_energy(fib.cells.coeffs, shifts[fib.band], xs, fine_grid.step)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(want)


def test_nan_row_reaches_every_probe(fine_grid):
    folded = np.zeros((2 * fine_grid.half_bandwidth, fine_grid.resolution), dtype=complex)
    folded[70, 10:20] = 1.0
    folded[3, 7] = np.nan
    assert np.all(np.isnan(dual_energy(folded, fine_grid.shifts(), _probe_points(0), fine_grid.step)))
