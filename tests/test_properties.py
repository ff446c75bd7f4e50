"""Property tests on a small grid so hypothesis can explore quickly."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sisbox import (
    FrequencyGrid,
    GridSpectrum,
    PiecewiseConstantSpectrum,
    ShiftCombination,
    SupportMask,
    TimeSamples,
    bracket,
    build_signal,
    build_space,
    grammian,
    periodize,
    project,
    spectral_norm,
    support_mask,
    zak_dual_fiber,
    zak_time_fiber,
)
from sisbox import io as sio

SMALL = FrequencyGrid(4, 64)

values = st.floats(-5, 5, allow_nan=False).map(float)
complex_values = st.tuples(values, values).map(lambda t: complex(*t))


def grid_spectra(grid=SMALL):
    elems = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)
    return arrays(np.complex128, grid.size, elements=elems).map(
        lambda vs: GridSpectrum(vs, grid)
    )


@st.composite
def aligned_pwc(draw, grid=SMALL):
    """Piecewise-constant spectrum with cell-aligned breakpoints."""
    n = grid.resolution
    k = grid.half_bandwidth
    count = draw(st.integers(1, 4))
    cuts = draw(st.lists(st.integers(0, 2 * k * n), min_size=2 * count,
                         max_size=2 * count, unique=True))
    cuts.sort()
    intervals = []
    for i in range(count):
        a, b = cuts[2 * i], cuts[2 * i + 1]
        if b > a:
            intervals.append((-k + a / n, -k + b / n, draw(complex_values)))
    if not intervals:
        intervals = [(0.0, 1.0 / n, 1.0)]
    return PiecewiseConstantSpectrum(intervals)


@settings(max_examples=25, deadline=None)
@given(f=grid_spectra(), g=grid_spectra(), a=complex_values)
def test_bracket_hermitian_and_linear(f, g, a):
    fg = bracket(f, g, SMALL).values
    gf = bracket(g, f, SMALL).values
    np.testing.assert_allclose(fg, np.conj(gf), atol=1e-9)
    scaled = GridSpectrum(a * f.values, SMALL)
    np.testing.assert_allclose(bracket(scaled, g, SMALL).values, a * fg, atol=1e-7)


@settings(max_examples=25, deadline=None)
@given(f=aligned_pwc())
def test_dual_fiber_at_zero_shift_equals_periodization(f):
    d = zak_dual_fiber(f, 0.0, SMALL)
    p = periodize(f, SMALL)
    np.testing.assert_array_equal(d.values, p.values)


@settings(max_examples=25, deadline=None)
@given(f=aligned_pwc())
def test_grammian_nonnegative_and_periodic(f):
    g = grammian(f, SMALL)
    assert g.is_real()
    assert np.min(g.real_values) >= -1e-15
    assert g.value_at(0.25) == g.value_at(1.25)


@settings(max_examples=25, deadline=None)
@given(f=aligned_pwc())
def test_poisson_identity_for_aligned_spectra(f):
    samples = f.integer_samples(SMALL, SMALL.resolution // 2)
    z = zak_time_fiber(samples, SMALL)
    p = periodize(f, SMALL)
    assert float(np.max(np.abs(z.values - p.values))) < 1e-9


@settings(max_examples=20, deadline=None)
@given(f=grid_spectra())
def test_projection_is_idempotent_and_contractive(f):
    space = build_space(PiecewiseConstantSpectrum([(-0.5, 0.5, 1.0)]), SMALL)
    p1 = project(f, space)
    p2 = project(p1, space)
    np.testing.assert_allclose(p2.values, p1.values, atol=1e-9)
    assert spectral_norm(p1.values, SMALL) <= spectral_norm(f.values, SMALL) + 1e-9


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mask_algebra(data):
    n = SMALL.resolution
    a = SupportMask(np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n))), SMALL)
    b = SupportMask(np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n))), SMALL)
    assert a.complement().measure == pytest.approx(1.0 - a.measure)
    assert a.union(b).measure <= a.measure + b.measure + 1e-12
    assert a.symmetric_difference(b).measure == pytest.approx(
        a.union(b).measure - a.intersection(b).measure)
    assert a.union(b).complement() == a.complement().intersection(b.complement())


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_samples_file_roundtrip(tmp_path_factory, data):
    ks = data.draw(st.lists(st.integers(-50, 50), min_size=1, max_size=10, unique=True))
    vals = data.draw(st.lists(complex_values, min_size=len(ks), max_size=len(ks)))
    ts = TimeSamples(np.array(ks), np.array(vals), 50)
    path = tmp_path_factory.mktemp("io") / "samples.csv"
    sio.write_samples(ts, path)
    back = sio.read_samples(path)
    np.testing.assert_array_equal(back.ks, ts.ks)
    np.testing.assert_array_equal(back.values, ts.values)


@settings(max_examples=25, deadline=None)
@given(coeffs=st.lists(complex_values, min_size=1, max_size=7))
def test_zak_fiber_linearity_in_samples(coeffs):
    ks = np.arange(len(coeffs))
    ts = TimeSamples(ks, np.array(coeffs), len(coeffs))
    z = zak_time_fiber(ts, SMALL).values
    direct = np.zeros(SMALL.resolution, dtype=complex)
    for k, c in zip(ks, coeffs):
        direct += c * np.exp(-2j * np.pi * k * SMALL.unit_omegas)
    np.testing.assert_allclose(z, direct, atol=1e-9)


BAND_GRID = FrequencyGrid(8, 64)


def full_grid_reference(f, grid):
    """All 2KN values as the full-grid forms computed them: an interval spectrum's
    cell averages written into a zero grid, a combination's coefficient fiber times
    its base's whole fold."""
    if isinstance(f, ShiftCombination):
        return (f.coefficients.fiber(grid.resolution) * grid.fold(full_grid_reference(f.base, grid))).ravel()
    n, k = grid.resolution, grid.half_bandwidth
    out = np.zeros(grid.size, dtype=complex)
    for m, lo, hi, v in f.pieces:
        base, s, e = (m + k) * n, lo * n, hi * n
        i0, i1 = int(np.floor(s)), int(np.floor(e))
        if i0 == i1:
            out[base + i0] += v * (e - s)
            continue
        out[base + i0] += v * (i0 + 1 - s)
        out[base + i0 + 1:base + i1] += v
        if i1 < n and e > i1:
            out[base + i1] += v * (e - i1)
    return out


def assert_band_pads_to(f, grid, want):
    """grid_values is want (np.array_equal: a combination's rows off its band are +0
    where the full product may read -0), and the band holds every nonzero node."""
    band, rows = f.band_values(grid)
    assert np.array_equal(f.grid_values(grid), want)
    folded, outside = grid.fold(want), np.ones(2 * grid.half_bandwidth, dtype=bool)
    outside[band] = False
    assert np.array_equal(rows, folded[band]) and not np.any(folded[outside])


def seeded_intervals(rng, grid=BAND_GRID):
    """1-4 disjoint intervals with random ends in [-K, K), about half of them
    narrower than a cell."""
    k, n = grid.half_bandwidth, grid.resolution
    cuts = np.sort(rng.uniform(-k, k, rng.integers(2, 6)))
    ends = [(a, min(b, a + rng.uniform(0, 1) / n) if rng.random() < 0.5 else b) for a, b in zip(cuts, cuts[1:])]
    return PiecewiseConstantSpectrum([(a, b, complex(*rng.standard_normal(2))) for a, b in ends if b > a] or
                                     [(0.0, 1.0, 1.0)])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_interval_spectra_and_combinations_pad_their_band(seed):
    rng = np.random.default_rng(seed)
    f = seeded_intervals(rng)
    assert_band_pads_to(f, BAND_GRID, full_grid_reference(f, BAND_GRID))
    ks = np.unique(rng.integers(-20, 21, rng.integers(1, 8)))
    c = ShiftCombination(f, TimeSamples(ks, rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size), 20))
    assert_band_pads_to(c, BAND_GRID, full_grid_reference(c, BAND_GRID))


@pytest.mark.parametrize("kn", [(1, 1), (1, 2), (8, 64), (64, 4096)])
def test_blhat_pads_its_band(kn):
    grid = FrequencyGrid(*kn)
    n = grid.resolution
    d = np.arange(-((n - 1) // 2), (n + 1) // 2)
    want = np.zeros(grid.size, dtype=complex)
    want[grid.size // 2 + d] = 1.0 - 2.0 * np.abs(d / n)
    assert_band_pads_to(build_signal("blhat", grid), grid, want)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_grid_spectra_read_from_files_pad_their_band(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    vals = np.zeros(BAND_GRID.size, dtype=complex)
    nodes = rng.choice(BAND_GRID.size, rng.integers(0, 40), replace=False)
    vals[nodes] = rng.standard_normal(nodes.size) + 1j * rng.standard_normal(nodes.size)
    path = tmp_path_factory.mktemp("io") / "spectrum.csv"
    sio.write_grid_spectrum(GridSpectrum(vals, BAND_GRID), path)
    assert_band_pads_to(sio.read_grid_spectrum(path, BAND_GRID), BAND_GRID, vals)


def unit_pieces(intervals):
    """Reference cutter: each sorted [a, b) cut at the integers, one unit at a time."""
    pieces = []
    for a, b, v in sorted(intervals, key=lambda t: t[:2]):
        m = int(np.floor(a))
        while m < b:
            lo, hi = max(a, float(m)) - m, min(b, float(m + 1)) - m
            if hi > lo:
                pieces.append((m, lo, hi, v))
            m += 1
    return pieces


# ends and widths: whole, dyadic (k/64) and arbitrary floats; widths from 2^-50 to 5 units
whole = st.integers(-60, 55).map(float)
ends = st.one_of(whole, st.integers(-60 * 64, 55 * 64).map(lambda k: k / 64), st.floats(-60, 55))
widths = st.one_of(st.integers(1, 5).map(float), st.integers(1, 5 * 64).map(lambda k: k / 64),
                   st.integers(1, 50).map(lambda e: 2.0 ** -e), st.floats(1e-9, 5))


@st.composite
def disjoint_intervals(draw):
    """1-4 disjoint intervals, each after the last by a gap of 0 or a drawn width, in drawn order."""
    a, out = draw(ends), []
    for _ in range(draw(st.integers(1, 4))):
        b = a + draw(widths)
        if b > a:  # a width under half an ulp of a rounds away
            out.append((a, b, draw(complex_values)))
        a = b + draw(st.one_of(st.just(0.0), widths))
    return draw(st.permutations(out))


@settings(max_examples=200, deadline=None)
@given(intervals=disjoint_intervals())
@example(intervals=[(-2.0 ** -60, 0.5, 1.0), (3.0, 5.0, 1j)])  # 1 - 2^-60 rounds to 1; an integer b
def test_pieces_cut_from_the_records_are_the_unit_loops(intervals):
    # one record per interval given; the cutter reads the same unit pieces, in the same
    # order, as the unit-at-a-time loop
    sig = PiecewiseConstantSpectrum(intervals)
    assert len(sig.records) == len(intervals)
    assert sig.pieces == unit_pieces(intervals)


@settings(max_examples=100, deadline=None)
@given(intervals=disjoint_intervals())
def test_both_constructors_hold_the_same_spectrum(intervals):
    # the pieces of a spectrum, given as local pieces, are the same pieces and need the same K
    sig = PiecewiseConstantSpectrum(intervals)
    again = PiecewiseConstantSpectrum.from_local_pieces(sig.pieces)
    assert again.pieces == sig.pieces
    assert again.required_half_bandwidth() == sig.required_half_bandwidth()


@settings(max_examples=50, deadline=None)
@given(intervals=disjoint_intervals(), factor=complex_values)
def test_scaled_keeps_the_intervals_given(intervals, factor):
    sig = PiecewiseConstantSpectrum(intervals)
    assert sig.scaled(factor).intervals == [(a, b, v * factor) for a, b, v in sig.intervals]
