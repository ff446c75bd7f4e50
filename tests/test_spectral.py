"""Core spectral operations against independent oracles.

The brute-force oracle evaluates interval spectra by direct membership
summation over integer shifts, with no reshaping or FFT machinery shared
with the implementation.
"""

import numpy as np
import pytest

from sisbox import (
    FrequencyGrid,
    GridSpectrum,
    PiecewiseConstantSpectrum,
    TimeSamples,
    bracket,
    essential_bounds,
    grammian,
    integer_samples,
    periodize,
    shift_square_sum,
    support_mask,
    zak_dual_fiber,
    zak_time_fiber,
)
from sisbox.catalog import build_signal, ex2_signal
from sisbox.errors import (
    BandwidthOverflowError,
    DegenerateSpaceError,
    GridMismatchError,
    NotAGrammianError,
)

# ---------------------------------------------------------------- oracles


def oracle_stack(intervals, omega, shift_range=200):
    """Direct summation: all interval values whose translate covers omega."""
    out = []
    for m in range(-shift_range, shift_range + 1):
        for a, b, v in intervals:
            if a <= omega + m < b:
                out.append((v, m))
    return out


def oracle_periodize(intervals, omega):
    return sum(v for v, _ in oracle_stack(intervals, omega))


def oracle_grammian(intervals, omega):
    return sum(abs(v) ** 2 for v, _ in oracle_stack(intervals, omega))


def oracle_bracket(f_intervals, g_intervals, omega):
    fs = {m: v for v, m in oracle_stack(f_intervals, omega)}
    gs = {m: v for v, m in oracle_stack(g_intervals, omega)}
    return sum(fv * np.conj(gs.get(m, 0.0)) for m, fv in fs.items())


def oracle_dual_fiber(intervals, omega, x):
    return sum(v * np.exp(2j * np.pi * m * x) for v, m in oracle_stack(intervals, omega))


def oracle_zak(samples: TimeSamples, omega):
    return sum(v * np.exp(-2j * np.pi * k * omega) for k, v in zip(samples.ks, samples.values))


SHANNON = [(-0.5, 0.5, 1.0)]

# checked against the direct-summation oracle at omega = 3/8
assert oracle_periodize([(0.0, 1.0, 1.0), (1.0, 1.5, -0.5)], 0.375) == 0.5


class TestPeriodize:
    def test_unit_partition(self, shannon, grid):
        p = periodize(shannon, grid)
        np.testing.assert_allclose(p.values, 1.0)

    def test_ex2_block_value(self, ex2, wide_grid):
        # alternating partial sum 1 - 1/2 on the (1/4, 1/2] band
        p = periodize(ex2, wide_grid)
        assert p.value_at(3.0 / 8) == pytest.approx(0.5)
        assert p.value_at(3.0 / 8) == pytest.approx(
            oracle_periodize(ex2.intervals[:12], 3.0 / 8)
        )

    def test_zero(self, grid):
        z = PiecewiseConstantSpectrum([(0.0, 1.0, 0.0)])
        np.testing.assert_allclose(periodize(z, grid).values, 0.0)

    def test_bandwidth_overflow(self):
        sig = PiecewiseConstantSpectrum([(40.0, 41.0, 1.0)])
        small = FrequencyGrid(32, 256)
        with pytest.raises(BandwidthOverflowError) as err:
            periodize(sig, small)
        assert err.value.required_k == 64

    def test_matches_oracle_on_random_aligned_intervals(self, grid):
        rng = np.random.default_rng(5)
        n = grid.resolution
        intervals = []
        lo = -3.0
        for _ in range(6):
            a = lo + rng.integers(1, 40) / n
            b = a + rng.integers(1, 300) / n
            intervals.append((a, b, complex(*rng.standard_normal(2))))
            lo = b
        sig = PiecewiseConstantSpectrum(intervals)
        p = periodize(sig, grid)
        for om in [0.0, 1.0 / 8, 511.0 / 1024, 1023.0 / 1024]:
            assert p.value_at(om) == pytest.approx(oracle_periodize(intervals, om), abs=1e-12)


class TestGrammian:
    def test_unit(self, shannon, grid):
        np.testing.assert_allclose(grammian(shannon, grid).values, 1.0)

    def test_ex2_block_value(self, ex2, wide_grid):
        g = grammian(ex2, wide_grid)
        assert g.value_at(3.0 / 8) == pytest.approx(1.25)

    def test_zero(self, grid):
        z = PiecewiseConstantSpectrum([(0.0, 0.25, 0.0)])
        np.testing.assert_allclose(grammian(z, grid).values, 0.0)

    def test_real_nonnegative(self, ex2, wide_grid):
        g = grammian(ex2, wide_grid)
        assert g.is_real()
        assert np.min(g.real_values) >= 0.0


class TestBracket:
    def test_bracket_with_self_is_grammian(self, blhat, grid):
        b = bracket(blhat, blhat, grid)
        g = grammian(blhat, grid)
        np.testing.assert_allclose(b.values, g.values, atol=1e-14)

    def test_disjoint_supports_vanish(self, grid):
        f = PiecewiseConstantSpectrum([(0.0, 0.5, 2.0)])
        g = PiecewiseConstantSpectrum([(2.5, 3.0, 1.0)])
        np.testing.assert_allclose(bracket(f, g, grid).values, 0.0)

    def test_half_band_against_full_band(self, grid):
        # [DERIVED] via the direct-summation oracle
        f = PiecewiseConstantSpectrum([(0.0, 0.5, 1.0)])
        g = PiecewiseConstantSpectrum([(0.0, 1.0, 1.0)])
        b = bracket(f, g, grid)
        for om in [0.0, 0.25, 0.499, 0.5, 0.75]:
            om_snapped = round(om * 1024) / 1024
            expected = oracle_bracket(f.intervals, g.intervals, om_snapped)
            assert b.value_at(om_snapped) == pytest.approx(expected)
        assert b.value_at(0.25) == 1.0
        assert b.value_at(0.75) == 0.0

    def test_hermitian_symmetry(self, grid):
        rng = np.random.default_rng(11)
        f = GridSpectrum(rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size), grid)
        g = GridSpectrum(rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size), grid)
        np.testing.assert_allclose(bracket(f, g, grid).values,
                                   np.conj(bracket(g, f, grid).values), atol=1e-12)

    def test_grid_mismatch(self, grid, shannon):
        other = GridSpectrum(np.zeros(FrequencyGrid(16, 512).size), FrequencyGrid(16, 512))
        with pytest.raises(GridMismatchError):
            bracket(shannon, other, grid)

    def test_wider_grid_spectrum_is_a_mismatch(self, grid, shannon):
        # a grid spectrum of another N is a mismatch; of a wider K it is placed by its rows'
        # shifts, and refused (BandwidthOverflowError) only where its rows pass the grid's K
        wide = FrequencyGrid(2 * grid.half_bandwidth, grid.resolution)
        placed, own = build_signal("blhat", wide), build_signal("blhat", grid)  # rows of shifts -1 and 0
        np.testing.assert_array_equal(bracket(shannon, placed, grid).values, bracket(shannon, own, grid).values)
        k = wide.half_bandwidth
        past = GridSpectrum.from_band(slice(2 * k - 1, 2 * k), np.ones((1, wide.resolution)), wide)  # m = K - 1
        with pytest.raises(BandwidthOverflowError) as err:
            bracket(shannon, past, grid)
        assert (err.value.required_k, err.value.actual_k) == (k, grid.half_bandwidth)
        finer = FrequencyGrid(grid.half_bandwidth, 2 * grid.resolution)
        with pytest.raises(GridMismatchError):
            bracket(shannon, build_signal("blhat", finer), grid)


class TestZakTimeFiber:
    def test_delta_is_one(self, grid):
        z = zak_time_fiber(TimeSamples.delta(0), grid)
        np.testing.assert_allclose(z.values, 1.0)

    def test_shifted_delta_is_phase(self, grid):
        z = zak_time_fiber(TimeSamples.delta(1), grid)
        expected = np.exp(-2j * np.pi * grid.unit_omegas)
        np.testing.assert_allclose(z.values, expected, atol=1e-12)

    def test_sinc_samples_give_indicator(self, shannon, grid):
        samples = integer_samples(shannon, grid, 512)
        z = zak_time_fiber(samples, grid)
        np.testing.assert_allclose(z.values, 1.0, atol=1e-12)

    def test_matches_direct_sum_oracle(self, grid):
        rng = np.random.default_rng(2)
        ts = TimeSamples(np.arange(-5, 6), rng.standard_normal(11) + 1j * rng.standard_normal(11), 5)
        z = zak_time_fiber(ts, grid)
        for om in [0.0, 341.0 / 1024, 0.125, 767.0 / 1024]:
            assert z.value_at(om) == pytest.approx(oracle_zak(ts, om), abs=1e-10)


class TestZakDualFiber:
    def test_x_zero_is_periodize(self, ex2, wide_grid):
        d = zak_dual_fiber(ex2, 0.0, wide_grid)
        p = periodize(ex2, wide_grid)
        np.testing.assert_array_equal(d.values, p.values)

    def test_single_shift_has_unit_modulus(self, shannon, grid):
        d = zak_dual_fiber(shannon, 0.7, grid)
        np.testing.assert_allclose(np.abs(d.values), 1.0, atol=1e-12)

    def test_ex2_half_shift_value(self, ex2, wide_grid):
        # [DERIVED] sum_{k=0,1} (-1)^k (-1)^k / (k+1) = 3/2 on (1/4, 1/2]
        d = zak_dual_fiber(ex2, 0.5, wide_grid)
        assert d.value_at(3.0 / 8) == pytest.approx(1.5)
        assert d.value_at(3.0 / 8) == pytest.approx(
            oracle_dual_fiber(ex2.intervals[:12], 3.0 / 8, 0.5)
        )


class TestInverseFourierEvaluate:
    def test_shannon_at_zero(self, shannon):
        assert shannon.time_values(0.0)[0] == pytest.approx(1.0)

    def test_shannon_vanishes_at_integers(self, shannon):
        for k in [1, -1, 2, -5, 17]:
            assert abs(shannon.time_values(float(k))[0]) < 1e-14

    def test_shannon_is_sinc(self, shannon):
        xs = np.linspace(-5, 5, 41)
        np.testing.assert_allclose(shannon.time_values(xs), np.sinc(xs), atol=1e-12)

    def test_zero_spectrum(self):
        z = PiecewiseConstantSpectrum([(0.0, 1.0, 0.0)])
        assert z.time_values(0.3)[0] == 0.0

    def test_interval_agrees_with_grid_quadrature(self, grid):
        # cell-aligned intervals: the grid cell model integrates exactly
        sig = PiecewiseConstantSpectrum([(-0.25, 0.125, 1.5 + 0.5j), (0.25, 1.0, -2.0)])
        gridded = GridSpectrum(sig.grid_values(grid), grid)
        rng = np.random.default_rng(4)
        xs = rng.uniform(-10, 10, 32)
        np.testing.assert_allclose(gridded.time_values(xs), sig.time_values(xs), atol=1e-6)

    def test_small_ex2_agrees_with_grid_quadrature(self):
        # dyadic blocks at n_max=8 are all cell-aligned on a K=16 grid
        g = FrequencyGrid(16, 1024)
        sig = ex2_signal(8)
        gridded = GridSpectrum(sig.grid_values(g), g)
        rng = np.random.default_rng(9)
        xs = rng.uniform(-6, 6, 32)
        np.testing.assert_allclose(gridded.time_values(xs), sig.time_values(xs), atol=1e-6)


class TestSupportMask:
    def test_full(self, shannon, grid):
        m = support_mask(grammian(shannon, grid), 1e-9)
        assert m.measure == 1.0

    def test_empty(self, grid):
        z = PiecewiseConstantSpectrum([(0.0, 1.0, 0.0)])
        m = support_mask(grammian(z, grid), 1e-9)
        assert m.measure == 0.0

    def test_half_band_measure(self, grid):
        half = PiecewiseConstantSpectrum([(0.0, 0.5, 1.0)])
        m = support_mask(grammian(half, grid), 1e-9)
        assert abs(m.measure - 0.5) <= 1.0 / grid.resolution

    def test_rejects_negative(self, grid):
        from sisbox import PeriodicSpectrum

        vals = np.ones(grid.resolution)
        vals[3] = -0.5
        with pytest.raises(NotAGrammianError):
            support_mask(PeriodicSpectrum(vals, grid), 1e-9)

    @pytest.mark.parametrize("eps", [0.0, -1e-9, 1.0, 2.0, np.inf, np.nan])
    def test_rejects_eps_outside_unit_interval(self, shannon, grid, eps):
        # at eps >= 1 no node is above the guard, and every set would be empty
        with pytest.raises(ValueError, match="eps"):
            support_mask(grammian(shannon, grid), eps)


class TestEssentialBounds:
    def test_unit(self, shannon, grid):
        g = grammian(shannon, grid)
        assert essential_bounds(g, support_mask(g, 1e-9)) == (1.0, 1.0)

    def test_ex2_partial_sum_bounds(self, ex2, wide_grid):
        # [DERIVED] sum of inverse squares: between 1 and pi^2/6
        g = grammian(ex2, wide_grid)
        a, b = essential_bounds(g, support_mask(g, 1e-9))
        assert a >= 1.0 - 1e-12
        assert b <= np.pi ** 2 / 6 + 1e-12

    def test_empty_mask_raises(self, grid):
        z = PiecewiseConstantSpectrum([(0.0, 1.0, 0.0)])
        g = grammian(z, grid)
        with pytest.raises(DegenerateSpaceError):
            essential_bounds(g, support_mask(g, 1e-9))

    def test_bounds_bracket_masked_values(self, ex2, wide_grid):
        g = grammian(ex2, wide_grid)
        mask = support_mask(g, 1e-9)
        a, b = essential_bounds(g, mask)
        vals = g.real_values[mask.values]
        assert np.all(vals >= a) and np.all(vals <= b)


class TestShiftSquareSum:
    def test_ex3_direct_evaluation(self, ex3, grid):
        # direct-evaluation oracle: two translates overlap at every x, so
        # the sum is 1 + sin(pi x)^2 -- between 1 (integers) and 2
        # (half-integers)
        for x in [0.0, 0.25, 0.5, 0.75, 0.33]:
            got = shift_square_sum(ex3, [x], grid).bound
            ks = np.arange(-4, 5)
            direct = float(np.sum(np.abs(ex3.time_values(x + ks)) ** 2))
            assert got == pytest.approx(direct, abs=1e-12)
            assert got == pytest.approx(1.0 + np.sin(np.pi * x) ** 2, abs=1e-12)

    def test_zero_kernel(self, grid):
        from sisbox import TimeKernel

        z = TimeKernel((-1.0, 1.0), lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                       integrable_spectrum=True)
        assert shift_square_sum(z, [0.0, 0.3], grid).bound == 0.0

    def test_sinc_at_origin(self, shannon, grid):
        got = shift_square_sum(shannon, [0.0], grid)
        assert got.bound == pytest.approx(1.0, abs=1e-9)


class TestPoissonConsistency:
    @pytest.mark.parametrize("name", ["shannon", "blhat", "ex2"])
    def test_time_fiber_matches_periodization(self, name, request):
        sig = request.getfixturevalue(name)
        g = FrequencyGrid(64, 1024) if name == "ex2" else FrequencyGrid(32, 1024)
        samples = integer_samples(sig, g, 512)
        z = zak_time_fiber(samples, g)
        p = periodize(sig, g)
        # k_max = N/2 keeps a full period of samples: the identity holds to rounding
        assert float(np.max(np.abs(z.values - p.values))) < 1e-13 * float(np.max(np.abs(p.values)))
