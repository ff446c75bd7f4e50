from fractions import Fraction

import numpy as np
import pytest

from conftest import SYNTHESIS_POINTS, exact_synthesis, random_coefficients
from sisbox import (
    FrequencyGrid,
    GridSpectrum,
    PeriodicPartition,
    PiecewiseConstantSpectrum,
    ShiftCombination,
    TimeKernel,
    TimeSamples,
    build_signal,
    decompose,
    signals,
)
from sisbox.errors import GridMismatchError, PreconditionError
from sisbox.signals import PeriodizedProfile, _grid_time_values, _phase_czt
from sisbox.spaces import _continuity_check


class TestPiecewiseConstant:
    @pytest.mark.parametrize("pieces, need", [
        ([(0, 0.0, 0.5)], 1), ([(-1, 0.5, 1.0)], 1), ([(63, 0.0, 1.0)], 64),
        ([(-64, 0.0, 0.5)], 64), ([(64, 0.0, 2.0 ** -64)], 128), ([], 1)])
    def test_required_half_bandwidth(self, pieces, need):
        # [64, 64 + 2^-64) needs K = 128, though its global end rounds to 64
        sig = PiecewiseConstantSpectrum.from_local_pieces([(*p, 1.0) for p in pieces])
        assert sig.required_half_bandwidth() == need

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            PiecewiseConstantSpectrum([(0.0, 1.0, 1.0), (0.5, 1.5, 2.0)])

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            PiecewiseConstantSpectrum([(1.0, 1.0, 1.0)])

    @pytest.mark.parametrize("a, b", [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0)])
    def test_rejects_non_finite_ends(self, a, b):
        # an infinite end used to split the interval into unit pieces forever
        with pytest.raises(ValueError, match="finite ends"):
            PiecewiseConstantSpectrum([(a, b, 1.0)])

    def test_adjacent_intervals_allowed(self):
        sig = PiecewiseConstantSpectrum([(0.0, 0.5, 1.0), (0.5, 1.0, 2.0)])
        assert len(sig.pieces) == 2

    def test_splitting_at_integers(self):
        sig = PiecewiseConstantSpectrum([(-0.5, 1.5, 1.0)])
        assert [(m, lo, hi) for m, lo, hi, _ in sig.pieces] == [
            (-1, 0.5, 1.0), (0, 0.0, 1.0), (1, 0.0, 0.5)]

    def test_grid_values_are_cell_averages(self, grid):
        n = grid.resolution
        # half-cell sliver: value spread over its cell with weight 1/2
        sig = PiecewiseConstantSpectrum([(0.0, 0.5 / n, 2.0)])
        vals = sig.grid_values(grid)
        j0 = 32 * n
        assert vals[j0] == pytest.approx(1.0)
        assert np.count_nonzero(vals) == 1

    def test_cell_average_preserves_integral(self, grid):
        rng = np.random.default_rng(8)
        sig = PiecewiseConstantSpectrum([(0.013, 1.741, 1.3 - 0.2j)])
        total = np.sum(sig.grid_values(grid)) / grid.resolution
        assert total == pytest.approx((1.741 - 0.013) * (1.3 - 0.2j), abs=1e-12)

    def test_sub_float_dyadic_blocks_survive(self):
        # blocks at large shifts keep exact dyadic lengths
        sig = PiecewiseConstantSpectrum.from_local_pieces(
            [(48, 0.0, 0.5 ** 48, 1.0), (50, 0.0, 0.5 ** 50, -1.0)])
        prof = PeriodizedProfile.from_pieces(sig.pieces)
        assert prof.lengths[0] == pytest.approx(0.5 ** 50)
        assert complex(prof.z[0]) == pytest.approx(0.0)  # 1 - 1 on the overlap

    @pytest.mark.parametrize("name", ["shannon", "ex2"])
    def test_time_values_do_not_cancel_near_zero(self, name):
        # a ramp (exp(2i*pi*width*x) - 1) / (2i*pi*x) lost ~1e-9 at x = 1e-9
        sig = build_signal(name, FrequencyGrid(64, 1024))
        xs = np.array([0.0, 1e-9, -1e-9, 1e-6, 1 / 256, 0.3, -2.75])
        want = exact_synthesis(sig.pieces, [0], [1.0], xs)
        assert np.max(np.abs(sig.time_values(xs) - want)) <= 1e-15 * np.max(np.abs(want))

    def test_scaled(self, grid):
        sig = PiecewiseConstantSpectrum([(0.0, 1.0, 2.0)])
        np.testing.assert_allclose(sig.scaled(0.5).grid_values(grid),
                                   0.5 * sig.grid_values(grid))


class TestGridSpectrum:
    def test_grid_mismatch(self, grid):
        other = FrequencyGrid(16, 512)
        sig = GridSpectrum(np.zeros(other.size), other)
        with pytest.raises(GridMismatchError):
            sig.grid_values(grid)

    def test_czt_and_direct_evaluation_agree(self, grid):
        rng = np.random.default_rng(3)
        vals = np.zeros(grid.size, dtype=complex)
        sel = slice(30 * 1024, 34 * 1024)
        vals[sel] = rng.standard_normal(4 * 1024) + 1j * rng.standard_normal(4 * 1024)
        xs_uniform = np.linspace(-3, 3, 200)      # triggers the Bluestein path
        got = _grid_time_values(vals, grid, xs_uniform)
        want = np.array([_grid_time_values(vals, grid, np.array([x]))[0] for x in xs_uniform])
        np.testing.assert_allclose(got, want, atol=1e-10)

    @pytest.mark.parametrize("count", [4097, 40])  # Bluestein span, direct sums
    @pytest.mark.parametrize("m", [3, -17, 40])
    def test_integer_spectral_shift_modulates_time_values(self, m, count):
        # f_hat(. - m) is f times exp(2i*pi*m*x); the span then starts m cells over
        grid = FrequencyGrid(64, 4096)
        base = build_signal("blhat", grid)
        shifted = GridSpectrum(np.roll(base.values, m * grid.resolution), grid)
        xs = np.linspace(-8, 8, count)
        want = np.exp(2j * np.pi * m * xs) * base.time_values(xs)
        got = shifted.time_values(xs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("count", [4097, 40])  # Bluestein span, direct sums
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_node_is_refused(self, blhat, bad, count):
        # a dropped node would leave finite values, off by ~1e-3
        vals = blhat.values.copy()
        vals[blhat.grid.size // 2 + 7] = bad
        with pytest.raises(PreconditionError, match="spectrum has 1 non-finite grid value"):
            GridSpectrum(vals, blhat.grid).time_values(np.linspace(-8, 8, count))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_node_in_an_empty_row_is_refused(self, blhat, bad):
        # the occupied-row scan must not skip a row whose only node is non-finite
        vals = blhat.values.copy()
        vals[5] = bad
        with pytest.raises(PreconditionError, match="spectrum has 1 non-finite grid value"):
            GridSpectrum(vals, blhat.grid).time_values(np.linspace(-8, 8, 40))


def cell_kernel(grid, x):
    """Integral of exp(2i*pi*omega*x) over one grid cell [0, 1/N), with the
    ramp exp(...) - 1 taken by expm1, which does not cancel near x = 0."""
    return np.expm1(2j * np.pi * grid.step * x) / (2j * np.pi * x)


def exact_phase_sum(coeffs, ints, rate) -> complex:
    """sum_n coeffs[n] exp(2i*pi*rate*ints[n]), every phase rate*ints[n]
    reduced mod 1 exactly in rational arithmetic before rounding."""
    r = Fraction(rate)
    turns = (np.asarray(ints, dtype=object) * r.numerator) % r.denominator / r.denominator
    return complex(np.sum(coeffs * np.exp(2j * np.pi * turns.astype(float))))


class TestChirpTransform:
    @pytest.mark.parametrize("size, count, rate", [
        (2049, 65536, -2.0 ** -20),          # TimeKernel spectrum: M = 2048 at (32, 1024)
        (131072, 1000, (16 / 999) / 1024),   # uniform evaluation: (64, 1024), 1000 points
        (40000, 33000, (16 / 999) / 4096),   # both past one block: inputs cut to the outputs'
        (2049, 50001, -2.0 ** -22),          # four output blocks, the last one partial
    ])
    def test_matches_exact_phase_sum(self, size, count, rate):
        rng = np.random.default_rng(11)
        coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        got = _phase_czt(coeffs, rate, count)
        ms = [0, 1, count // 3, count // 2 + 1, count - 1]
        n = np.arange(size)
        want = np.array([exact_phase_sum(coeffs, n * m, rate) for m in ms])
        assert np.max(np.abs(got[ms] - want)) <= 1e-13 * np.max(np.abs(want))

    def test_uniform_evaluation_keeps_the_points(self):
        # the first difference of linspace(-8, 8, 1000) is off by 3.6e-16; a
        # spacing taken from it drifts to 1.7e-10 relative at the far end
        grid = FrequencyGrid(64, 1024)
        rng = np.random.default_rng(12)
        vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        xs = np.linspace(-8, 8, 1000)
        got = _grid_time_values(vals, grid, xs)
        nodes = np.arange(grid.size) - grid.half_bandwidth * grid.resolution
        picks = [0, 1, 333, 500, 998, 999]
        want = []
        for i in picks:
            x = xs[i]
            want.append(exact_phase_sum(vals, nodes, Fraction(x) / grid.resolution) * cell_kernel(grid, x))
        want = np.array(want)
        assert np.max(np.abs(got[picks] - want)) <= 1e-12 * np.max(np.abs(want))

    @staticmethod
    def band_error(cell, seed, drop_zero):
        """Relative error of a 1,024-node random band in the cell at omega =
        cell of (64, 4096), at linspace(-8, 8, 1001) (without x = 0, which
        makes the points non-uniform, when ``drop_zero``)."""
        grid = FrequencyGrid(64, 4096)
        n = grid.resolution
        rng = np.random.default_rng(seed)
        start = (cell + grid.half_bandwidth) * n + int(rng.integers(0, n - 1024))
        band = slice(start, start + 1024)
        vals = np.zeros(grid.size, dtype=complex)
        vals[band] = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        xs = np.linspace(-8, 8, 1001)
        if drop_zero:
            xs = xs[xs != 0]
        got = _grid_time_values(vals, grid, xs)
        keep = xs != 0  # the reference's cell kernel divides by x
        got, xs = got[keep], xs[keep]
        nodes = np.arange(grid.size)[band] - grid.half_bandwidth * n
        want = cell_kernel(grid, xs) * np.array([exact_phase_sum(vals[band], nodes, Fraction(x) / n)
                                                 for x in xs])
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    @pytest.mark.parametrize("cell, seed", [(-63, 21), (63, 22), (-1, 23)])
    def test_band_span_matches_exact_phase_sum(self, cell, seed):
        # a narrow band far from node 0: the transform runs over the band
        # alone, and the phase of its first node must not lose the ~1e-13
        # that rounding the product omega * x costs near omega * x = 500
        assert self.band_error(cell, seed, drop_zero=False) <= 1e-14

    @pytest.mark.parametrize("cell, seed", [(-63, 21), (63, 22), (-1, 23)])
    def test_direct_band_matches_exact_phase_sum(self, cell, seed):
        # the same bands on non-uniform points: the direct sum takes the
        # first node's phase as exactly as the transform does
        assert self.band_error(cell, seed, drop_zero=True) <= 1e-14

    @pytest.fixture
    def czt_sizes(self, monkeypatch):
        """The coefficient count of every chirp transform run meanwhile."""
        sizes = []

        def recording(coeffs, rate, count):
            sizes.append(coeffs.size)
            return _phase_czt(coeffs, rate, count)

        monkeypatch.setattr(signals, "_phase_czt", recording)
        return sizes

    def test_continuity_transform_spans_the_band_not_the_grid(self, czt_sizes):
        # blhat's 4,095 nonzero nodes, not all 524,288 nodes of (64, 4096)
        _continuity_check(build_signal("blhat", FrequencyGrid(64, 4096)))
        assert czt_sizes == [4095]

    def test_half_band_components_take_the_transform(self, czt_sizes, shannon_space, grid):
        # 512 nonzero nodes at 4,097 continuity points: summed directly, each
        # component's time values cost ~70 times as much (2-vCPU Xeon)
        part = PeriodicPartition.from_intervals([[[0.0, 0.5]], [[0.5, 1.0]]], grid)
        decompose(shannon_space, part)
        assert czt_sizes == [512, 512]

    def test_sparse_wide_span_sums_directly(self, czt_sizes):
        # 3 nodes across all 524,288 of (64, 4096): a transform over the span
        # would cost far more than 3 * 4,097 terms
        grid = FrequencyGrid(64, 4096)
        vals = np.zeros(grid.size, dtype=complex)
        vals[[0, grid.size // 2, grid.size - 1]] = [1.0, -2.0j, 0.5]
        _grid_time_values(vals, grid, np.linspace(-8, 8, 4097))
        assert czt_sizes == []

    def test_repeated_first_point_sums_directly(self, czt_sizes, blhat):
        # a zero first difference names no spacing, however many points follow
        xs = np.concatenate([[0.3], np.linspace(0.3, 8, 4096)])
        got = blhat.time_values(xs)
        assert czt_sizes == []
        want = blhat.time_values(xs[1:])
        assert np.max(np.abs(got[1:] - want)) <= 1e-14 * np.max(np.abs(want))

    def test_direct_route_does_not_cache_the_grid_nodes(self):
        grid = FrequencyGrid(32, 1024)
        vals = np.zeros(grid.size, dtype=complex)
        vals[grid.size // 2:grid.size // 2 + 10] = 1.0
        _grid_time_values(vals, grid, np.array([-3.0, 0.2, 0.25, 7.5]))
        assert "omegas" not in grid.__dict__


class TestTimeKernel:
    @pytest.mark.parametrize("name", ["hat", "ex3"])
    def test_spectrum_matches_exact_phase_trapezoid(self, name):
        # the trapezoid sum with every phase x_m * omega_j reduced mod 1 in
        # rational arithmetic, at both grid ends and around omega = 0
        grid = FrequencyGrid(64, 4096)
        k, n = grid.half_bandwidth, grid.resolution
        kern = build_signal(name, grid)
        vals = kern.grid_values(grid)
        xs, w = kern._trapezoid()
        coeffs = w * np.asarray(kern.evaluator(xs), dtype=complex)
        nodes = [0, 5, k * n - 3, k * n, k * n + 1, k * n + 7, grid.size - 6, grid.size - 1]
        want = []
        for j in nodes:
            omega = Fraction(j, n) - k
            turns = np.array([float(-Fraction(x) * omega % 1) for x in xs])
            want.append(np.sum(coeffs * np.exp(2j * np.pi * turns)))
        assert np.max(np.abs(vals[nodes] - np.array(want))) <= 1e-15 * np.max(np.abs(vals))

    def test_spectrum_transform_runs_in_blocks(self, monkeypatch):
        # 2,049 -> 524,288 points as rows of at most two blocks, not one
        # transform padded to 531,441; the phases need no grid node array
        lengths = []
        for name in ("fft", "ifft"):
            def recording(a, n=None, *args, fft=getattr(np.fft, name), **kwargs):
                lengths.append(np.shape(a)[-1] if n is None else n)
                return fft(a, n, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, recording)
        grid = FrequencyGrid(64, 4096)
        build_signal("hat", grid).grid_values(grid)
        assert lengths and max(lengths) <= signals._fast_length(2 * signals._CZT_BLOCK)
        assert "omegas" not in grid.__dict__

    def test_hat_spectrum_is_squared_sinc(self, hat, grid):
        vals = hat.grid_values(grid)
        om = grid.omegas
        np.testing.assert_allclose(vals, np.sinc(om) ** 2, atol=1e-6)

    def test_ex3_spectrum_matches_closed_form(self, ex3, grid):
        # closed form from integrating the plateau and the sine ramps
        om = grid.omegas
        keep = np.abs(np.abs(om) - 0.5) > 1e-3
        w = om[keep]
        with np.errstate(invalid="ignore", divide="ignore"):
            expected = (np.sinc(w)
                        + (np.cos(2 * np.pi * w) - np.sin(np.pi * w)) / (np.pi * (1 + 2 * w))
                        + (np.cos(2 * np.pi * w) + np.sin(np.pi * w)) / (np.pi * (1 - 2 * w)))
        got = ex3.grid_values(grid)[keep]
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_interpolating_samples(self, ex3, hat, grid):
        for kern in (ex3, hat):
            s = kern.integer_samples(grid, 512)
            assert s.value_at(0) == pytest.approx(1.0)
            for k in (-1, 1, 2):
                assert abs(s.value_at(k)) < 1e-14

    def test_support_enforced(self, ex3):
        assert ex3.time_values(np.array([1.5, -2.0, 100.0])).tolist() == [0, 0, 0]

    def test_integrable_flags(self, ex3, hat):
        assert ex3.integrable_spectrum is False  # pinned
        assert hat.integrable_spectrum is True

    def test_integrable_flag_is_required(self, hat):
        # a spectrum truncated at K cannot decide integrability: the caller states it
        with pytest.raises(TypeError, match="integrable_spectrum"):
            TimeKernel(hat.support, hat.evaluator)
        assert hat.scaled(2.0).integrable_spectrum is True

    def test_spectral_tail_energy(self, ex3, hat, grid):
        # 1/omega^2 spectra: visible truncation, small but nonzero
        for kern in (ex3, hat):
            tail = kern.spectral_tail_energy(grid)
            assert 0.0 <= tail < 1e-3


class TestShiftCombination:
    @staticmethod
    def synthesis_error(base, coeffs, xs):
        """Relative error of the synthesis against the exact-phase sum."""
        got = ShiftCombination(base, coeffs).time_values(xs)
        want = exact_synthesis(base.pieces, coeffs.ks, coeffs.values, xs)
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    def test_ex2_synthesis_matches_exact_phase_sum(self, ex2):
        # 61 pieces, ends out to omega = 60 + 2^-60, 17 seeded coefficients
        assert self.synthesis_error(ex2, random_coefficients(41), SYNTHESIS_POINTS) <= 1e-13

    def test_far_piece_and_far_shifts_match_exact_phase_sum(self):
        # one piece at m = 60 against shifts near +-500: phases near 3e4 turns
        base = PiecewiseConstantSpectrum.from_local_pieces([(60, 0.25, 0.625, 1.0 - 2.0j)])
        ks = np.concatenate([np.arange(-503, -497), np.arange(497, 503)])
        rng = np.random.default_rng(42)
        coeffs = TimeSamples(ks, rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size), 503)
        xs = np.concatenate([SYNTHESIS_POINTS, SYNTHESIS_POINTS + 500, SYNTHESIS_POINTS - 500])
        # an unreduced phase exp(-2i*pi*e*k) alone costs 6.5e-14 here
        assert self.synthesis_error(base, coeffs, xs) <= 1e-14

    @pytest.mark.parametrize("name", ["ex2", "hat", "blhat"])
    def test_blocks_do_not_change_the_sum(self, name, request, monkeypatch):
        # one block, then one point (factored sum; poles land in every block)
        # or one shift per block (time kernel; grid base, whose direct sum: one point)
        f = ShiftCombination(request.getfixturevalue(name), random_coefficients(47))
        xs = np.concatenate([SYNTHESIS_POINTS, np.linspace(-9, 9, 37)])
        whole = f.time_values(xs)
        monkeypatch.setattr(signals, "_SYNTHESIS_BLOCK", 1)
        assert np.max(np.abs(f.time_values(xs) - whole)) <= 1e-15 * np.max(np.abs(whole))

    def test_interval_base_is_summed_in_factored_form(self, shannon, monkeypatch):
        # the base's own time values see only the points near a pole, at most
        # one term per point, not every (coefficient, point) pair
        seen = []
        plain = PiecewiseConstantSpectrum.time_values

        def recording(self, xs):
            seen.append(np.size(xs))
            return plain(self, xs)

        monkeypatch.setattr(PiecewiseConstantSpectrum, "time_values", recording)
        coeffs = random_coefficients(43, span=40)
        xs = np.linspace(-8, 8, 1001)
        ShiftCombination(shannon, coeffs).time_values(xs)
        assert sum(seen) <= xs.size

    def test_time_values_are_exact_sums(self, shannon):
        coeffs = TimeSamples(np.array([-1, 0, 2]), np.array([1.0, -2.0, 0.5j]), 2)
        f = ShiftCombination(shannon, coeffs)
        xs = np.linspace(-4, 4, 33)
        expected = (np.sinc(xs + 1) - 2 * np.sinc(xs) + 0.5j * np.sinc(xs - 2))
        np.testing.assert_allclose(f.time_values(xs), expected, atol=1e-12)

    def test_grid_values_factor(self, shannon, grid):
        coeffs = TimeSamples(np.array([0, 1]), np.array([1.0, 1.0]), 1)
        f = ShiftCombination(shannon, coeffs)
        om_unit = grid.unit_omegas
        fiber = 1.0 + np.exp(-2j * np.pi * om_unit)
        expected = np.tile(fiber, 2 * grid.half_bandwidth) * shannon.grid_values(grid)
        np.testing.assert_allclose(f.grid_values(grid), expected, atol=1e-12)

    def test_grid_values_match_exact_phase_fiber(self, shannon, grid):
        # far and negative indices, beyond +-N/2 and N: the fiber takes them mod N
        ks = np.array([-700, -513, -512, -3, 0, 5, 511, 600, 1500])
        rng = np.random.default_rng(31)
        cs = rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size)
        f = ShiftCombination(shannon, TimeSamples(ks, cs, 1500))
        n = grid.resolution
        fiber = np.array([exact_phase_sum(cs, ks, Fraction(-j, n)) for j in range(n)])
        want = np.tile(fiber, 2 * grid.half_bandwidth) * shannon.grid_values(grid)
        got = f.grid_values(grid)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        wrapped = ShiftCombination(shannon, TimeSamples(ks + n, cs, 1500 + n))
        assert np.array_equal(wrapped.grid_values(grid), got)

    def test_time_kernel_base_samples_exact(self, ex3, grid):
        rng = np.random.default_rng(6)
        coeffs = TimeSamples(np.arange(-3, 4),
                             rng.standard_normal(7) + 1j * rng.standard_normal(7), 3)
        f = ShiftCombination(ex3, coeffs)
        samples = f.integer_samples(grid, 64)
        for k in range(-5, 6):
            assert samples.value_at(k) == pytest.approx(coeffs.value_at(k), abs=1e-14)

    def test_time_kernel_base_tail_beyond_kmax(self, hat, grid):
        # samples of the support beyond k_max are the tail, not dropped silently
        k_max, c = 16, 0.5 - 2.0j
        coeffs = TimeSamples(np.array([0, k_max + 3]), np.array([1.0, c]), k_max + 3)
        f = ShiftCombination(hat, coeffs)
        assert f.support == (-1.0, k_max + 4.0)
        samples = f.integer_samples(grid, k_max)
        assert samples.ks.tolist() == [0]
        assert samples.tail_energy == pytest.approx(abs(c) ** 2)


class TestGridSamples:
    @staticmethod
    def band_member():
        """Four pieces on [-1/2, 1/2) with seeded dyadic breakpoints."""
        rng = np.random.default_rng(46)
        cuts = [-0.5, *(np.sort(rng.choice(np.arange(1, 16), 3, replace=False)) / 16 - 0.5), 0.5]
        vals = rng.uniform(0.5, 1.5, 4) * np.exp(2j * np.pi * rng.random(4))
        return PiecewiseConstantSpectrum(list(zip(cuts[:-1], cuts[1:], vals)))

    @pytest.mark.parametrize("name", ["band", "blhat", "ex2"])
    @pytest.mark.parametrize("n, k_max", [(1024, 512), (4096, 512), (4096, 2048)])
    def test_tail_is_the_dropped_energy(self, name, n, k_max):
        # Parseval: the period's samples hold (1/N) sum_j |P_j|^2; the tail is
        # what the kept ones miss (to rounding of that total), and exactly 0
        # when a whole period is kept
        grid = FrequencyGrid(64 if name == "ex2" else 32, n)
        sig = self.band_member() if name == "band" else build_signal(name, grid)
        samples = sig.integer_samples(grid, k_max)
        periodized = grid.fold(sig.grid_values(grid)).sum(axis=0)
        total = np.sum(np.abs(periodized) ** 2) / n
        dropped = total - np.sum(np.abs(samples.values) ** 2)
        if k_max >= n // 2:
            assert samples.tail_energy == 0.0
        else:
            assert samples.tail_energy > 0.0
            assert abs(samples.tail_energy - dropped) <= 1e-12 * total
