import time
import warnings
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
    check_sz99,
    decompose,
    grammian,
    shift_square_sum,
    signals,
)
from sisbox.errors import BandwidthOverflowError, GridMismatchError, PreconditionError
from sisbox.signals import (QUADRATURE_ORDER, PeriodizedProfile, _grid_time_values, _linear_turns, _period_samples,
                            _phase_czt, _turns)
from sisbox.spaces import _continuity_check, _probe_points, _sampling_function
from sisbox.spectral import fibers, periodize


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

    def test_rejects_an_interval_whose_record_holds_no_point(self):
        # [-2^-60, -2^-61): both ends' fractions 1 + a round to 1, so its record holds no point
        with pytest.raises(ValueError, match="empty interval"):
            PiecewiseConstantSpectrum([(-2.0 ** -60, -2.0 ** -61, 1.0)])

    @pytest.mark.parametrize("a, b", [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0)])
    def test_rejects_non_finite_ends(self, a, b):
        # an infinite end used to split the interval into unit pieces forever
        with pytest.raises(ValueError, match="finite ends"):
            PiecewiseConstantSpectrum([(a, b, 1.0)])

    @pytest.mark.parametrize("intervals", [
        [(-0.5, 0.5, 1.0)], [(0.0, 1.0, 1.0)], [(-3.25, -1.0, 1.0), (2.0, 40.5, 1j)], [(-64.0, 63.0, 1.0)],
        [(0.0, 64.0 + 2.0 ** -40, 1.0)], [(-65.5, -64.25, 1.0)], []])
    def test_need_from_the_ends_is_the_pieces_need(self, intervals):
        # max(ceil(b), -floor(a)) over the intervals: the max(m + 1, -m) of their unit pieces
        sig = PiecewiseConstantSpectrum(intervals)
        assert sig.required_half_bandwidth() == \
            PiecewiseConstantSpectrum.from_local_pieces(sig.pieces).required_half_bandwidth()

    def test_a_wide_interval_is_sized_before_it_is_cut_up(self, grid):
        # [0, 1e12) would be 10^12 unit pieces: its need comes from its ends, and a grid
        # refuses it before the first piece is cut
        started = time.monotonic()
        sig = PiecewiseConstantSpectrum([(0.0, 1e12, 1.0)])
        assert sig.required_half_bandwidth() == 2 ** 40
        with pytest.raises(BandwidthOverflowError) as err:
            sig.band_values(grid)
        assert err.value.required_k == 2 ** 40
        assert time.monotonic() - started < 0.1
        assert "pieces" not in vars(sig)

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
        prof = PeriodizedProfile.of(sig, FrequencyGrid(64, 1024))
        assert prof.lengths[0] == pytest.approx(0.5 ** 50)
        assert complex(prof.z[0]) == pytest.approx(0.0)  # 1 - 1 on the overlap

    @pytest.mark.parametrize("name", ["shannon", "ex2"])
    def test_time_values_do_not_cancel_near_zero(self, name):
        # a ramp (exp(2i*pi*width*x) - 1) / (2i*pi*x) lost ~1e-9 at x = 1e-9
        sig = build_signal(name, FrequencyGrid(64, 1024))
        xs = np.array([0.0, 1e-9, -1e-9, 1e-6, 1 / 256, 0.3, -2.75])
        want = exact_synthesis(sig.pieces, [0], [1.0], xs)
        assert np.max(np.abs(sig.time_values(xs) - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", ["ex2", "far-piece"])
    def test_far_sincs_keep_their_relative_accuracy(self, name):
        # np.sinc rounds pi*w*x before the sine: at x ~ 500 that read 5.6e-14 (ex2)
        # and 1.1e-13 (the piece at 60) of the max; w*x reduced mod 2 exactly does not,
        # and a NaN point beside them hides none of their magnitudes
        sig = build_signal("ex2", FrequencyGrid(64, 1024)) if name == "ex2" else FAR_PIECE
        xs, picks = np.linspace(492, 508, 1000), np.r_[0:1000:7, 999]
        want = exact_synthesis(sig.pieces, [0], [1.0], xs[picks])
        assert np.max(np.abs(sig.time_values(xs)[picks] - want)) <= 1e-15 * np.max(np.abs(want))
        got = sig.time_values(np.append(xs, np.nan))
        assert np.isnan(got[-1])
        assert np.max(np.abs(got[picks] - want)) <= 1e-15 * np.max(np.abs(want))

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

    @pytest.mark.parametrize("rows, need", [([], 1), ([31, 32], 1), ([0], 32), ([63], 32), ([30, 33], 2),
                                            ([31, 34], 4), ([40], 16)])
    def test_required_half_bandwidth_holds_the_occupied_rows(self, grid, rows, need):
        folded = np.zeros((2 * grid.half_bandwidth, grid.resolution))
        folded[rows, 1] = 1.0
        sig = GridSpectrum(folded.ravel(), grid)
        assert sig.required_half_bandwidth() == need
        for k in (need, 64):  # placed by the rows' shifts on every K that holds them
            band, placed = sig.band_values(FrequencyGrid(k, grid.resolution))
            assert placed is sig.rows
            assert band == (slice(0, 0) if not rows else slice(min(rows) - 32 + k, max(rows) - 32 + k + 1))
        if need > 1:
            with pytest.raises(BandwidthOverflowError) as err:
                sig.band_values(FrequencyGrid(need // 2, grid.resolution))
            assert (err.value.required_k, err.value.actual_k) == (need, need // 2)

    def test_placed_on_a_wider_grid_it_is_the_spectrum_built_there(self, grid, wide_grid):
        # built at K = 32 and placed at K = 64: the time values, Grammian and certificate
        # of the one built at K = 64, bit for bit
        rng = np.random.default_rng(35)
        rows = rng.standard_normal((5, grid.resolution)) + 1j * rng.standard_normal((5, grid.resolution))
        narrow = GridSpectrum.from_band(slice(29, 34), rows, grid)  # shifts -3 .. 1
        wide = GridSpectrum.from_band(slice(61, 66), rows, wide_grid)
        xs = np.concatenate([np.linspace(-8.0, 8.0, 1001), SYNTHESIS_POINTS])
        np.testing.assert_array_equal(narrow.time_values(xs), wide.time_values(xs))
        np.testing.assert_array_equal(grammian(narrow, wide_grid).values, grammian(wide, wide_grid).values)
        assert check_sz99(narrow, wide_grid, seed=3) == check_sz99(wide, wide_grid, seed=3)

    def test_czt_and_direct_evaluation_agree(self, grid):
        rng = np.random.default_rng(3)
        vals = np.zeros(grid.size, dtype=complex)
        sel = slice(30 * 1024, 34 * 1024)
        vals[sel] = rng.standard_normal(4 * 1024) + 1j * rng.standard_normal(4 * 1024)
        xs_uniform = np.linspace(-3, 3, 200)      # triggers the Bluestein path
        got = GridSpectrum(vals, grid).time_values(xs_uniform)
        want = np.array([GridSpectrum(vals, grid).time_values(np.array([x]))[0] for x in xs_uniform])
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


@pytest.mark.parametrize("shape", [(3, 4), (2, 2)])
@pytest.mark.parametrize("name", ["shannon", "hat", "blhat", "synthesis"])
def test_time_values_keep_the_shape_of_the_points(name, shape, request):
    # an interval spectrum, a time kernel, a grid spectrum and a combination
    f = request.getfixturevalue("shannon" if name == "synthesis" else name)
    if name == "synthesis":
        f = ShiftCombination(f, random_coefficients(41))
    xs = np.linspace(-2, 2, np.prod(shape))
    got = f.time_values(xs.reshape(shape))
    assert got.shape == shape
    assert np.array_equal(got.ravel(), f.time_values(xs))


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


# past the split's overflow at 1.34e300, and integers past 2^52
HUGE_POINTS = [1.5e300, -1.5e300, 1.7e308, -1.7e308, 2.0 ** 53 + 2, 1e16 + 2]
# linspace(-8, 8, 1000) with point 500 moved by 5e-13: still uniform, but off x0 + h*j there
MOVED_POINTS = np.linspace(-8, 8, 1000)
MOVED_POINTS[500] += 5e-13


class TestChirpTransform:
    @pytest.mark.parametrize("size, count, rate", [
        (2049, 65536, -2.0 ** -20),          # TimeKernel spectrum: M = 2048 at (32, 1024)
        (131072, 1000, (16 / 999) / 1024),   # uniform evaluation: (64, 1024), 1000 points
        (40000, 33000, (16 / 999) / 4096),   # both past one block: inputs cut to the outputs'
        (2049, 50001, -2.0 ** -22),          # four output blocks, the last one partial
        (2049, 262139, -2.0 ** -22),         # 16 blocks of 16,384 one rotation apart, the last partial
        (2049, 32768, -(1.7 / 2048) / 1024),  # two blocks, batched: a support of length 1.7
    ])
    def test_matches_exact_phase_sum(self, size, count, rate):
        rng = np.random.default_rng(11)
        coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        got = _phase_czt(coeffs, rate, count)
        ms = [m for m in (0, 1, count // 3, count // 2 + 1, count - 1, 16384, 16383 * 3) if m < count]
        n = np.arange(size)
        want = np.array([exact_phase_sum(coeffs, n * m, rate) for m in ms])
        assert np.max(np.abs(got[ms] - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("size, count, rate, bins", [
        (2049, 262144, -2.0 ** -22, -72),           # hat's half spectrum at (64, 4096): FFT length 18,432
        (2049, 65536, -2.0 ** -20, -288),           # at (32, 1024)
        (2049, 50001, -2.0 ** -22, None),           # blocks of 12,501: -12,501 * 14,580 / 2^22 bins
        (2049, 32768, -(1.7 / 2048) / 1024, None),  # a support of length 1.7: -244.8 bins
        (2049, 16384, -2.0 ** -21, None),           # one output block: nothing to rotate
    ])
    def test_whole_bin_block_offsets_rotate_one_spectrum(self, size, count, rate, bins):
        # output block q's input spectrum is the first's rotated by q * rate * bo * size bins,
        # taken only where that is exactly a whole number and there are blocks to rotate
        shift, kernel = signals._chirp_filter(rate, size, count)[2:5:2]
        assert shift == (None if bins is None else bins % kernel.size)

    def test_cached_filter_changes_no_bit(self):
        # the chirp, its kernel's FFT and the block phases are kept per transform shape, read-only
        coeffs = np.random.default_rng(3).standard_normal(2049) * (1 + 0.5j)
        signals._chirp_filter.cache_clear()
        cold = _phase_czt(coeffs, -2.0 ** -21, 32768)
        warm = _phase_czt(coeffs, -2.0 ** -21, 32768)
        assert signals._chirp_filter.cache_info().hits == 1
        np.testing.assert_array_equal(cold, warm)
        for cached in signals._chirp_filter(-2.0 ** -21, 2049, 32768)[3:]:  # two output blocks: the chirp alone
            assert not cached.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 0

    @pytest.mark.parametrize("rate", [
        -2.0 ** -21, -2.0 ** -23,              # chirps of the quadrature at (32, 1024), (64, 4096)
        2.0 ** -10, 2.0 ** -12,                # quadrature offset -a/N for a = -1
        (16 / 999) / 2048, (16 / 999) / 8192,  # chirps of linspace(-8, 8, 1000)
        (16 / 999) / 1024,                     # its row and column phases at N = 1024
    ])
    def test_product_turns_matches_rational_reduction(self, rate):
        # Dekker's split reduces rate * n mod 1 to rounding for every n, up to
        # 2^41 - 1: squares k^2 (the chirp), and q * bo * bi of hat's spectrum
        # at (64, 4096), 32 output blocks of 16,384 against 2,049 inputs
        rng = np.random.default_rng(13)
        ns = np.concatenate([rng.integers(0, 2 ** 41, 300), np.arange(20) ** 2,
                             np.array([16383, 65535, 2 ** 20 - 1]) ** 2,
                             [31 * 16384 * 2048, 32 * 16384 * 2049, 2 ** 41 - 1]])
        got = signals._product_turns(rate, ns.astype(float))
        for n, t in zip(ns, got):
            err = Fraction(float(t)) - Fraction(rate) * int(n)
            assert abs(err - round(err)) <= 4.5e-16

    @pytest.mark.parametrize("rate", [2.0 ** -10, 0.75, -2.0 ** -61, (16 / 999) / 1024, 0.3, 60.3])
    def test_product_turns_past_the_split_overflow(self, rate):
        # v * (2^27 + 1) overflows past 1.34e300; a factor of at least 2^52 is an
        # integer, so the other counts mod 1 only; both orders of the factors
        for x in HUGE_POINTS:
            for got in (signals._product_turns(rate, x), signals._product_turns(x, rate)):
                err = Fraction(float(got)) - Fraction(rate) * Fraction(x)
                assert abs(err - round(err)) <= 4.5e-16

    @pytest.mark.parametrize("m, c", [(60, 2.0 ** -61), (0, 0.25), (-3, 0.3), (59, 0.7), (7, 1.0)])
    def test_shifted_turns_past_the_split_overflow(self, m, c):
        got = signals._shifted_turns(m, c, np.array(HUGE_POINTS))
        for x, t in zip(HUGE_POINTS, got):
            err = Fraction(float(t)) - (m + Fraction(c)) * Fraction(x)
            assert abs(err - round(err)) <= 4.5e-16

    @pytest.mark.parametrize("name", ["shannon", "ex2", "blhat", "synthesis"])
    def test_time_values_past_the_split_overflow(self, name, ex2, request):
        f = ShiftCombination(ex2, random_coefficients(41)) if name == "synthesis" else (
            ex2 if name == "ex2" else request.getfixturevalue(name))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(f.time_values(HUGE_POINTS)))
            assert np.all(np.isfinite(f.time_values([-1e308, 0.0, 1e308])))
            # a NaN point beside them hides no huge factor from the split
            assert np.isfinite(f.time_values([np.nan, 1.5e300, 0.5])).tolist() == [False, True, True]

    def test_uniform_evaluation_keeps_the_points(self):
        # the first difference of linspace(-8, 8, 1000) is off by 3.6e-16; a
        # spacing taken from it drifts to 1.7e-10 relative at the far end
        grid = FrequencyGrid(64, 1024)
        rng = np.random.default_rng(12)
        vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        xs = np.linspace(-8, 8, 1000)
        got = GridSpectrum(vals, grid).time_values(xs)
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
        got = GridSpectrum(vals, grid).time_values(xs)
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
        GridSpectrum(vals, grid).time_values(np.linspace(-8, 8, 4097))
        assert czt_sizes == []

    def test_repeated_first_point_sums_directly(self, czt_sizes, blhat):
        # a zero first difference names no spacing, however many points follow
        xs = np.concatenate([[0.3], np.linspace(0.3, 8, 4096)])
        got = blhat.time_values(xs)
        assert czt_sizes == []
        want = blhat.time_values(xs[1:])
        assert np.max(np.abs(got[1:] - want)) <= 1e-14 * np.max(np.abs(want))

    @staticmethod
    def grid_error(vals, grid, xs, picks=None):
        """Relative error of the grid time values at xs[picks] (by default
        every 409th; x = 0 left out: the reference's cell kernel divides by
        x) against the exact-phase sum."""
        got = GridSpectrum(vals, grid).time_values(xs)
        picks = np.flatnonzero(xs != 0)[::409] if picks is None else picks
        nz = np.flatnonzero(vals)
        nodes = nz - grid.half_bandwidth * grid.resolution
        want = cell_kernel(grid, xs[picks]) * np.array(
            [exact_phase_sum(vals[nz], nodes, Fraction(x) / grid.resolution) for x in xs[picks]])
        return np.max(np.abs(got[picks] - want)) / np.max(np.abs(want))

    @staticmethod
    def scattered(grid, counts, seed):
        """Random values at counts[b] random nodes of each block b of
        _CZT_BLOCK nodes from node 1,000 of the grid."""
        rng = np.random.default_rng(seed)
        vals = np.zeros(grid.size, dtype=complex)
        for b, count in enumerate(counts):
            nodes = 1000 + b * signals._CZT_BLOCK + rng.choice(signals._CZT_BLOCK, count, replace=False)
            vals[nodes] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        vals[1000] = 1.0  # the span starts at a block boundary
        return vals

    def test_sparse_blocks_leave_the_transform(self, czt_sizes):
        # theorem 2's h for ex2 at (64, 4096): 8,239 nonzero nodes over a
        # 245,761-node span, 7,680 / 480 / 30 in its first three blocks and 1-4
        # in each of the other 13, whose nodes are summed directly
        grid = FrequencyGrid(64, 4096)
        h = _sampling_function(fibers(build_signal("ex2", grid), grid))
        xs = np.linspace(-8, 8, 4097)
        assert self.grid_error(h.values, grid, xs) <= 1e-14
        assert len(czt_sizes) == 1 and czt_sizes[0] <= 3 * signals._CZT_BLOCK

    def test_dense_block_between_sparse_ones(self, czt_sizes):
        # the transform runs over block 2 alone, at one exact phase from the first node
        grid = FrequencyGrid(64, 4096)
        vals = self.scattered(grid, [3, 0, 3000, 1, 0, 0, 2], 31)
        assert self.grid_error(vals, grid, np.linspace(-8, 8, 4097)) <= 1e-14
        assert len(czt_sizes) == 1 and czt_sizes[0] <= signals._CZT_BLOCK

    def test_every_block_sparse_sums_directly(self, czt_sizes):
        # 8 blocks of 18-19 nodes: 151-152 nodes times 4,097 points exceeds 4
        # times the span plus points, but no block's 19 do its length plus points
        grid = FrequencyGrid(64, 4096)
        vals = self.scattered(grid, [18] + [19] * 7, 32)
        assert self.grid_error(vals, grid, np.linspace(-8, 8, 4097)) <= 1e-14
        assert czt_sizes == []

    @pytest.mark.parametrize("points", [
        np.linspace(-8, 8, 1000), np.linspace(492, 508, 1000),
        np.sort(np.random.default_rng(62).uniform(492, 508, 1000)), MOVED_POINTS],
        ids=["residuals", "far", "scattered", "moved"])
    def test_off_chirp_nodes_match_exact_phase_sum(self, points, czt_sizes):
        # 60 random nodes of (64, 1024), all off the chirp: exact phases at the
        # points as given, with the residuals of the uniform ones from x0 + h*j
        # (a once-rounded product read 9e-12 at x ~ 500, x0 + h*j 1.2e-10 at the move)
        grid = FrequencyGrid(64, 1024)
        rng = np.random.default_rng(61)
        vals = np.zeros(grid.size, dtype=complex)
        vals[rng.choice(grid.size, 60, replace=False)] = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        picks = np.r_[0:points.size:37, 499:502, points.size - 1]
        assert self.grid_error(vals, grid, points, picks) <= 1e-14
        assert czt_sizes == []

    def test_node_scan_keeps_the_nonzero_complex_nodes(self):
        # the scan reads values != 0, which gives np.flatnonzero's indices of the complex
        # nodes: -0.0 in either part is skipped; a purely imaginary, NaN or inf node is kept
        grid, xs = FrequencyGrid(32, 1024), np.linspace(-8, 8, 4097)
        vals = np.zeros(grid.size, dtype=complex)
        vals[[40, 41, 700, 2000]] = [2j, -0.5j, 1.0, 1 - 1j]
        signed = vals.copy()
        signed[[3, 9, 1000]] = [complex(-0.0, 0.0), complex(-0.0, -0.0), complex(0.0, -0.0)]
        np.testing.assert_array_equal(np.flatnonzero(signed != 0), [40, 41, 700, 2000])
        np.testing.assert_array_equal(GridSpectrum(signed, grid).time_values(xs),
                                      GridSpectrum(vals, grid).time_values(xs))
        assert self.grid_error(vals, grid, xs) <= 1e-14
        for bad in (np.nan, np.inf, complex(0.0, -np.inf), complex(np.nan, 0.0)):
            odd = signed.copy()
            odd[1500] = bad
            np.testing.assert_array_equal(np.flatnonzero(odd != 0), np.flatnonzero(odd))
            with pytest.raises(PreconditionError, match="1 non-finite"):
                GridSpectrum(odd, grid).time_values(xs)

    @pytest.mark.parametrize("name", ["shannon", "blhat"])
    def test_one_block_is_one_transform_over_the_span(self, name):
        # every node in one block: the transform over the whole span, bit for bit
        grid = FrequencyGrid(64, 4096)
        sig = build_signal(name, grid)
        vals = sig.grid_values(grid)
        xs = np.linspace(-8, 8, 4097)
        n, nz = grid.resolution, np.flatnonzero(vals)
        first, span = nz[0], nz[-1] + 1 - nz[0]
        twist = np.outer(*signals._linear_turns((xs[0] / n,), -(-span // n), n)).ravel()[:span]
        w = first / n - grid.half_bandwidth
        kern = grid.step * np.sinc(grid.step * xs) * signals._turns(
            signals._product_turns(w, xs) + grid.step / 2 * xs)
        want = _phase_czt(vals[first:first + span] * twist, (xs[-1] - xs[0]) / (xs.size - 1) / n, xs.size)
        np.testing.assert_array_equal(_grid_time_values(*sig.band_values(grid), grid, xs), want * kern)

    def test_direct_route_does_not_cache_the_grid_nodes(self):
        grid = FrequencyGrid(32, 1024)
        vals = np.zeros(grid.size, dtype=complex)
        vals[grid.size // 2:grid.size // 2 + 10] = 1.0
        GridSpectrum(vals, grid).time_values(np.array([-3.0, 0.2, 0.25, 7.5]))
        assert "omegas" not in grid.__dict__


def full_transform(kern, grid):
    """A time kernel's trapezoid spectrum as one chirp transform over all 2KN nodes."""
    (a, b), (xs, w) = kern.support, kern._trapezoid()
    k, n = grid.half_bandwidth, grid.resolution
    coeffs = w * np.asarray(kern.evaluator(xs), dtype=complex) * _turns(k * xs)
    out = _phase_czt(coeffs, -(b - a) / QUADRATURE_ORDER / n, grid.size)
    return out * np.outer(*_linear_turns((-a / n,), 2 * k, n)).ravel()


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

    @pytest.mark.parametrize("kn", [(32, 1024), (64, 4096)])
    @pytest.mark.parametrize("name", ["hat", "ex3"])
    def test_real_kernel_spectrum_is_the_mirrored_half(self, name, kn):
        # omega in [-K, 0) transformed and (0, K) its conjugate mirror: Hermitian bit for bit,
        # and within 1e-15 of the peak of one transform over all 2KN nodes
        grid = FrequencyGrid(*kn)
        kern = build_signal(name, grid)
        vals = kern.grid_values(grid)
        np.testing.assert_array_equal(vals[1:], np.conj(vals[:0:-1]))
        assert np.max(np.abs(vals - full_transform(kern, grid))) <= 1e-15 * np.max(np.abs(vals))

    def test_kernel_off_whole_bins_keeps_the_batched_transform(self, grid):
        # a support of length 1.7 puts the output blocks 1.7 * 144 bins apart, no whole
        # number: one batched FFT, as before the rotation; from x = 0 its row and column
        # phases are exactly 1, so the spectrum is the transform's, bit for bit
        k, n = grid.half_bandwidth, grid.resolution
        kern = TimeKernel((0.0, 1.7), lambda x: np.sin(np.pi * x / 1.7) * (1 + 0.3 * x), integrable_spectrum=True)
        xs, w = kern._trapezoid()
        rate = -1.7 / QUADRATURE_ORDER / n
        coeffs = w * np.asarray(kern.evaluator(xs), dtype=complex) * _turns(k * xs)
        assert signals._chirp_filter(rate, xs.size, k * n)[2] is None
        np.testing.assert_array_equal(kern.grid_values(grid)[:k * n], _phase_czt(coeffs, rate, k * n))

    def test_complex_kernel_takes_the_full_transform(self, hat, grid):
        vals, got = hat.grid_values(grid), hat.scaled(1j).grid_values(grid)
        assert np.max(np.abs(got - 1j * vals)) <= 1e-15 * np.max(np.abs(vals))

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

    def test_tail_scales_with_the_coefficients(self, hat, grid):
        # no coefficients is the zero function, with no tail; otherwise
        # (sum |c_k|)^2 times the base's, as |C| <= sum |c_k|
        empty = ShiftCombination(hat, TimeSamples.from_pairs({}))
        got = shift_square_sum(empty, _probe_points(0), grid)
        assert got.route == "parseval"
        two = ShiftCombination(hat, TimeSamples.from_pairs({0: 2.0}))
        assert two.spectral_tail_energy(grid) == pytest.approx(hat.scaled(2.0).spectral_tail_energy(grid),
                                                               rel=1e-6)
        three = ShiftCombination(hat, TimeSamples.from_pairs({-3: 1.0, 5: -2.0j}))
        assert three.spectral_tail_energy(grid) == pytest.approx(9 * hat.spectral_tail_energy(grid), rel=1e-15)

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

    def test_grid_base_at_uniform_points_takes_one_call_per_shift(self, blhat, monkeypatch):
        # each shift's points x - k are uniform, so each takes the chirp route: 1,000
        # points a call, not every (point, shift) difference at once (17,000)
        coeffs, xs = random_coefficients(47), np.linspace(-8.0, 8.0, 1000)
        want = signals.Signal.shift_sum(blhat, coeffs, xs)
        sizes, time_values = [], GridSpectrum.time_values
        monkeypatch.setattr(GridSpectrum, "time_values",
                            lambda self, x: sizes.append(np.size(x)) or time_values(self, x))
        got = ShiftCombination(blhat, coeffs).time_values(xs)
        assert sizes == [1000] * 17
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        np.testing.assert_array_equal(blhat.shift_sum(TimeSamples.from_pairs({}), xs), np.zeros(1000))

    def test_grid_base_elsewhere_keeps_the_generic_sum(self, blhat):
        # at points that are not uniform the sum is the generic one, bit for bit
        coeffs = random_coefficients(47)
        got = ShiftCombination(blhat, coeffs).time_values(SYNTHESIS_POINTS)
        np.testing.assert_array_equal(got, signals.Signal.shift_sum(blhat, coeffs, SYNTHESIS_POINTS))

    @pytest.mark.parametrize("name", ["ex2", "hat", "blhat"])
    def test_blocks_do_not_change_the_sum(self, name, request, monkeypatch):
        # one block, then one point (factored sum's phase table; poles land in every block)
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
        # a support is sampled whole: k_max cuts none of it, so no tail is left
        k_max, c = 16, 0.5 - 2.0j
        coeffs = TimeSamples(np.array([0, k_max + 3]), np.array([1.0, c]), k_max + 3)
        f = ShiftCombination(hat, coeffs)
        assert f.support == (-1.0, k_max + 4.0)
        samples = f.integer_samples(grid, k_max)
        assert samples.ks.tolist() == [0, k_max + 3]
        assert samples.values.tolist() == [1.0, c]
        assert samples.tail_energy == 0.0


    @pytest.mark.parametrize("n", [1024, 4096])
    def test_spectral_base_samples_carry_the_coefficients(self, shannon, n):
        # shannon's period samples are one exact 1 at k = 0: its member is sampled
        # at its 17 coefficients, not at the period's 1,024 or 4,096 (~1e-16 noise)
        coeffs = random_coefficients(44)
        samples = ShiftCombination(shannon, coeffs).integer_samples(FrequencyGrid(32, n), 512)
        assert samples.ks.tolist() == coeffs.ks.tolist()
        assert np.array_equal(samples.values, coeffs.values)
        assert samples.tail_energy == 0.0

    def test_nested_combination_samples_keep_their_gaps(self, shannon):
        # the base's own samples sit at k = 0 and 2, not at consecutive k: each
        # pair of nonzeros lands at its own sum of indices, as on the grid route
        grid = FrequencyGrid(32, 1024)
        base = ShiftCombination(shannon, TimeSamples.from_pairs({0: 1.0, 2: 0.5}))
        f = ShiftCombination(base, random_coefficients(44))
        want = _period_samples(np.fft.ifft(periodize(f, grid).values), 512)
        keep = np.abs(want.values) > 1e-12
        got = f.integer_samples(grid, 512)
        assert got.ks.tolist() == want.ks[keep].tolist() == list(range(-8, 11))
        assert np.max(np.abs(got.values - want.values[keep])) <= 1e-15 * np.max(np.abs(want.values))

    def test_fibers_read_the_combination_samples(self, shannon, grid):
        # one rule samples a combination: its Fibers record holds the 17 samples
        f = ShiftCombination(shannon, random_coefficients(44))
        fib, want = fibers(f, grid), f.integer_samples(grid, 512)
        assert fib.samples.ks.tolist() == want.ks.tolist() == list(range(-8, 9))
        assert np.array_equal(fib.samples.values, want.values)

    @pytest.mark.parametrize("k_max", [512, 2048])
    def test_spectral_base_samples_match_the_grid_route(self, k_max, monkeypatch):
        # from the coefficients and the base's period samples, never the member's
        # grid spectrum: ex2's samples, and the tail that k_max < N/2 leaves
        grid = FrequencyGrid(64, 4096)
        f = ShiftCombination(build_signal("ex2", grid), random_coefficients(44))
        want = _period_samples(np.fft.ifft(periodize(f, grid).values), k_max)
        monkeypatch.setattr(ShiftCombination, "grid_values", lambda *args: pytest.fail("grid spectrum built"))
        got = f.integer_samples(grid, k_max)
        assert got.ks.tolist() == want.ks.tolist()
        assert np.max(np.abs(got.values - want.values)) <= 1e-15 * np.max(np.abs(want.values))
        assert abs(got.tail_energy - want.tail_energy) <= 1e-15 * want.tail_energy
        assert (want.tail_energy > 0) == (k_max < grid.resolution // 2)


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


FALSIFIER_POINTS = np.unique(np.add.outer(np.arange(-8, 8), np.linspace(0, 1, 257)))
FAR_PIECE = PiecewiseConstantSpectrum.from_local_pieces([(60, 0.25, 0.625, 1.0 - 2.0j)])


class TestUniformTable:
    """Interval spectra at uniform points: phases from one exact phase per row
    and per column of the points (``_phase_table``), against the exact-phase
    sums and against the per-pair route at the same floats.  The points of
    ``linspace(-8, 8, 1000)`` carry residuals from x0 + h*j; the falsifier's
    dyadic points carry none."""

    @pytest.fixture
    def tables(self, monkeypatch):
        # the table by rows at any size (a row a block); records each one built so
        monkeypatch.setattr(signals, "_TABLE_BLOCK", 0)
        built, plain = [], signals._linear_turns
        monkeypatch.setattr(signals, "_linear_turns", lambda *args: built.append(args) or plain(*args))
        return built

    @staticmethod
    def signal(name, ex2):
        if name == "synthesis":
            return ShiftCombination(ex2, random_coefficients(41)), ex2.pieces
        base = ex2 if name == "ex2" else FAR_PIECE
        return base, base.pieces

    @pytest.mark.parametrize("points", [np.linspace(-8, 8, 1000), FALSIFIER_POINTS, np.linspace(492, 508, 1000)],
                             ids=["residuals", "dyadic", "far"])
    @pytest.mark.parametrize("name", ["ex2", "far-piece", "synthesis"])
    def test_matches_exact_phase_sums(self, name, points, ex2, tables):
        f, pieces = self.signal(name, ex2)
        got = f.time_values(points)
        assert len(tables) == 1
        picks = np.r_[0:points.size:29, points.size - 1]
        ks, cs = (f.coefficients.ks, f.coefficients.values) if isinstance(f, ShiftCombination) else ([0], [1.0])
        want = exact_synthesis(pieces, ks, cs, points[picks])
        assert np.max(np.abs(got[picks] - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("points", [np.linspace(-8, 8, 1000), FALSIFIER_POINTS, np.linspace(492, 508, 1000)],
                             ids=["residuals", "dyadic", "far"])
    @pytest.mark.parametrize("name", ["ex2", "far-piece", "synthesis"])
    def test_matches_the_per_pair_route(self, name, points, ex2, tables, monkeypatch):
        # one interior point moved by one ulp is one residual more for the table
        f, _ = self.signal(name, ex2)
        moved = points.copy()
        moved[points.size // 2 + 1] = np.nextafter(moved[points.size // 2 + 1], np.inf)
        for xs in (points, moved):
            table = f.time_values(xs)
            monkeypatch.setattr(signals, "_TABLE_BLOCK", 1 << 40)
            pairs = f.time_values(xs)
            monkeypatch.setattr(signals, "_TABLE_BLOCK", 0)
            assert np.max(np.abs(table - pairs)) <= 2e-15 * np.max(np.abs(pairs))
        assert len(tables) == 2

    def test_member_takes_a_phase_per_row_and_column(self, ex2, monkeypatch):
        # 1,000 points against 61 pieces (122 ends and 61 centres) and 17 coefficients;
        # one exact phase per (point, frequency) would be 183,000
        seen, plain = [], signals._turns
        monkeypatch.setattr(signals, "_turns", lambda t: seen.append(np.size(t)) or plain(t))
        ShiftCombination(ex2, random_coefficients(41)).time_values(np.linspace(-8, 8, 1000))
        assert sum(seen) < 50_000

    def test_points_off_uniform_take_the_per_pair_route(self, ex2, tables):
        xs = np.concatenate([np.linspace(-8, 0, 500), np.linspace(0.5, 8, 500)])
        f = ShiftCombination(ex2, random_coefficients(41))
        want = exact_synthesis(ex2.pieces, f.coefficients.ks, f.coefficients.values, xs[::50])
        got = f.time_values(xs)
        assert not tables
        assert np.max(np.abs(got[::50] - want)) <= 1e-14 * np.max(np.abs(want))
