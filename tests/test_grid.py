import numpy as np
import pytest

from sisbox import FrequencyGrid, PeriodicSpectrum, SupportMask, TimeSamples
from sisbox.errors import GridMismatchError


class TestFrequencyGrid:
    def test_node_layout(self, grid):
        assert grid.size == 2 * 32 * 1024
        om = grid.omegas
        assert om[0] == -32
        assert om[1] - om[0] == pytest.approx(1.0 / 1024)
        assert om[-1] == pytest.approx(32 - 1.0 / 1024)

    def test_integer_shifts_are_index_shifts(self, grid):
        om = grid.omegas
        n = grid.resolution
        # omega_j + m lands exactly on node j + m*N
        assert om[5] + 3 == om[5 + 3 * n]
        assert om[10 * n] - 7 == om[3 * n]

    @pytest.mark.parametrize("k,n", [(3, 1024), (32, 1000), (0, 1024), (32, -4)])
    def test_rejects_non_power_of_two(self, k, n):
        with pytest.raises(ValueError):
            FrequencyGrid(k, n)

    def test_fold_rows_are_integer_shifts(self, grid):
        om = grid.fold(grid.omegas)
        shifts = grid.shifts()
        for q in (0, 17, 63):
            np.testing.assert_allclose(om[q] - grid.unit_omegas, shifts[q])


class TestPeriodicSpectrum:
    def test_periodicity_is_structural(self, grid):
        vals = np.arange(grid.resolution).astype(complex)
        p = PeriodicSpectrum(vals, grid)
        assert p.value_at(0.5) == p.value_at(1.5) == p.value_at(-3.5)

    def test_rejects_wrong_length(self, grid):
        with pytest.raises(ValueError):
            PeriodicSpectrum(np.zeros(100), grid)

    def test_off_grid_evaluation_rejected(self, grid):
        p = PeriodicSpectrum(np.zeros(grid.resolution), grid)
        with pytest.raises(ValueError):
            p.value_at(0.12345678)


class TestSupportMask:
    def test_measure(self, grid):
        n = grid.resolution
        vals = np.zeros(n, dtype=bool)
        vals[: n // 4] = True
        m = SupportMask(vals, grid)
        assert m.measure == pytest.approx(0.25)

    def test_set_algebra_closed_and_pointwise(self, grid):
        n = grid.resolution
        rng = np.random.default_rng(0)
        a = SupportMask(rng.random(n) < 0.5, grid)
        b = SupportMask(rng.random(n) < 0.5, grid)
        assert np.array_equal(a.union(b).values, a.values | b.values)
        assert np.array_equal(a.intersection(b).values, a.values & b.values)
        assert np.array_equal(a.complement().values, ~a.values)
        assert np.array_equal(a.symmetric_difference(b).values, a.values ^ b.values)
        # de Morgan closure sanity
        lhs = a.union(b).complement()
        rhs = a.complement().intersection(b.complement())
        assert lhs == rhs

    def test_grid_mismatch(self, grid):
        other = FrequencyGrid(16, 512)
        a = SupportMask(np.ones(grid.resolution, dtype=bool), grid)
        b = SupportMask(np.ones(other.resolution, dtype=bool), other)
        with pytest.raises(GridMismatchError):
            a.union(b)

    def test_intervals_roundtrip(self, grid):
        n = grid.resolution
        vals = np.zeros(n, dtype=bool)
        vals[0 : n // 2] = True
        m = SupportMask(vals, grid)
        assert m.intervals() == [(0.0, 0.5)]


class TestTimeSamples:
    def test_sorted_and_lookup(self):
        ts = TimeSamples(np.array([3, -1, 0]), np.array([1j, 2.0, 3.0]), 3)
        assert list(ts.ks) == [-1, 0, 3]
        assert ts.value_at(3) == 1j
        assert ts.value_at(17) == 0.0

    def test_delta(self):
        d = TimeSamples.delta(0)
        assert d.value_at(0) == 1.0
        assert d.l2_norm == 1.0

    def test_from_pairs(self):
        ts = TimeSamples.from_pairs({2: 1.0, -2: 1j})
        assert ts.k_max == 2
        assert ts.value_at(-2) == 1j

    def test_scaled_scales_the_tail_energy(self):
        # the discarded samples scale with the kept ones: energy by |factor|^2
        ts = TimeSamples(np.array([0, 1]), np.array([1.0, 2.0]), 1, tail_energy=1.617e-8)
        assert ts.scaled(0.5).tail_energy == 0.25 * 1.617e-8
        assert ts.scaled(2j).tail_energy == 4 * 1.617e-8

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ValueError):
            TimeSamples(np.array([1, 1]), np.array([1.0, 2.0]), 1)
