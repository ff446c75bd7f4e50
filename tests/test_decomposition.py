from dataclasses import replace

import numpy as np
import pytest

from conftest import random_coefficients
from sisbox import (
    GridSpectrum,
    PeriodicPartition,
    PiecewiseConstantSpectrum,
    TimeSamples,
    build_space,
    check_determining_set,
    decompose,
    lattice_rescale,
    project,
    reconstruct,
    span_sum_check,
    spectral_norm,
    synthesize,
    verify_direct_sum,
    zak_time_fiber,
)
from sisbox.errors import NotInSpaceError, PartitionError
from sisbox.spaces import KERNEL_TOL
from sisbox.spectral import integer_samples


def half_band_low():
    # member of the shannon space with spectrum chi_[0, 1/2)
    return PiecewiseConstantSpectrum([(0.0, 0.5, 1.0)])


def half_band_high():
    return PiecewiseConstantSpectrum([(-0.5, 0.0, 1.0)])


class TestDeterminingSet:
    def test_generator_alone_determines(self, shannon_space, shannon, grid):
        rep = check_determining_set(shannon_space, [shannon])
        assert rep.passed
        sym, kernel = rep.checks
        assert sym.value == 0.0
        # multiplier is the reciprocal Zak fiber on the support set
        np.testing.assert_allclose(rep.multipliers[0].values, 1.0, atol=1e-12)
        assert kernel.value < 1e-9

    def test_single_half_band_fails(self, shannon_space):
        rep = check_determining_set(shannon_space, [half_band_low()])
        assert not rep.passed
        assert rep.checks[0].value == pytest.approx(0.5, abs=1.0 / 1024)

    def test_half_band_pair_passes(self, shannon_space):
        rep = check_determining_set(shannon_space, [half_band_low(), half_band_high()])
        assert rep.passed
        assert rep.checks[1].value < 1e-9
        # disjoint masks partition the union exactly
        overlap = rep.disjoint_masks[0].intersection(rep.disjoint_masks[1])
        assert overlap.measure == 0.0
        union = rep.disjoint_masks[0].union(rep.disjoint_masks[1])
        assert union == rep.union_mask

    def test_non_member_rejected(self, shannon_space):
        outside = PiecewiseConstantSpectrum([(1.5, 2.0, 1.0)])
        with pytest.raises(NotInSpaceError):
            check_determining_set(shannon_space, [half_band_low(), outside])

    def test_verdict_invariant_under_multipliers(self, shannon_space, grid):
        # replacing f_i by an invertible periodic multiple changes nothing
        f1, f2 = half_band_low(), half_band_high()
        m = 1.5 + np.sin(2 * np.pi * grid.unit_omegas)  # bounded in [0.5, 2.5]
        tiled = np.tile(m, 2 * grid.half_bandwidth)
        g1 = GridSpectrum(f1.grid_values(grid) * tiled, grid)
        g2 = GridSpectrum(f2.grid_values(grid) * (2.0 - tiled / 10), grid)
        base = check_determining_set(shannon_space, [f1, f2])
        modified = check_determining_set(shannon_space, [g1, g2])
        assert modified.passed == base.passed
        for a, b in zip(base.member_masks, modified.member_masks):
            assert a == b
        assert modified.checks[1].value < 1e-9

    def test_expansion_is_order_independent(self, shannon_space, grid):
        # the disjoint masks depend on the order, the recovered kernel does not
        f1, f2 = half_band_low(), half_band_high()
        r12 = check_determining_set(shannon_space, [f1, f2])
        r21 = check_determining_set(shannon_space, [f2, f1])
        assert r12.passed and r21.passed
        assert r12.checks[1].value < 1e-9 and r21.checks[1].value < 1e-9
        assert r12.disjoint_masks[0] != r21.disjoint_masks[0]

    def test_span_sum_on_kernel(self, shannon_space, shannon):
        rep = check_determining_set(shannon_space, [half_band_low(), half_band_high()])
        check = span_sum_check(shannon_space, rep, [half_band_low(), half_band_high()],
                               shannon)
        assert check.value < 1e-9

    def test_span_sum_on_random_member(self, shannon_space):
        rep = check_determining_set(shannon_space, [half_band_low(), half_band_high()])
        probe = synthesize(shannon_space, random_coefficients(55))
        check = span_sum_check(shannon_space, rep,
                               [half_band_low(), half_band_high()], probe)
        assert check.value < 1e-6

    def test_span_sum_rejects_non_member(self, shannon_space):
        rep = check_determining_set(shannon_space, [half_band_low(), half_band_high()])
        outside = PiecewiseConstantSpectrum([(2.0, 2.5, 1.0)])
        with pytest.raises(NotInSpaceError):
            span_sum_check(shannon_space, rep, [half_band_low(), half_band_high()], outside)


class TestDecompose:
    def test_trivial_partition_returns_the_space(self, shannon_space, grid):
        part = PeriodicPartition(masks=[shannon_space.mask])
        comps = decompose(shannon_space, part)
        assert len(comps) == 1
        np.testing.assert_allclose(
            comps[0].sampling_spectrum.grid_values(grid),
            shannon_space.sampling_spectrum.grid_values(grid), atol=1e-12)

    def test_half_band_split(self, shannon_space, grid):
        part = PeriodicPartition.from_intervals([[[0.0, 0.5]], [[0.5, 1.0]]], grid)
        comps = decompose(shannon_space, part)
        assert len(comps) == 2
        assert all(c.certified for c in comps)
        assert [c.mask.measure for c in comps] == [0.5, 0.5]
        # kernels are the masked parent kernel and sum back to it
        total = sum(c.sampling_spectrum.grid_values(grid) for c in comps)
        parent = shannon_space.sampling_spectrum.grid_values(grid)
        assert float(np.max(np.abs(total - parent))) < 1e-9

    def test_components_keep_the_seed(self, shannon, grid):
        space = build_space(shannon, grid, seed=7)
        part = PeriodicPartition.from_intervals([[[0.0, 0.5]], [[0.5, 1.0]]], grid)
        assert [c.seed for c in decompose(space, part)] == [7, 7]

    @pytest.mark.parametrize("space_name", ["hat_space", "ex3_space"])
    def test_time_kernel_components_are_the_masked_kernel(self, space_name, grid, request):
        # a component's Zak fiber is the masked parent fiber (Z of M psi is
        # M Z_psi for a 1-periodic M), not one derived from its spectrum
        # truncated at K, which deviated by 3.3e-3 (hat) and 1.6e-2 (ex3)
        space = request.getfixturevalue(space_name)
        part = PeriodicPartition.from_intervals([[[0.0, 0.5]], [[0.5, 1.0]]], grid)
        comps = decompose(space, part)
        parent = space.sampling_spectrum.grid_values(grid)
        for comp in comps:
            masked = np.where(np.tile(comp.mask.values, 2 * grid.half_bandwidth), parent, 0.0)
            gap = np.max(np.abs(comp.sampling_spectrum.grid_values(grid) - masked))
            assert gap <= KERNEL_TOL * np.max(np.abs(parent))
        assert [c.mask.measure for c in comps] == [0.5, 0.5]

    @pytest.mark.parametrize("space_name", ["hat_space", "ex3_space"])
    def test_time_kernel_components_split_again(self, space_name, grid, request):
        # a component keeps the fiber M * Z_parent it was certified with; one
        # rebuilt from its K-truncated generator was off by 6.3e-3 (hat) on the
        # mask, and the quarters of the first half were refused
        space = request.getfixturevalue(space_name)
        halves = PeriodicPartition.from_intervals([[[0.0, 0.5]], [[0.5, 1.0]]], grid)
        half = decompose(space, halves)[0]
        quarters = PeriodicPartition.from_intervals([[[0.0, 0.25]], [[0.25, 0.5]]], grid)
        subs = decompose(half, quarters)
        kernel = half.sampling_spectrum.grid_values(grid)
        for sub in subs:
            masked = np.where(np.tile(sub.mask.values, 2 * grid.half_bandwidth), kernel, 0.0)
            gap = np.max(np.abs(sub.sampling_spectrum.grid_values(grid) - masked))
            assert gap <= KERNEL_TOL * np.max(np.abs(kernel))
            assert np.array_equal(sub.zak.values, np.where(sub.mask.values, space.zak.values, 0.0))
        assert [s.mask.measure for s in subs] == [0.25, 0.25]

    def test_empty_component_dropped(self, shannon_space, grid):
        # second group sits strictly between two grid nodes: empty mask
        part = PeriodicPartition.from_intervals(
            [[[0.0, 1.0]], [[0.2501, 0.2502]]], grid)
        assert part.masks[1].is_empty
        comps = decompose(shannon_space, part)
        assert len(comps) == 1

    def test_overlapping_partition_rejected(self, shannon_space, grid):
        part = PeriodicPartition.from_intervals([[[0.0, 0.6]], [[0.5, 1.0]]], grid)
        with pytest.raises(PartitionError) as err:
            decompose(shannon_space, part)
        assert err.value.measure == pytest.approx(0.1, abs=2.0 / 1024)

    def test_undercovering_partition_rejected(self, shannon_space, grid):
        part = PeriodicPartition.from_intervals([[[0.0, 0.5]], [[0.5, 0.75]]], grid)
        with pytest.raises(PartitionError):
            decompose(shannon_space, part)

    def test_empty_partition_and_family_rejected(self, shannon_space):
        # an empty family of masks: a typed refusal, not an IndexError or TypeError
        with pytest.raises(PartitionError):
            PeriodicPartition([])
        with pytest.raises(PartitionError):
            check_determining_set(shannon_space, [])


class TestConstructionChecks:
    # every residual a construction computes is a check it is held to

    def test_perturbed_kernel_is_not_determined(self, shannon_space):
        # the node sets still agree; only the recovered kernel misses, by 1e-6
        space = replace(shannon_space,
                        sampling_spectrum=shannon_space.sampling_spectrum.scaled(1 + 1e-6))
        rep = check_determining_set(space, [half_band_low(), half_band_high()])
        assert not rep.passed
        assert [c.name for c in rep.checks if not c.passed] == ["kernel_residual"]
        assert rep.checks[1].value == pytest.approx(1e-6, rel=1e-6)
        assert rep.checks[1].tolerance == KERNEL_TOL * (1 + 1e-6)

    def test_perturbed_kernel_is_not_decomposed(self, shannon_space, grid):
        space = replace(shannon_space,
                        sampling_spectrum=shannon_space.sampling_spectrum.scaled(1 + 1e-6))
        part = PeriodicPartition.from_intervals([[[0.0, 0.5]], [[0.5, 1.0]]], grid)
        with pytest.raises(PartitionError, match="deviate from the masked kernel by 1e-06"):
            decompose(space, part)

    def test_symmetric_difference_names_its_intervals(self, shannon_space):
        rep = check_determining_set(
            shannon_space, [half_band_high(), PiecewiseConstantSpectrum([(1.0 / 1024, 0.5, 1.0)])])
        sym, kernel = rep.checks
        assert not sym.passed and sym.value == 1.0 / 1024
        assert sym.detail == "1 interval(s) of omega in [0, 1), from [0.0, 0.0009765625)"
        assert not kernel.passed and np.isnan(kernel.value)


class TestExactNodeSets:
    # set decisions compare node sets exactly: one node too few or too many is refused

    @pytest.mark.parametrize("gap", [1.0 / 1024, 1.5 / 1024])
    def test_family_missing_a_node_is_refused(self, shannon_space, gap):
        rep = check_determining_set(
            shannon_space, [half_band_high(), PiecewiseConstantSpectrum([(gap, 0.5, 1.0)])])
        assert not rep.passed
        assert rep.checks[0].value > 0.0

    @pytest.mark.parametrize("edge", [0.5 - 1.0 / 1024, 0.5 + 1.0 / 1024])
    def test_partition_one_node_off_is_refused(self, shannon_space, grid, edge):
        part = PeriodicPartition.from_intervals([[[0.0, edge]], [[0.5, 1.0]]], grid)
        with pytest.raises(PartitionError) as err:
            decompose(shannon_space, part)
        assert err.value.measure == 1.0 / 1024
        lo, hi = sorted((edge, 0.5))  # the node overlapped or left uncovered
        assert str(err.value).endswith(f": 1 interval(s) of omega in [0, 1), from [{lo}, {hi})")

    def test_nodes_off_the_support_set_belong_to_no_component(self, blhat, grid):
        # blhat's support set lacks the node 1/2, which the second half holds
        space = build_space(blhat, grid)
        assert np.flatnonzero(~space.mask.values).tolist() == [grid.unit_index(0.5)]
        part = PeriodicPartition.from_intervals([[[0.0, 0.5]], [[0.5, 1.0]]], grid)
        comps = decompose(space, part)
        assert [c.mask.measure for c in comps] == [0.5, 511 / 1024]

    def test_mask_empty_on_the_support_set_is_dropped(self, blhat, grid):
        space = build_space(blhat, grid)
        cut = 0.5 + 1.0 / 1024
        part = PeriodicPartition.from_intervals([[[0.0, 0.5]], [[0.5, cut]], [[cut, 1.0]]], grid)
        assert not part.masks[1].is_empty
        assert len(decompose(space, part)) == 2


@pytest.fixture(scope="module")
def halves(shannon_space, grid):
    part = PeriodicPartition.from_intervals([[[0.0, 0.5]], [[0.5, 1.0]]], grid)
    return decompose(shannon_space, part)


class TestVerifyDirectSum:
    def test_kernel_splits_cleanly(self, shannon_space, halves, grid):
        residual, cross = verify_direct_sum(shannon_space, halves, shannon_space.sampling_spectrum)
        assert residual.value < 1e-9
        assert cross.value < 1e-9

    def test_random_member(self, shannon_space, halves):
        f = synthesize(shannon_space, random_coefficients(60))
        residual, cross = verify_direct_sum(shannon_space, halves, f)
        assert residual.value < 1e-6
        assert cross.value < 1e-6

    def test_missing_component_fails_the_residual(self, shannon_space, halves):
        f = synthesize(shannon_space, random_coefficients(60))
        residual, cross = verify_direct_sum(shannon_space, halves[:1], f)
        assert not residual.passed and residual.value > residual.tolerance > 0.0
        assert cross.passed

    def test_zero_probe(self, shannon_space, halves, grid):
        zero = PiecewiseConstantSpectrum([(0.0, 1.0, 0.0)])
        residual, cross = verify_direct_sum(shannon_space, halves, zero)
        assert residual.value == 0.0
        assert cross.value == 0.0


class TestLatticeRescale:
    def test_identity_lattice(self, shannon_space):
        rs = lattice_rescale(shannon_space, 1.0, 0.0)
        f = synthesize(shannon_space, random_coefficients(70))
        ks = np.arange(-20, 21)
        samples = TimeSamples(ks, f.time_values(ks.astype(float)), 512)
        xs = np.linspace(-3, 3, 17)
        rev = rs.reconstruct(samples, xs)
        base = reconstruct(shannon_space, samples, xs)
        np.testing.assert_array_equal(rev.values, base.values)

    def test_dilated_shannon_at_half_integers(self, shannon_space):
        # [DERIVED] dilation of the sinc-sum oracle: members of the
        # rescaled space are sqrt(2) f(2x) and are sampled at k/2
        rs = lattice_rescale(shannon_space, 2.0, 0.0)
        coeffs = random_coefficients(71)
        f = synthesize(shannon_space, coeffs)
        ks = np.arange(-40, 41)
        assert np.allclose(rs.lattice(ks), ks / 2.0)
        samples = TimeSamples(ks, rs.member_values(f, rs.lattice(ks)), 512)
        rng = np.random.default_rng(72)
        xs = rng.uniform(-4, 4, 32)
        rec = rs.reconstruct(samples, xs)
        oracle = np.zeros(xs.size, dtype=complex)
        for k, c in zip(coeffs.ks, coeffs.values):
            oracle += c * np.sinc(2 * xs - k)
        oracle *= np.sqrt(2.0)
        assert float(np.max(np.abs(rec.values - oracle))) < 1e-4

    def test_shifted_lattice_reproduces_kernel(self, shannon_space):
        # [DERIVED] translation oracle: the unit-coefficient member comes
        # back from samples on the lattice k + 1/2
        rs = lattice_rescale(shannon_space, 1.0, 0.5)
        member = synthesize(shannon_space, TimeSamples.delta(0))
        ks = np.arange(-60, 61)
        samples = TimeSamples(ks, rs.member_values(member, rs.lattice(ks)), 512)
        xs = np.linspace(-2.3, 2.3, 23)
        rec = rs.reconstruct(samples, xs)
        oracle = rs.member_values(member, xs)
        assert float(np.max(np.abs(rec.values - oracle))) < 1e-3

    def test_kernel_is_the_dilated_translated_kernel(self, shannon_space):
        # [DERIVED] sqrt(2) sinc(2x - 1/2): the sinc kernel on the lattice (k + 1/2) / 2
        rs = lattice_rescale(shannon_space, 2.0, 0.5)
        xs = np.linspace(-3, 3, 31)
        want = np.sqrt(2.0) * np.sinc(2 * xs - 0.5)
        assert np.max(np.abs(rs.kernel_values(xs) - want)) <= 1e-14

    def test_rejects_nonpositive_scale(self, shannon_space):
        with pytest.raises(ValueError):
            lattice_rescale(shannon_space, 0.0, 0.0)


class TestKernelFiberAfterMasking:
    def test_component_zak_fibers_are_indicators(self, shannon_space, grid):
        part = PeriodicPartition.from_intervals([[[0.0, 0.5]], [[0.5, 1.0]]], grid)
        comps = decompose(shannon_space, part)
        for comp in comps:
            z = zak_time_fiber(integer_samples(comp.sampling_spectrum, grid, 512), grid)
            indicator = comp.mask.values.astype(float)
            assert float(np.max(np.abs(z.values - indicator))) < 1e-9
