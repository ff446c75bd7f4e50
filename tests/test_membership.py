import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_coefficients
from sisbox import membership
from sisbox import (
    FrequencyGrid,
    GridSpectrum,
    PiecewiseConstantSpectrum,
    ShiftCombination,
    TimeSamples,
    build_space,
    check_sz04,
    check_theorem2,
    check_theorem5,
    construct_s_from_f,
    grammian,
    induced_subspace,
    integer_samples,
    project,
    reconstruct,
    spectral_norm,
    support_mask,
    synthesize,
    zak_time_fiber,
)
from sisbox.errors import (
    ConstructionRefusedError,
    DegenerateSpaceError,
    NotInSpaceError,
    PreconditionError,
)
from sisbox.reports import ReportDocument
from sisbox.spectral import fibers

# ------------------------------------------------------------------ oracles
# Partial sums of the alternating-block spectrum: on the dyadic band
# (2^-(n+1), 2^-n] exactly the first n+1 blocks stack, so
#   periodization       = A_{n+1} = sum_{k<=n} (-1)^k/(k+1)
#   absolute mass       = H_{n+1} = sum_{k<=n} 1/(k+1)
#   energy              = S_{n+1} = sum_{k<=n} 1/(k+1)^2
NS = np.arange(0, 61)
A_PARTIAL = np.cumsum((-1.0) ** NS / (NS + 1))
H_PARTIAL = np.cumsum(1.0 / (NS + 1))
S2_PARTIAL = np.cumsum(1.0 / (NS + 1) ** 2)

ORACLE_T5_A = float(np.min(S2_PARTIAL / A_PARTIAL ** 2))   # = 1, at n = 0
ORACLE_T5_B = float(np.max(S2_PARTIAL / A_PARTIAL ** 2))   # = 5, at n = 1
ORACLE_SZ04_WORST = float((H_PARTIAL[-1] / abs(A_PARTIAL[-1])) ** 2)  # ~ 44.85
ORACLE_C_INTEGRAL = float(np.sum(0.5 ** (NS + 1) * H_PARTIAL / np.abs(A_PARTIAL))
                          + 0.5 ** 61 * H_PARTIAL[-1] / abs(A_PARTIAL[-1]))


def zero_signal():
    return PiecewiseConstantSpectrum([(0.0, 1.0, 0.0)])


def vanishing_zak_signal():
    return PiecewiseConstantSpectrum([(0.0, 0.5, 1.0), (1.0, 1.5, -1.0)])


class TestTheorem2:
    def test_shannon_passes_with_unit_bounds(self, shannon, grid):
        rep = check_theorem2(shannon, grid)
        assert rep.passed
        assert rep.constants["A"] == pytest.approx(1.0, abs=1e-9)
        assert rep.constants["B"] == pytest.approx(1.0, abs=1e-9)
        assert rep.constants["normalization"] == "zak"

    def test_zero_is_vacuous_pass(self, grid):
        rep = check_theorem2(zero_signal(), grid)
        assert rep.passed and rep.vacuous

    def test_vanishing_zak_fails(self, grid):
        rep = check_theorem2(vanishing_zak_signal(), grid)
        assert not rep.passed
        zak_check = [c for c in rep.checks if c.name == "zak_two_sided"][0]
        assert not zak_check.passed


class TestTheorem5:
    def test_band_limited_signal_passes_with_unit_ratio(self, blhat, grid):
        # single spectral shift: periodization equals the spectrum, so the
        # two-sided ratio is exactly 1 on the support set
        rep = check_theorem5(blhat, grid)
        assert rep.passed
        assert rep.constants["A"] == pytest.approx(1.0, abs=1e-9)
        assert rep.constants["B"] == pytest.approx(1.0, abs=1e-9)

    def test_shannon_passes(self, shannon, grid):
        rep = check_theorem5(shannon, grid)
        assert rep.passed
        assert rep.constants["A"] == pytest.approx(1.0)
        assert rep.constants["B"] == pytest.approx(1.0)

    def test_ex2_constants_match_partial_sum_oracle(self, ex2, wide_grid):
        rep = check_theorem5(ex2, wide_grid)
        assert rep.passed
        assert rep.constants["A"] == pytest.approx(ORACLE_T5_A, rel=1e-12)
        assert rep.constants["B"] == pytest.approx(ORACLE_T5_B, rel=1e-12)
        assert rep.constants["integral"] == pytest.approx(ORACLE_C_INTEGRAL, rel=1e-12)
        assert np.isfinite(rep.constants["L"])
        assert rep.constants["exact_pieces"] is True

    def test_zero_is_vacuous(self, grid):
        rep = check_theorem5(zero_signal(), grid)
        assert rep.passed and rep.vacuous
        assert rep.constants["integral"] == 0.0

    def test_non_integrable_rejected(self, ex3, grid):
        with pytest.raises(PreconditionError):
            check_theorem5(ex3, grid)

    @pytest.mark.parametrize("k", [513, 600])
    def test_kernel_shifted_past_kmax_keeps_its_samples(self, k, hat, grid):
        # the default k_max (512) cuts none of the support's samples: hat(0) = 1 at k
        rep = check_theorem5(ShiftCombination(hat, TimeSamples.delta(k)), grid)
        assert rep.constants["samples_l2"] == 1.0

    def test_probe_stability(self, ex2, wide_grid):
        # the dual-energy constant is a sup over time offsets; resampling
        # the probe set moves it by less than 10%
        rng1 = np.random.default_rng(100)
        rng2 = np.random.default_rng(200)
        l_vals = []
        for rng in (rng1, rng2):
            probes = np.concatenate([np.arange(64) / 64, rng.random(64)])
            rep = check_theorem5(ex2, wide_grid, x_probes=probes)
            l_vals.append(rep.constants["L"])
        assert abs(l_vals[0] - l_vals[1]) / max(l_vals) < 0.10


class TestSZ04:
    def test_shannon_passes_with_unit_constants(self, shannon, grid):
        rep = check_sz04(shannon, grid)
        assert rep.passed
        assert rep.constants["A"] == pytest.approx(1.0)
        assert rep.constants["B"] == pytest.approx(1.0)

    def test_ex2_fails_while_theorem5_passes(self, ex2, wide_grid):
        rep5 = check_theorem5(ex2, wide_grid)
        rep4 = check_sz04(ex2, wide_grid)
        assert rep5.passed
        assert not rep4.passed
        # the failing part is the absolute-mass domination
        upper = [c for c in rep4.checks if c.name == "upper_domination"][0]
        assert not upper.passed

    def test_ex2_ratio_on_finest_dyadic_block(self, ex2, wide_grid):
        rep = check_sz04(ex2, wide_grid)
        starts = np.asarray(rep.constants["piece_starts"])
        lens = np.asarray(rep.constants["piece_lengths"])
        ratios = np.asarray(rep.constants["piece_ratios"])
        probe = 1.5 * 0.5 ** 61  # inside (2^-61, 2^-60]
        i = np.flatnonzero((starts <= probe) & (probe < starts + lens))[0]
        assert ratios[i] == pytest.approx(ORACLE_SZ04_WORST, rel=1e-12)
        assert ratios[i] > 20.0

    def test_vanishing_periodization_with_mass_fails(self, grid):
        # on [0, 1/2) the shifts m = 0 and m = 1 cancel: Z = 0 while G = 2
        rep = check_sz04(PiecewiseConstantSpectrum([(0.0, 0.5, 1.0), (1.0, 1.5, -1.0)]), grid)
        lower, upper = rep.checks
        assert lower.passed and lower.value is None and rep.constants["A"] is None
        assert not upper.passed and upper.value == float("inf")
        assert upper.detail == "periodization vanishes where absolute mass remains"
        assert not rep.passed

    def test_zero_is_vacuous(self, grid):
        rep = check_sz04(zero_signal(), grid)
        assert rep.passed and rep.vacuous

    def test_non_integrable_rejected(self, ex3, grid):
        with pytest.raises(PreconditionError):
            check_sz04(ex3, grid)

    @pytest.mark.parametrize("name", ["shannon", "blhat", "hat"])
    def test_sufficiency_implies_characterization(self, name, request, grid):
        # whenever the sufficient pair passes, the characterization passes
        sig = request.getfixturevalue(name)
        rep4 = check_sz04(sig, grid)
        rep5 = check_theorem5(sig, grid)
        if rep4.passed:
            assert rep5.passed


class TestInducedSubspace:
    def test_kernel_itself_returns_whole_space(self, shannon_space, shannon, grid):
        sub = induced_subspace(shannon_space, shannon)
        assert sub.space.mask == shannon_space.mask
        _, mask_check, proj_check = sub.checks
        assert mask_check.value < 1e-9
        assert proj_check.value < 1e-9

    def test_half_mask_member(self, shannon_space, grid):
        # member with spectrum s_hat * chi_{[0,1/2)}: the induced kernel is
        # the masked parent kernel
        f = PiecewiseConstantSpectrum([(0.0, 0.5, 1.0)])
        sub = induced_subspace(shannon_space, f)
        assert sub.space.mask.measure == pytest.approx(0.5, abs=1e-3)
        _, mask_check, proj_check = sub.checks
        assert mask_check.value < 1e-9
        assert proj_check.value < 1e-9

    def test_member_with_spectral_notch(self, shannon_space, grid):
        # coefficient fiber with a zero inside the band: the induced
        # support set drops nodes around the notch
        ks = np.array([0, 1])
        coeffs = TimeSamples(ks, np.array([1.0, -1.0]), 1)  # C(w) = 1 - e^{-2pi i w}
        f = synthesize(shannon_space, coeffs)
        sub = induced_subspace(shannon_space, f)
        assert sub.space.mask.measure < shannon_space.mask.measure
        _, mask_check, proj_check = sub.checks
        assert mask_check.value < 1e-9
        assert proj_check.value < 1e-9

    def test_non_member_rejected(self, shannon_space):
        outside = PiecewiseConstantSpectrum([(2.0, 3.0, 1.0)])
        with pytest.raises(NotInSpaceError) as err:
            induced_subspace(shannon_space, outside)
        assert err.value.residual is not None

    @pytest.mark.parametrize("space_name", ["shannon_space", "ex3_space", "hat_space"])
    def test_random_members_identities(self, space_name, request):
        space = request.getfixturevalue(space_name)
        for seed in range(3):
            f = synthesize(space, random_coefficients(1000 + seed))
            sub = induced_subspace(space, f)
            _, mask_check, proj_check = sub.checks
            assert mask_check.value < 1e-9
            assert proj_check.value < 1e-9


    def test_subspace_keeps_the_seed(self, shannon, grid):
        space = build_space(shannon, grid, seed=7)
        assert space.seed == 7
        assert induced_subspace(space, PiecewiseConstantSpectrum([(0.0, 0.5, 1.0)])).space.seed == 7


class TestConstructKernel:
    def test_shannon_reduces_to_itself(self, shannon, grid):
        space = construct_s_from_f(shannon, grid)
        expected = shannon.grid_values(grid)
        np.testing.assert_allclose(space.sampling_spectrum.grid_values(grid),
                                   expected, atol=1e-12)
        samples = space.kernel_samples()
        assert samples.value_at(0) == pytest.approx(1.0, abs=1e-12)

    def test_ex2_canonical_space(self, ex2, wide_grid):
        space = construct_s_from_f(ex2, wide_grid)
        assert space.certified
        samples = space.kernel_samples()
        delta = np.where(samples.ks == 0, 1.0, 0.0)
        assert float(np.max(np.abs(samples.values - delta))) < 1e-6

    def test_refused_without_passing_report(self, grid):
        sig = vanishing_zak_signal()
        # this signal is integrable but its periodization vanishes on its
        # support: the characterization fails and construction refuses
        with pytest.raises(ConstructionRefusedError) as err:
            construct_s_from_f(sig, grid)
        assert err.value.report is not None

    def test_truncated_time_kernel_constructs(self, hat, grid):
        # hat's spectrum is cut at K: the kernel divides by the periodization
        # theorem 5 judged, not by the exact-sample fiber (off by 6.3e-3)
        space = construct_s_from_f(hat, grid)
        samples = space.kernel_samples()
        delta = np.where(samples.ks == 0, 1.0, 0.0)
        assert float(np.max(np.abs(samples.values - delta))) < 1e-6

    def test_zero_rejected_as_degenerate(self, grid):
        with pytest.raises(DegenerateSpaceError):
            construct_s_from_f(zero_signal(), grid)

    @pytest.mark.parametrize("name", ["ex2", "shannon member"])
    def test_fibers_built_once_from_theorem5s_record(self, name, shannon, grid, ex2, wide_grid, monkeypatch):
        # the kernel divides by the record theorem 5 judged; a report without one
        # (the route that built the record again) gives the same rows, bit for bit
        f, g = (ex2, wide_grid) if name == "ex2" else (
            ShiftCombination(shannon, TimeSamples(np.arange(-2, 3), np.array([1.0, -2.0, 3.0, 0.5j, 1.5]), 2)), grid)
        built = []
        monkeypatch.setattr(membership, "fibers", lambda *args: built.append(args[0]) or fibers(*args))
        space = construct_s_from_f(f, g)
        assert built == [f]
        report = check_theorem5(f, g)
        fresh = construct_s_from_f(f, g, report=replace(report, record=None))
        assert len(built) == 3
        band, rows = space.sampling_spectrum.band_values(g)
        fresh_band, fresh_rows = fresh.sampling_spectrum.band_values(g)
        assert band == fresh_band
        np.testing.assert_array_equal(rows, fresh_rows)

    def test_report_record_is_not_reported(self, ex2, wide_grid):
        report = check_theorem5(ex2, wide_grid)
        assert report.record.signal is ex2
        assert "record" not in repr(report)
        doc = ReportDocument("membership", {}, results={"report": report})
        assert "record" not in json.loads(doc.to_json())["results"]["report"]

    def test_round_trip(self, ex2, wide_grid):
        space = construct_s_from_f(ex2, wide_grid)
        # membership: projection residual
        fvals = ex2.grid_values(wide_grid)
        resid = spectral_norm(project(ex2, space).values - fvals, wide_grid)
        resid /= spectral_norm(fvals, wide_grid)
        assert resid < 1e-6
        # reconstruction matches the analytic signal at random points
        samples = integer_samples(ex2, wide_grid, 512)
        rng = np.random.default_rng(77)
        xs = rng.uniform(-4, 4, 32)
        rec = reconstruct(space, samples, xs)
        truth = ex2.time_values(xs)
        assert float(np.max(np.abs(rec.values - truth))) < 1e-4


class TestConstructionRefusal:
    def test_refusal_states_deviation_and_tolerance(self, grid):
        # theorem 5 passes on the exact pieces, but inside one grid cell the
        # periodization cancels, so the kernel cannot reproduce the signal
        sig = PiecewiseConstantSpectrum([(0.0, 2 ** -11, 1.0), (1 + 2 ** -11, 1 + 2 ** -10, -1.0)])
        with pytest.raises(ConstructionRefusedError,
                           match=r"reproduce the signal \(relative deviation 1, tolerance 1e-06\)"):
            construct_s_from_f(sig, grid)


class TestNecessity:
    @pytest.mark.parametrize("space_name", ["shannon_space", "hat_space"])
    def test_synthesized_members_pass_characterization(self, space_name, request):
        # members of certified spaces with integrable generators satisfy
        # all four conditions
        space = request.getfixturevalue(space_name)
        assert space.generator.integrable_spectrum
        for seed in (5, 6):
            f = synthesize(space, random_coefficients(seed))
            rep = check_theorem5(f, space.grid)
            assert rep.passed, f"seed {seed}: {[c for c in rep.checks if not c.passed]}"


@pytest.mark.parametrize("bad, node", [
    pytest.param(bad, node, id=name + suffix)
    for node, suffix in (("in band", ""), ("first row", "-first-row"), ("last row", "-last-row"))
    for bad, name in ((np.nan, "nan"), (np.inf, "inf"))])
@pytest.mark.parametrize("check", [check_theorem2, check_theorem5, check_sz04])
def test_non_finite_node_is_refused_not_vacuous(blhat, grid, check, bad, node):
    # a NaN guard level used to empty the support set: pass, vacuous, "zero signal";
    # a node in the first or last row, far from blhat's band, must widen the band
    vals = blhat.grid_values(grid).copy()
    vals[{"in band": grid.size // 2 + 3, "first row": 0, "last row": grid.size - 1}[node]] = bad
    with pytest.raises(PreconditionError, match="non-finite"):
        check(GridSpectrum(vals, grid), grid)
