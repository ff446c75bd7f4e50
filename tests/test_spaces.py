import numpy as np
import pytest

from conftest import SYNTHESIS_POINTS, exact_synthesis, random_coefficients
from sisbox import (
    FrequencyGrid,
    GridSpectrum,
    PiecewiseConstantSpectrum,
    ShiftCombination,
    TimeKernel,
    TimeSamples,
    bracket,
    build_space,
    check_sz99,
    essential_bounds,
    gram_matrix_bounds_oracle,
    grammian,
    integer_samples,
    project,
    reconstruct,
    spectral_norm,
    support_mask,
    synthesize,
    tight_frame_generator,
    zak_time_fiber,
)
from sisbox.errors import (
    DegenerateSpaceError,
    NotASamplingSpaceError,
    PreconditionError,
    TruncationError,
)
from sisbox.spaces import VANISH_TOL
from sisbox.spectral import DEFAULT_EPS


def zero_signal():
    return PiecewiseConstantSpectrum([(0.0, 1.0, 0.0)])


def vanishing_zak_signal():
    # periodization cancels on [0, 1/2): positive Grammian, zero Zak fiber
    return PiecewiseConstantSpectrum([(0.0, 0.5, 1.0), (1.0, 1.5, -1.0)])


class TestZakCheck:
    @pytest.mark.parametrize("name", ["shannon", "vanishing"])
    def test_tolerance_is_the_floor_eps_times_upper_bound(self, shannon, grid, name):
        rep = check_sz99(shannon if name == "shannon" else vanishing_zak_signal(), grid)
        check = rep.checks[2]
        assert check.name == "zak_two_sided"
        assert check.value == rep.zak_lower
        assert check.tolerance == DEFAULT_EPS * rep.zak_upper
        assert check.passed == (name == "shannon") == (check.value > check.tolerance)
        assert check.detail.endswith(f"vs limit {VANISH_TOL * rep.zak_upper:.3g}")


class TestTightFrameGenerator:
    def test_shannon_unchanged(self, shannon, grid):
        out = tight_frame_generator(shannon, grid)
        np.testing.assert_allclose(out.grid_values(grid), shannon.grid_values(grid), atol=1e-12)

    def test_scalar_normalization(self, grid):
        psi = PiecewiseConstantSpectrum([(0.0, 1.0, 2.0)])
        out = tight_frame_generator(psi, grid)
        expected = PiecewiseConstantSpectrum([(0.0, 1.0, 1.0)]).grid_values(grid)
        np.testing.assert_allclose(out.grid_values(grid), expected, atol=1e-12)

    def test_ex2_per_fiber_normalization(self, ex2, wide_grid):
        # [DERIVED] on (1/4, 1/2] the Grammian is 5/4, so the normalized
        # spectrum is the original divided by sqrt(5/4)
        out = tight_frame_generator(ex2, wide_grid)
        j = np.flatnonzero(np.isclose(wide_grid.omegas, 3.0 / 8))[0]
        assert out.grid_values(wide_grid)[j] == pytest.approx(1.0 / np.sqrt(1.25))

    def test_zero_raises(self, grid):
        with pytest.raises(DegenerateSpaceError):
            tight_frame_generator(zero_signal(), grid)

    @pytest.mark.parametrize("name", ["shannon", "ex2", "ex3", "hat"])
    def test_tight_frame_identity(self, name, request):
        sig = request.getfixturevalue(name)
        g = FrequencyGrid(64, 1024) if name == "ex2" else FrequencyGrid(32, 1024)
        phi = tight_frame_generator(sig, g)
        gram = grammian(phi, g)
        mask = support_mask(grammian(sig, g), 1e-9)
        indicator = mask.values.astype(float)
        np.testing.assert_allclose(gram.real_values, indicator, atol=1e-9)


class TestCheckSZ99:
    def test_shannon_passes_with_unit_zak(self, shannon, grid):
        rep = check_sz99(shannon, grid)
        assert rep.passed
        assert rep.zak_lower == pytest.approx(1.0, abs=1e-12)
        assert rep.zak_upper == pytest.approx(1.0, abs=1e-12)

    def test_ex3_passes(self, ex3, grid):
        rep = check_sz99(ex3, grid)
        assert rep.passed
        assert rep.zak_lower == pytest.approx(1.0, abs=1e-8)
        assert rep.zak_upper == pytest.approx(1.0, abs=1e-8)

    def test_vanishing_zak_fails(self, grid):
        # direct Zak oracle: samples of this signal vanish identically, so
        # the fiber is zero on the full support set [0, 1/2)
        sig = vanishing_zak_signal()
        samples = integer_samples(sig, grid, 512)
        assert samples.l2_norm < 1e-12
        rep = check_sz99(sig, grid)
        assert not rep.passed
        assert not rep.zak_pass
        assert rep.support_measure == pytest.approx(0.5, abs=1e-3)

    def test_full_band_block_passes(self, grid):
        # chi_[0,1) has unit Zak fiber (its samples are a unit impulse by
        # the direct Zak oracle): a modulated interpolating kernel
        sig = PiecewiseConstantSpectrum([(0.0, 1.0, 1.0)])
        samples = integer_samples(sig, grid, 512)
        assert samples.value_at(0) == pytest.approx(1.0)
        rep = check_sz99(sig, grid)
        assert rep.passed

    def test_zero_signal_fails_as_degenerate(self, grid):
        rep = check_sz99(zero_signal(), grid)
        assert not rep.passed
        assert "degenerate" in rep.note

    def test_no_integer_in_the_support_gives_no_samples(self, grid):
        # a bump on (1/4, 3/4) vanishes at every integer: the sample record is
        # empty, not a stand-in zero at k = 0, and the Zak fiber is zero
        bump = TimeKernel((0.25, 0.75), lambda x: np.sin(2 * np.pi * (x - 0.25)) ** 2,
                          integrable_spectrum=True)
        samples = integer_samples(bump, grid, 512)
        assert samples.ks.size == 0 and samples.tail_energy == 0.0
        rep = check_sz99(bump, grid)
        assert rep.continuity_verdict == "pass" and rep.shift_sum_pass
        assert not rep.zak_pass and not rep.passed
        assert rep.zak_lower == rep.zak_upper == 0.0
        with pytest.raises(NotASamplingSpaceError):
            build_space(bump, grid)


class TestBuildSpace:
    def test_shannon_kernel_is_generator(self, shannon_space, shannon, grid):
        np.testing.assert_allclose(
            shannon_space.sampling_spectrum.grid_values(grid),
            shannon.grid_values(grid), atol=1e-12)
        assert isinstance(shannon_space.sampling_spectrum, PiecewiseConstantSpectrum)

    def test_ex3_kernel_is_generator(self, ex3_space, ex3, grid):
        assert isinstance(ex3_space.sampling_spectrum, TimeKernel)
        xs = np.linspace(-1.2, 1.2, 25)
        np.testing.assert_allclose(ex3_space.kernel_values(xs), ex3.time_values(xs), atol=1e-12)
        assert ex3_space.sz99.passed

    def test_scaling_invariance(self, grid):
        # [DERIVED] constant Zak fiber cancels: the kernel of 3*chi equals chi
        psi = PiecewiseConstantSpectrum([(-0.5, 0.5, 3.0)])
        space = build_space(psi, grid)
        expected = PiecewiseConstantSpectrum([(-0.5, 0.5, 1.0)])
        np.testing.assert_allclose(space.sampling_spectrum.grid_values(grid),
                                   expected.grid_values(grid), atol=1e-12)

    def test_shift_combination_kernel_keeps_its_form(self, shannon_space, grid):
        # 2 * sinc has the constant Zak fiber 2: its kernel is the synthesis
        # rescaled, still a ShiftCombination, and equal to the sinc kernel
        space = build_space(synthesize(shannon_space, TimeSamples.delta(0, 2.0)), grid)
        assert isinstance(space.sampling_spectrum, ShiftCombination)
        xs = np.linspace(-4, 4, 33)
        assert np.max(np.abs(space.kernel_values(xs) - shannon_space.kernel_values(xs))) <= 1e-16

    def test_zero_raises_degenerate(self, grid):
        with pytest.raises(DegenerateSpaceError):
            build_space(zero_signal(), grid)

    def test_vanishing_zak_raises_with_omega(self, grid):
        with pytest.raises(NotASamplingSpaceError) as err:
            build_space(vanishing_zak_signal(), grid)
        # the certificate refuses, and names where the Zak fiber is smallest
        rep = err.value.report
        assert not rep.zak_pass and not rep.passed
        assert 0.0 <= rep.zak_lower_at < 0.5

    def test_unchecked_mode_constructs_but_wont_reconstruct(self, grid):
        space = build_space(vanishing_zak_signal(), grid, checked=False)
        assert not space.certified
        with pytest.raises(NotASamplingSpaceError) as err:
            reconstruct(space, TimeSamples.delta(0), [0.0])
        assert err.value.report is not None

    def test_frame_bounds_bracket_masked_grammian(self, ex2_space):
        a, b = ex2_space.frame_bounds
        vals = ex2_space.grammian.real_values[ex2_space.mask.values]
        assert np.all(vals >= a - 1e-15) and np.all(vals <= b + 1e-15)
        assert 0 < a <= b

    @pytest.mark.parametrize("name", ["shannon_space", "ex3_space", "hat_space", "ex2_space"])
    def test_kernel_time_fiber_is_support_indicator(self, name, request):
        # interpolation structure: the Zak fiber of the kernel samples
        # equals the support indicator
        space = request.getfixturevalue(name)
        z = zak_time_fiber(space.kernel_samples(), space.grid)
        indicator = space.mask.values.astype(float)
        assert float(np.max(np.abs(z.values - indicator))) < 1e-6

    def test_kernel_vanishes_off_support(self, grid):
        half = PiecewiseConstantSpectrum([(0.0, 0.5, 2.0)])
        space = build_space(half, grid)
        vals = space.sampling_spectrum.grid_values(grid)
        off = ~space.mask.tile()
        assert float(np.max(np.abs(vals[off]))) == 0.0


class TestSynthesize:
    def test_delta_reproduces_generator(self, shannon_space, shannon, grid):
        f = synthesize(shannon_space, TimeSamples.delta(0))
        np.testing.assert_allclose(f.grid_values(grid), shannon.grid_values(grid), atol=1e-12)

    def test_shifted_delta_is_phase(self, shannon_space, shannon, grid):
        f = synthesize(shannon_space, TimeSamples.delta(1))
        phase = np.tile(np.exp(-2j * np.pi * grid.unit_omegas), 2 * grid.half_bandwidth)
        np.testing.assert_allclose(f.grid_values(grid),
                                   phase * shannon.grid_values(grid), atol=1e-12)

    def test_matches_time_domain_sinc_sum(self, shannon_space):
        # [DERIVED] oracle: independent sum of shifted numpy sincs
        rng = np.random.default_rng(12)
        ks = np.arange(-4, 5)
        coeffs = TimeSamples(ks, rng.standard_normal(9) + 1j * rng.standard_normal(9), 4)
        f = synthesize(shannon_space, coeffs)
        xs = rng.uniform(-10, 10, 32)
        oracle = np.zeros(32, dtype=complex)
        for k, c in zip(coeffs.ks, coeffs.values):
            oracle += c * np.sinc(xs - k)
        np.testing.assert_allclose(f.time_values(xs), oracle, atol=1e-6)


class TestReconstruct:
    def test_delta_samples_give_kernel(self, shannon_space):
        xs = np.linspace(-3, 3, 13)
        rec = reconstruct(shannon_space, TimeSamples.delta(0), xs)
        np.testing.assert_allclose(rec.values, np.sinc(xs), atol=1e-12)
        assert rec.route == "time"

    def test_band_limited_triangle_member(self, shannon_space, blhat, grid):
        # [DERIVED] analytic oracle: half a squared sinc
        samples = integer_samples(blhat, grid, 512)
        xs = np.linspace(-8, 8, 200)
        rec = reconstruct(shannon_space, samples, xs)
        oracle = 0.5 * np.sinc(xs / 2.0) ** 2
        err = np.max(np.abs(rec.values - oracle)) / np.max(np.abs(oracle))
        assert err < 1e-2

    def test_interpolation_in_compact_kernel_space(self, ex3_space, grid):
        # [DERIVED] interpolating kernel: synthesized coefficients come back
        coeffs = random_coefficients(21, span=5)
        f = synthesize(ex3_space, coeffs)
        samples = integer_samples(f, grid, 64)
        xs = np.arange(-7.0, 8.0)
        rec = reconstruct(ex3_space, samples, xs)
        expected = np.array([coeffs.value_at(int(k)) for k in xs])
        np.testing.assert_allclose(rec.values, expected, atol=1e-12)

    def test_time_route_matches_exact_phase_sum(self, shannon_space, grid):
        # a member's 1,024 grid samples, summed against the kernel at points on,
        # within 1e-9 of and halfway between the integers
        samples = integer_samples(synthesize(shannon_space, random_coefficients(44)), grid, 512)
        assert samples.ks.size == 1024
        rec = reconstruct(shannon_space, samples, SYNTHESIS_POINTS)
        want = exact_synthesis(shannon_space.sampling_spectrum.pieces, samples.ks, samples.values,
                               SYNTHESIS_POINTS)
        assert np.max(np.abs(rec.values - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", ["shannon_space", "hat_space"])
    def test_time_route_is_the_synthesis(self, name, request, grid):
        space = request.getfixturevalue(name)
        samples = integer_samples(synthesize(space, random_coefficients(45)), grid, 512)
        xs = np.linspace(-8, 8, 1000)
        rec = reconstruct(space, samples, xs)
        assert rec.route == "time"
        assert np.array_equal(rec.values, ShiftCombination(space.sampling_spectrum, samples).time_values(xs))

    @pytest.mark.parametrize("k, need", [(-512, None), (511, None), (512, 2048), (1024, 4096)])
    def test_spectral_route_refuses_aliased_samples(self, ex2_space, k, need):
        # at N = 1024 the Zak fiber resolves k in [-512, 512); k = 1024
        # used to fold onto k = 0 and return the kernel at the wrong place
        xs = [0.0, float(k)]
        if need is None:
            rec = reconstruct(ex2_space, TimeSamples.delta(k), xs)
            assert rec.route == "spectral" and np.all(np.isfinite(rec.values))
        else:
            with pytest.raises(TruncationError, match=f"N >= {need}"):
                reconstruct(ex2_space, TimeSamples.delta(k), xs)

    def test_non_finite_value_is_refused(self, shannon_space):
        # Dekker's split overflows past |x| ~ 1.3e300: the value used to come back NaN
        with pytest.raises(PreconditionError, match="not finite at 1 of 2 points"):
            reconstruct(shannon_space, TimeSamples.delta(0), [0.0, 1e301])


class TestProject:
    def test_idempotent_on_members(self, shannon_space, grid):
        f = synthesize(shannon_space, random_coefficients(31))
        p1 = project(f, shannon_space)
        np.testing.assert_allclose(p1.values, f.grid_values(grid), atol=1e-10)
        p2 = project(p1, shannon_space)
        np.testing.assert_allclose(p2.values, p1.values, atol=1e-10)

    def test_disjoint_spectrum_projects_to_zero(self, shannon_space, grid):
        f = PiecewiseConstantSpectrum([(2.0, 3.0, 1.0)])
        p = project(f, shannon_space)
        assert spectral_norm(p.values, grid) == 0.0

    def test_wide_block_onto_shannon(self, shannon_space, grid):
        # [DERIVED] fiberwise least-squares oracle: on each unit fiber the
        # projection multiplier is bracket(f, phi)/G, here 1 on [-1/2, 1/2)
        f = PiecewiseConstantSpectrum([(-1.0, 1.0, 1.0)])
        p = project(f, shannon_space)
        expected = PiecewiseConstantSpectrum([(-0.5, 0.5, 1.0)]).grid_values(grid)
        np.testing.assert_allclose(p.values, expected, atol=1e-12)
        num = bracket(f, shannon_space.generator, grid).values
        den = shannon_space.grammian.real_values
        r_oracle = num / den
        np.testing.assert_allclose(r_oracle, 1.0, atol=1e-12)

    def test_norm_nonincreasing(self, shannon_space, grid):
        rng = np.random.default_rng(14)
        vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        f = GridSpectrum(vals, grid)
        p = project(f, shannon_space)
        assert spectral_norm(p.values, grid) <= spectral_norm(vals, grid) + 1e-12


class TestGramMatrixOracle:
    def test_orthonormal_translates(self, shannon, grid):
        lo, hi = gram_matrix_bounds_oracle(shannon, grid, 16)
        assert lo == pytest.approx(1.0, abs=1e-6)
        assert hi == pytest.approx(1.0, abs=1e-6)

    def test_zero_raises(self, grid):
        with pytest.raises(DegenerateSpaceError):
            gram_matrix_bounds_oracle(zero_signal(), grid, 8)

    def test_truncation_limit(self, shannon, grid):
        with pytest.raises(TruncationError):
            gram_matrix_bounds_oracle(shannon, grid, 4096)

    @pytest.mark.parametrize("name", ["shannon", "ex2", "ex3", "hat"])
    def test_agreement_with_essential_bounds(self, name, request):
        sig = request.getfixturevalue(name)
        g = FrequencyGrid(64, 1024) if name == "ex2" else FrequencyGrid(32, 1024)
        gram = grammian(sig, g)
        a, b = essential_bounds(gram, support_mask(gram, 1e-9))
        lo, hi = gram_matrix_bounds_oracle(sig, g, 64)
        assert abs(lo - a) / a < 0.05
        assert abs(hi - b) / b < 0.05


class TestCatalog:
    def test_every_entry_constructs_on_its_grid(self, grid):
        # widened as the CLI widens: to the signal's required half bandwidth
        from sisbox.catalog import catalog_names
        from sisbox import build_signal

        for name in catalog_names():
            need = build_signal(name, grid).required_half_bandwidth() or 0
            g = FrequencyGrid(need, grid.resolution) if need > grid.half_bandwidth else grid
            sig = build_signal(name, g)
            assert sig.grid_values(g).shape == (g.size,)

    def test_coefficient_series_converges_pointwise(self, shannon_space):
        # spot check (not a proof): partial sums of a square-summable
        # coefficient series stabilize at fixed points
        ks = np.arange(-100, 101)
        coeffs = 1.0 / (1.0 + np.abs(ks)) ** 2
        xs = np.array([0.3, 1.7, -4.2])

        def partial(span):
            sel = np.abs(ks) <= span
            out = np.zeros(xs.size, dtype=complex)
            for k, c in zip(ks[sel], coeffs[sel]):
                out += c * shannon_space.kernel_values(xs - k)
            return out

        assert float(np.max(np.abs(partial(100) - partial(50)))) < 1e-3


class TestSpectralIdentities:
    def test_member_factorization(self, shannon_space, grid):
        # f_hat = Z_f(0,.) * s_hat for synthesized members
        f = synthesize(shannon_space, random_coefficients(41))
        z = zak_time_fiber(integer_samples(f, grid, 512), grid)
        rec = z.tile() * shannon_space.sampling_spectrum.grid_values(grid)
        assert float(np.max(np.abs(rec - f.grid_values(grid)))) < 1e-5

    def test_grammian_factorization(self, hat_space, grid):
        # G_f = |Z_f|^2 * G_s on the support set
        f = synthesize(hat_space, random_coefficients(42))
        gf = grammian(f, grid).real_values
        z = zak_time_fiber(integer_samples(f, grid, 512), grid)
        gs = grammian(hat_space.sampling_spectrum, grid).real_values
        on = hat_space.mask.values
        lhs = gf[on]
        rhs = (np.abs(z.values) ** 2 * gs)[on]
        assert float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-30))) < 1e-5

    def test_support_set_invariant_under_multiplier(self, ex2, wide_grid):
        # invertible periodic multiplier leaves the support set unchanged
        m = 2.0 + np.cos(2 * np.pi * wide_grid.unit_omegas)
        modified = GridSpectrum(ex2.grid_values(wide_grid) * np.tile(m, 2 * wide_grid.half_bandwidth),
                                wide_grid)
        mask1 = support_mask(grammian(ex2, wide_grid), 1e-9)
        mask2 = support_mask(grammian(modified, wide_grid), 1e-9)
        assert mask1 == mask2
