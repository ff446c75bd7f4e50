"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest

from conftest import random_coefficients
from sisbox import (
    FrequencyGrid,
    PeriodicPartition,
    PiecewiseConstantSpectrum,
    TimeSamples,
    check_determining_set,
    check_sz04,
    check_sz99,
    check_theorem5,
    decompose,
    essential_bounds,
    gram_matrix_bounds_oracle,
    grammian,
    induced_subspace,
    integer_samples,
    lattice_rescale,
    periodize,
    project,
    reconstruct,
    spectral_norm,
    support_mask,
    synthesize,
    verify_direct_sum,
    zak_time_fiber,
)
from sisbox.cli import main as cli_main


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


class TestAcceptance:
    def test_1_band_limited_reconstruction(self, shannon_space, blhat, grid):
        # triangle-spectrum member rebuilt from integer samples against the
        # exact inverse transform (half a squared sinc), 200 points of [-8, 8]
        started = time.monotonic()
        samples = integer_samples(blhat, grid, 512)
        xs = np.linspace(-8.0, 8.0, 200)
        rec = reconstruct(shannon_space, samples, xs)
        oracle = 0.5 * np.sinc(xs / 2.0) ** 2
        err = float(np.max(np.abs(rec.values - oracle)) / np.max(np.abs(oracle)))
        elapsed = time.monotonic() - started
        report(1, err < 1e-2 and elapsed < 5.0,
               f"sup-relative error {err:.3g} (tol 1e-2), {elapsed:.2f}s (cap 5s)")

    def test_2_compact_kernel_certification_and_interpolation(self, ex3, grid):
        started = time.monotonic()
        rep = check_sz99(ex3, grid)
        z = zak_time_fiber(integer_samples(ex3, grid, 512), grid)
        zdev = float(np.max(np.abs(z.values - 1.0)))
        space_ok = rep.passed and zdev < 1e-8

        from sisbox import build_space

        space = build_space(ex3, grid)
        rng = np.random.default_rng(2024)
        ks = np.arange(-8, 8)
        coeffs = TimeSamples(ks, rng.standard_normal(16) + 1j * rng.standard_normal(16), 8)
        f = synthesize(space, coeffs)
        samples = integer_samples(f, grid, 512)
        interp_err = max(abs(samples.value_at(int(k)) - coeffs.value_at(int(k)))
                         for k in range(-10, 11))
        elapsed = time.monotonic() - started
        report(2, space_ok and interp_err < 1e-8 and elapsed < 5.0,
               f"certificate={rep.passed}, |Z-1|={zdev:.3g} (tol 1e-8), "
               f"interpolation error {interp_err:.3g} (tol 1e-8), {elapsed:.2f}s (cap 5s)")

    def test_3_alternating_block_separation(self, ex2, wide_grid, tmp_path):
        started = time.monotonic()
        rep5 = check_theorem5(ex2, wide_grid)
        rep4 = check_sz04(ex2, wide_grid)

        # partial-sum oracle: A_n alternating, H_n harmonic, S_n squares
        ns = np.arange(0, 61)
        alt = np.cumsum((-1.0) ** ns / (ns + 1))
        har = np.cumsum(1.0 / (ns + 1))
        sq = np.cumsum(1.0 / (ns + 1) ** 2)
        oracle_a = float(np.min(sq / alt ** 2))
        a_ok = 0.9 * oracle_a <= rep5.constants["A"] <= 1.1 * oracle_a
        b_ok = rep5.constants["B"] <= 6.6

        starts = np.asarray(rep4.constants["piece_starts"])
        lens = np.asarray(rep4.constants["piece_lengths"])
        ratios = np.asarray(rep4.constants["piece_ratios"])
        probe = 1.5 * 0.5 ** 61
        idx = np.flatnonzero((starts <= probe) & (probe < starts + lens))[0]
        block_ratio = float(ratios[idx])

        cli_pass = cli_main(["membership", "ex2", "--theorem", "5"]) == 0
        cli_fail = cli_main(["membership", "ex2", "--theorem", "sz04"]) == 2
        elapsed = time.monotonic() - started
        ok = (rep5.passed and a_ok and b_ok and not rep4.passed
              and block_ratio > 20.0 and cli_pass and cli_fail and elapsed < 10.0)
        report(3, ok,
               f"theorem5 pass A={rep5.constants['A']:.4g} (oracle {oracle_a:.4g}) "
               f"B={rep5.constants['B']:.4g} (cap 6.6); sz04 fail with block ratio "
               f"{block_ratio:.4g} (> 20) on (2^-61, 2^-60]; {elapsed:.2f}s (cap 10s)")

    def test_4_induced_kernel_identities(self, shannon_space, ex3_space, hat_space,
                                         ex2_space):
        worst_mask = 0.0
        worst_proj = 0.0
        spaces = {"shannon": shannon_space, "ex3": ex3_space, "hat": hat_space,
                  "ex2": ex2_space}
        for label, space in spaces.items():
            for seed in range(20):
                f = synthesize(space, random_coefficients(9000 + seed))
                _, mask_check, proj_check = induced_subspace(space, f).checks
                worst_mask = max(worst_mask, mask_check.value)
                worst_proj = max(worst_proj, proj_check.value)
        report(4, worst_mask < 1e-9 and worst_proj < 1e-9,
               f"20 members x {len(spaces)} spaces: sup |s_f - s*chi| = {worst_mask:.3g}, "
               f"sup ||s_f - P(s)|| = {worst_proj:.3g} (tol 1e-9)")

    def test_5_poisson_consistency(self, shannon, blhat, ex2, grid, wide_grid):
        worst = 0.0
        for sig, g in ((shannon, grid), (blhat, grid), (ex2, wide_grid)):
            samples = integer_samples(sig, g, 512)
            z = zak_time_fiber(samples, g)
            p = periodize(sig, g)
            worst = max(worst, float(np.max(np.abs(z.values - p.values))))
        report(5, worst < 1e-6, f"max fiber/periodization deviation {worst:.3g} (tol 1e-6)")

    def test_6_frame_bound_oracle_agreement(self, shannon, ex2, ex3, hat, grid, wide_grid):
        # all catalog generators, i.e. the entries whose translates have a
        # two-sided frame bound (blhat has no lower bound: not a generator)
        worst = 0.0
        for sig, g in ((shannon, grid), (ex2, wide_grid), (ex3, grid), (hat, grid)):
            gram = grammian(sig, g)
            a, b = essential_bounds(gram, support_mask(gram, 1e-9))
            lo, hi = gram_matrix_bounds_oracle(sig, g, 64)
            worst = max(worst, abs(lo - a) / a, abs(hi - b) / b)
        report(6, worst < 0.05, f"worst relative gap {worst:.3g} (tol 5%)")

    def test_7_half_band_decomposition(self, shannon_space, grid):
        part = PeriodicPartition.from_intervals([[[0.0, 0.5]], [[0.5, 1.0]]], grid)
        comps = decompose(shannon_space, part)
        certified = len(comps) == 2 and all(c.certified for c in comps)
        worst_res = 0.0
        worst_cross = 0.0
        for seed in range(10):
            f = synthesize(shannon_space, random_coefficients(7000 + seed))
            residual, cross = verify_direct_sum(shannon_space, comps, f)
            worst_res = max(worst_res, residual.value)
            worst_cross = max(worst_cross, cross.value)
        total = sum(c.sampling_spectrum.grid_values(grid) for c in comps)
        gap = float(np.max(np.abs(total - shannon_space.sampling_spectrum.grid_values(grid))))
        report(7, certified and worst_res < 1e-6 and gap < 1e-9,
               f"2 certified halves; direct-sum residual {worst_res:.3g} (tol 1e-6), "
               f"cross {worst_cross:.3g}, kernel-sum gap {gap:.3g} (tol 1e-9)")

    def test_8_determining_sets(self, shannon_space, grid):
        low = PiecewiseConstantSpectrum([(0.0, 0.5, 1.0)])
        high = PiecewiseConstantSpectrum([(-0.5, 0.0, 1.0)])
        pair = check_determining_set(shannon_space, [low, high])
        single = check_determining_set(shannon_space, [low])
        (_, pair_kernel), (single_sym, _) = pair.checks, single.checks
        sym_ok = abs(single_sym.value - 0.5) <= 1.0 / grid.resolution
        report(8, pair.passed and pair_kernel.value < 1e-9
               and not single.passed and sym_ok,
               f"pair: pass with kernel residual {pair_kernel.value:.3g} (tol 1e-9); "
               f"single: fail with symmetric difference "
               f"{single_sym.value:.4g} (0.5 +- 1/N)")

    def test_9_lattice_rescaling(self, shannon_space):
        rs = lattice_rescale(shannon_space, 2.0, 0.0)
        coeffs = random_coefficients(888)
        f = synthesize(shannon_space, coeffs)
        ks = np.arange(-40, 41)
        lattice_points = rs.lattice(ks)
        assert np.allclose(lattice_points, ks / 2.0)  # half-integer sampling
        samples = TimeSamples(ks, rs.member_values(f, lattice_points), 512)
        rng = np.random.default_rng(889)
        xs = rng.uniform(-4, 4, 32)
        rec = rs.reconstruct(samples, xs)
        oracle = np.sqrt(2.0) * sum(
            c * np.sinc(2 * xs - k) for k, c in zip(coeffs.ks, coeffs.values))
        err = float(np.max(np.abs(rec.values - oracle)))
        report(9, err < 1e-4,
               f"dilated member rebuilt from half-integer samples, "
               f"max error {err:.3g} (tol 1e-4)")
