"""Membership tests: does an L2 function belong to (some) sampling space.

Four criteria are implemented:

* ``induced_subspace`` -- a member f of a certified space spans a sampling
  space S(f) of its own whose kernel is the masked parent kernel and,
  equivalently, the projection of the parent kernel onto S(f); the three
  identities come with their verdicts (``InducedSubspace.checks``).
* ``check_theorem2`` -- normalize f by its Zak fiber and run the
  sampling-space certificate on the normalized function.
* ``check_theorem5`` -- the four-condition characterization for signals with absolutely
  integrable spectrum (square-summable samples, two-sided Grammian/Zak ratio, integrable
  kernel mass, dual-fiber energy uniformly bounded: from exact time values given a support).
* ``check_sz04`` -- the stronger sufficient-condition pair; its second
  inequality can fail where the characterization above still passes.

The last three share one skeleton (``_judge``): precondition, fibers, support
set, the one guard on the Zak fiber, tail energy and the vacuous report of a
zero signal.  It reads the record's profile (``Fibers.profile``): a signal's
``exact_profile`` where it has one (an interval spectrum's periodized pieces, resolving
detail far below grid resolution), else the unit-grid cells.  Theorem 5's (d) reads a
supported signal's time values at its ``support_shifts``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConstructionRefusedError, DegenerateSpaceError, PreconditionError
from .grid import FrequencyGrid
from .reports import ConditionCheck
from .signals import GridSpectrum, PeriodizedProfile, Signal, dual_energy, pad_band
from .spaces import (
    KERNEL_TOL,
    MEMBER_TOL,
    VANISH_TOL,
    SamplingSpace,
    build_space,
    member_residual,
    project,
    sz99_report,
    _probe_points,
    _sampling_function,
)
from .spectral import (
    DEFAULT_EPS,
    DEFAULT_K_MAX,
    Fibers,
    _guarded_support,
    divide_on_support,
    fibers,
    guard_level,
    spectral_norm,
    union_rows,
    zak_time_fiber,
)

# unbounded-ratio falsifier: flag when the per-piece sup is attained at the
# finest scales and exceeds the coarse-scale sup (pieces no shorter than
# COARSE_LEN) by TREND_FACTOR; scale-uniform bounded profiles stay quiet
COARSE_LEN = 1.0 / 64
TREND_FACTOR = 2.0
TREND_FLOOR = 4.0


@dataclass
class ConditionReport:
    """Verdicts and computed constants for one membership criterion."""

    criterion: str
    checks: list[ConditionCheck]  # member_residual, kernel_mask_residual, kernel_projection_residual
    passed: bool
    vacuous: bool = False
    constants: dict = field(default_factory=dict)
    tail_energy: float = 0.0
    note: str = ""
    record: Fibers | None = field(default=None, repr=False, compare=False)  # the fibers judged; not reported


def _unbounded_trend(lengths: np.ndarray, ratios: np.ndarray) -> tuple[bool, float, float]:
    """(diverging, coarse_sup, full_sup) for a per-piece ratio profile."""
    finite = np.isfinite(ratios)
    if not np.any(finite):
        return False, np.nan, np.nan
    full = float(np.max(ratios[finite]))
    coarse_sel = finite & (lengths >= COARSE_LEN)
    if not np.any(coarse_sel):
        return False, np.nan, full
    coarse = float(np.max(ratios[coarse_sel]))
    diverging = full > TREND_FLOOR and full >= TREND_FACTOR * coarse
    return diverging, coarse, full


def _bounded_ratio(name: str, ratios: np.ndarray, on: np.ndarray,
                   lengths: np.ndarray) -> ConditionCheck:
    """A per-piece ratio bounded on the support set: its sup over the
    pieces (NaN pieces skipped) is finite and shows no unbounded trend."""
    sel = ratios[on]
    bound = float(np.nanmax(sel))
    diverging, coarse, full = _unbounded_trend(lengths[on], sel)
    detail = (f"unbounded trend: fine-scale sup {full:.3g} vs coarse {coarse:.3g}"
              if diverging else "")
    return ConditionCheck(name, bool(np.isfinite(bound) and not diverging), bound, detail=detail)


def _judge(f: Signal, grid: FrequencyGrid, eps: float, k_max: int, criterion: str, body, *,
           names: tuple[str, ...], vacuous: dict,
           note: str = "zero signal: conditions hold vacuously",
           requires: str = "") -> ConditionReport:
    """The skeleton of theorems 2, 5 and sz04.  Refuses a signal outside
    the integrable-spectrum class when ``requires`` names the criterion;
    builds the fibers; on their profile, the support set ``on`` (pieces above the Grammian's
    guard level) and ``ok``, its pieces where |Z| = ``absz`` is above its ``guard``; and
    the tail energy.  It reports a zero signal as a vacuous pass of the checks ``names``,
    with the constants ``vacuous`` and the ``note``; otherwise ``body(fib, prof, on, ok,
    absz, guard)`` returns the checks and constants."""
    if requires and not f.integrable_spectrum:
        raise PreconditionError(
            f"{requires} requires an absolutely integrable spectrum; "
            "this signal is flagged outside that class -- use the theorem-2 criterion"
        )
    fib = fibers(f, grid, eps, k_max)
    prof = fib.profile
    on = prof.sq_sum > guard_level(prof.sq_sum, eps)
    absz = np.abs(prof.z)
    guard = guard_level(absz, eps)
    tail = f.spectral_tail_energy(grid) + f.series_tail
    if not np.any(on):
        checks = [ConditionCheck(name, True, detail="vacuous") for name in names]
        return ConditionReport(criterion, checks, True, vacuous=True, constants=dict(vacuous),
                               tail_energy=tail, note=note, record=fib)
    checks, constants = body(fib, prof, on, on & (absz > guard), absz, guard)
    return ConditionReport(criterion, checks, all(c.passed for c in checks),
                           constants=constants, tail_energy=tail, record=fib)


def check_theorem5(f: Signal, grid: FrequencyGrid, x_probes=None, *,
                   eps: float = DEFAULT_EPS, k_max: int = DEFAULT_K_MAX,
                   seed: int = 0) -> ConditionReport:
    """Four-condition membership characterization (integrable-spectrum class).

    a) integer samples square-summable; b) two-sided bound of Grammian / |Zak|^2 on the
    support set; c) finite integral of the absolute periodization over the Zak modulus;
    d) dual-fiber energy uniformly bounded over a probe set of time offsets (the integrand is
    1-periodic in the offset, so probing [0, 1) covers the line): the profile's Gram matrix, or
    for a signal with a support its time values at its shifts, over the exact samples' |Zak|^2.
    """
    def body(fib: Fibers, prof: PeriodizedProfile, on: np.ndarray, ok: np.ndarray, absz: np.ndarray, guard: float):
        l2 = fib.samples.l2_norm
        check_a = ConditionCheck("a_samples_l2", bool(np.isfinite(l2)), l2,
                                 detail=f"tail energy {fib.samples.tail_energy:.3g}")

        bad = on & ~ok
        if np.any(bad):
            a_const = float("inf")
            check_b = ConditionCheck("b_two_sided_ratio", False, a_const,
                                     detail="Zak fiber vanishes on part of the support set")
        else:
            ratios = np.full(prof.z.shape, np.inf)
            ratios[ok] = prof.sq_sum[ok] / absz[ok] ** 2
            a_const = float(ratios[on].min())
            check_b = _bounded_ratio("b_two_sided_ratio", ratios, on, prof.lengths)

        if np.any(bad & (prof.abs_sum > guard)):
            integral = float("inf")
        else:
            contrib = np.zeros(prof.z.shape)
            contrib[ok] = prof.lengths[ok] * prof.abs_sum[ok] / absz[ok]
            integral = float(np.sum(contrib))
        check_c = ConditionCheck("c_kernel_mass", bool(np.isfinite(integral)), integral)

        probes = np.atleast_1d(np.asarray(_probe_points(seed) if x_probes is None else x_probes,
                                          dtype=float))
        if np.any(bad) or f.support is not None and np.any(ok & (fib.zak.values == 0)):  # the samples' Z vanishes
            l_const = float("inf")
        elif f.support is None:  # one energy per probe, pieces weighted by length / |Z|^2 on ok, 0 off it
            weights = np.divide(prof.lengths, absz ** 2, out=np.zeros(absz.shape), where=ok)
            l_const = float(np.max(dual_energy(prof.coeffs, prof.shifts, probes, weights), initial=0.0))
        else:  # v G v^H over v_k = f(x - floor(x) + k), G[k, l] = sum_c w_c exp(-2i*pi*(k - l)*c/N)
            weights = np.divide(prof.lengths, np.abs(fib.zak.values) ** 2, out=np.zeros(absz.shape), where=ok)
            ks = f.support_shifts()
            v = f.time_values(np.add.outer(probes - np.floor(probes), ks))
            gram = np.fft.fft(weights)[np.subtract.outer(ks, ks) % grid.resolution]
            l_const = float(np.max(np.sum((v @ gram) * np.conj(v), axis=1).real, initial=0.0))
        check_d = ConditionCheck("d_dual_energy", bool(np.isfinite(l_const)), l_const,
                                 detail=f"{probes.size} probe offsets")

        constants = {"A": a_const, "B": check_b.value, "L": l_const, "integral": integral,
                     "samples_l2": l2, "exact_pieces": prof.exact, "x_probes": probes}
        return [check_a, check_b, check_c, check_d], constants

    return _judge(f, grid, eps, k_max, "theorem5", body, requires="the theorem-5 criterion",
                  names=("a_samples_l2", "b_two_sided_ratio", "c_kernel_mass", "d_dual_energy"),
                  vacuous={"A": None, "B": None, "L": 0.0, "integral": 0.0})


def check_sz04(f: Signal, grid: FrequencyGrid, *, eps: float = DEFAULT_EPS) -> ConditionReport:
    """Sufficient-condition pair on the periodized spectrum.

    First inequality: |periodization|^2 is dominated by the Grammian.
    Second: the squared absolute periodization is dominated by
    |periodization|^2.  The second fails either outright (periodization
    vanishing where absolute mass remains) or by an unbounded fine-scale
    ratio trend.
    """
    def body(fib: Fibers, prof: PeriodizedProfile, on: np.ndarray, ok: np.ndarray, absz: np.ndarray, guard: float):
        # A |Z|^2 <= G: constrained only where Z is nonzero; best A = min G/|Z|^2
        if np.any(ok):
            a_const = float(np.min(prof.sq_sum[ok] / absz[ok] ** 2))
            pass1 = a_const > 0
        else:
            a_const = None
            pass1 = True  # Z == 0 a.e. on the support: inequality is vacuous
        check1 = ConditionCheck("lower_domination", bool(pass1), a_const)

        # (sum |f_hat|)^2 <= B |Z|^2
        stranded = on & ~ok & (prof.abs_sum > max(guard, 1e-300))
        ratios = np.full(prof.z.shape, np.nan)
        ratios[ok] = (prof.abs_sum[ok] / absz[ok]) ** 2
        if np.any(stranded):
            check2 = ConditionCheck("upper_domination", False, float("inf"),
                                    detail="periodization vanishes where absolute mass remains")
            worst = None
        else:
            check2 = _bounded_ratio("upper_domination", ratios, on, prof.lengths)
            idx = np.flatnonzero(on)[int(np.nanargmax(ratios[on]))]
            worst = (float(prof.starts[idx]), float(prof.starts[idx] + prof.lengths[idx]),
                     float(ratios[idx]))

        constants = {
            "A": a_const,
            "B": check2.value,
            "worst_piece": worst,
            "piece_starts": prof.starts[on],
            "piece_lengths": prof.lengths[on],
            "piece_ratios": ratios[on],
            "exact_pieces": prof.exact,
        }
        return [check1, check2], constants

    return _judge(f, grid, eps, DEFAULT_K_MAX, "sz04", body,
                  requires="the sufficient-condition pair",
                  names=("lower_domination", "upper_domination"), vacuous={})


def check_theorem2(f: Signal, grid: FrequencyGrid, *, eps: float = DEFAULT_EPS,
                   k_max: int = DEFAULT_K_MAX, seed: int = 0) -> ConditionReport:
    """Normalized-function membership criterion.

    Divides f_hat by its Zak fiber on the support set and runs the
    sampling-space certificate on the result with f's support set:
    continuous, bounded shift-square sum, and Zak modulus bounded away
    from zero exactly on the support set.
    """
    def body(fib: Fibers, *_):
        h = _sampling_function(fib)  # the certificate reads h and its Zak fiber, on f's set
        zak = zak_time_fiber(h.integer_samples(grid, k_max), grid)
        cert = sz99_report(replace(fib, signal=h, zak=zak), seed=seed)
        return cert.checks, {"A": cert.zak_lower, "B": cert.zak_upper,
                             "shift_bound": cert.shift_sum_bound, "normalization": "zak"}

    return _judge(f, grid, eps, k_max, "theorem2", body,
                  names=("continuity", "shift_square_sum", "zak_two_sided"),
                  vacuous={"A": None, "B": None, "normalization": "zak"},
                  note="zero signal: empty support set")


@dataclass(frozen=True)
class InducedSubspace:
    """The sampling space S(f) spanned by the translates of one member."""

    parent: SamplingSpace
    member: Signal
    space: SamplingSpace
    sampling_function: Signal
    checks: list[ConditionCheck]  # member_residual, kernel_mask_residual, kernel_projection_residual


def induced_subspace(space: SamplingSpace, f: Signal) -> InducedSubspace:
    """Build S(f) for a certified member f and measure both kernel identities."""
    grid = space.grid
    residual = member_residual(space, f, "signal")
    fib = fibers(f, grid, space.mask.eps, space.k_max)
    h = _sampling_function(fib)
    sub = build_space(h, grid, eps=space.mask.eps, k_max=space.k_max, seed=space.seed)

    # the normalized signal itself is the sampling function of S(f); both
    # characterizations are verified against it
    kernel = space.sampling_spectrum
    h_rows, s_rows, p_rows = union_rows([h, kernel, project(kernel, sub)], grid)
    d_mask = float(np.max(np.abs(h_rows - np.where(fib.mask.values, s_rows, 0.0))))
    d_proj = spectral_norm(h_rows - p_rows, grid)

    return InducedSubspace(space, f, sub, h, [
        ConditionCheck("member_residual", residual <= MEMBER_TOL, residual, MEMBER_TOL),
        ConditionCheck("kernel_mask_residual", d_mask <= KERNEL_TOL, d_mask, KERNEL_TOL),
        ConditionCheck("kernel_projection_residual", d_proj <= KERNEL_TOL, d_proj, KERNEL_TOL)])


def construct_s_from_f(f: Signal, grid: FrequencyGrid, *, eps: float = DEFAULT_EPS,
                       k_max: int = DEFAULT_K_MAX, seed: int = 0,
                       report: ConditionReport | None = None) -> SamplingSpace:
    """Build the canonical space V(s) containing f.

    The kernel spectrum is f_hat / Z_f on the support set, one on the
    first-period complement of the support, zero elsewhere; its integer
    samples come out as the unit impulse, so the kernel interpolates.
    Z_f(0, .) is read from theorem 5's record (the report's), from the periodization
    (by Poisson the same fiber in the integrable-spectrum class), so a spectrum
    the grid truncates is divided by the fiber of what the grid holds.
    """
    if report is None:
        report = check_theorem5(f, grid, eps=eps, k_max=k_max, seed=seed)
    if not report.passed:
        raise ConstructionRefusedError(
            "membership characterization failed; kernel construction refused", report=report
        )
    fib = report.record if report.record is not None else fibers(f, grid, eps, k_max)
    if fib.mask.is_empty:
        raise DegenerateSpaceError("empty support set: canonical kernel is degenerate")

    zak, k = fib.periodization.values, grid.half_bandwidth
    band = slice(min(fib.band.start, k), max(fib.band.stop, k + 1))  # f's rows and the row of m = 0
    svals = pad_band(fib.band, divide_on_support(fib.cells.coeffs, zak, fib.mask), band)
    svals[k - band.start, ~_guarded_support(zak, fib.mask)] = 1.0

    s_sig = GridSpectrum.from_band(band, svals, grid, integrable_spectrum=True)
    space = build_space(s_sig, grid, eps=eps, k_max=k_max, seed=seed)

    # internal consistency: f_hat = Z_f * s_hat and s(k) = delta_0k
    s_rows, f_rows = union_rows([space.sampling_spectrum, f], grid)
    scale = max(float(np.max(np.abs(fib.cells.coeffs))), 1e-300)
    dev = float(np.max(np.abs(zak * s_rows - f_rows)))
    if dev > VANISH_TOL * scale:
        raise ConstructionRefusedError(
            f"constructed kernel fails to reproduce the signal (relative deviation "
            f"{dev / scale:.3g}, tolerance {VANISH_TOL:.3g})", report=report)
    ks = space.kernel_samples()
    dev = float(np.max(np.abs(ks.values - np.where(ks.ks == 0, 1.0, 0.0))))
    if dev > VANISH_TOL:
        raise ConstructionRefusedError(
            f"constructed kernel is not interpolating (sample deviation {dev:.3g}, "
            f"tolerance {VANISH_TOL:.3g})", report=report)
    return space
