"""Membership tests: does an L2 function belong to (some) sampling space.

Four criteria are implemented:

* ``induced_subspace`` -- a member f of a certified space spans a sampling
  space S(f) of its own whose kernel is the masked parent kernel and,
  equivalently, the projection of the parent kernel onto S(f).
* ``check_theorem2`` -- normalize f by its Zak fiber and run the
  sampling-space certificate on the normalized function.
* ``check_theorem5`` -- the four-condition characterization for signals
  with absolutely integrable spectrum (square-summable samples, two-sided
  Grammian/Zak ratio, integrable kernel mass, uniformly bounded dual-fiber
  energy).
* ``check_sz04`` -- the stronger sufficient-condition pair; its second
  inequality can fail where the characterization above still passes.

Piecewise-constant spectra are analyzed on their exact periodized piece
structure (resolving detail far below grid resolution); everything else
is analyzed at grid resolution, one piece per unit-grid cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConstructionRefusedError,
    DegenerateSpaceError,
    PreconditionError,
)
from .grid import FrequencyGrid
from .reports import ConditionCheck
from .signals import GridSpectrum, PeriodizedProfile, Signal
from .spaces import (
    MEMBER_TOL,
    SamplingSpace,
    build_space,
    member_residual,
    project,
    sz99_report,
    _probe_points,
)
from .spectral import (
    DEFAULT_EPS,
    DEFAULT_K_MAX,
    Fibers,
    divide_on_support,
    fibers,
    guard_level,
    integer_samples,
    spectral_norm,
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
    checks: list[ConditionCheck]
    passed: bool
    vacuous: bool = False
    constants: dict = field(default_factory=dict)
    tail_energy: float = 0.0
    note: str = ""

    def to_dict(self) -> dict:
        def clean(v):
            if isinstance(v, np.ndarray):
                return v.tolist()
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            if isinstance(v, complex):
                return {"re": v.real, "im": v.imag}
            if isinstance(v, tuple):
                return [clean(x) for x in v]
            return v

        return {
            "criterion": self.criterion,
            "checks": [c.to_dict() for c in self.checks],
            "passed": self.passed,
            "vacuous": self.vacuous,
            "constants": {k: clean(v) for k, v in self.constants.items()},
            "tail_energy": self.tail_energy,
            "note": self.note,
        }


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


def _require_integrable(f: Signal, criterion: str) -> None:
    if not f.integrable_spectrum:
        raise PreconditionError(
            f"{criterion} requires an absolutely integrable spectrum; "
            "this signal is flagged outside that class -- use the theorem-2 criterion"
        )


def check_theorem5(f: Signal, grid: FrequencyGrid, x_probes=None, *,
                   eps: float = DEFAULT_EPS, k_max: int = DEFAULT_K_MAX,
                   seed: int = 0) -> ConditionReport:
    """Four-condition membership characterization (integrable-spectrum class).

    a) integer samples square-summable; b) two-sided bound of
    Grammian / |Zak|^2 on the support set; c) finite integral of the
    absolute periodization over the Zak modulus; d) dual-fiber energy
    uniformly bounded over a probe set of time offsets (the integrand is
    1-periodic in the offset, so probing [0, 1) covers the line).
    """
    _require_integrable(f, "the theorem-5 criterion")
    fib = fibers(f, grid, eps, k_max)
    prof = PeriodizedProfile.from_fibers(fib)
    on = prof.sq_sum > guard_level(prof.sq_sum, eps)

    tail = f.spectral_tail_energy(grid) + float(getattr(f, "series_tail", 0.0))

    if not np.any(on):
        checks = [ConditionCheck("a_samples_l2", True, 0.0, detail="empty support"),
                  ConditionCheck("b_two_sided_ratio", True, detail="vacuous"),
                  ConditionCheck("c_kernel_mass", True, 0.0),
                  ConditionCheck("d_dual_energy", True, 0.0)]
        return ConditionReport("theorem5", checks, True, vacuous=True,
                               constants={"A": None, "B": None, "L": 0.0, "integral": 0.0},
                               tail_energy=tail, note="zero signal: conditions hold vacuously")

    l2 = fib.samples.l2_norm
    check_a = ConditionCheck("a_samples_l2", bool(np.isfinite(l2)), l2,
                             detail=f"tail energy {fib.samples.tail_energy:.3g}")

    absz = np.abs(prof.z)
    guard = guard_level(absz, eps)
    ok = on & (absz > guard)
    bad = on & ~ok
    ratios = np.full(prof.z.shape, np.inf)
    ratios[ok] = prof.sq_sum[ok] / absz[ok] ** 2
    if np.any(bad):
        a_const, b_const = float("inf"), float("inf")
        b_ok = False
        b_detail = "Zak fiber vanishes on part of the support set"
    else:
        sel = ratios[on]
        a_const, b_const = float(sel.min()), float(sel.max())
        diverging, coarse, full = _unbounded_trend(prof.lengths[on], sel)
        b_ok = bool(np.isfinite(b_const) and not diverging)
        b_detail = (f"unbounded trend: fine-scale sup {full:.3g} vs coarse {coarse:.3g}"
                    if diverging else "")
    check_b = ConditionCheck("b_two_sided_ratio", b_ok, b_const, detail=b_detail)

    if np.any(bad & (prof.abs_sum > guard)):
        integral = float("inf")
    else:
        contrib = np.zeros(prof.z.shape)
        contrib[ok] = prof.lengths[ok] * prof.abs_sum[ok] / absz[ok]
        integral = float(np.sum(contrib))
    check_c = ConditionCheck("c_kernel_mass", bool(np.isfinite(integral)), integral)

    x_probes = np.atleast_1d(np.asarray(_probe_points(seed) if x_probes is None else x_probes,
                                        dtype=float))
    if np.any(bad):
        l_const = float("inf")
    else:  # one energy per probe: |dual|^2 (P, pieces) @ piece weights
        energy = np.abs(prof.dual(x_probes)[:, ok]) ** 2 @ (prof.lengths[ok] / absz[ok] ** 2)
        l_const = float(np.max(energy, initial=0.0))
    check_d = ConditionCheck("d_dual_energy", bool(np.isfinite(l_const)), l_const,
                             detail=f"{x_probes.size} probe offsets")

    checks = [check_a, check_b, check_c, check_d]
    passed = all(c.passed for c in checks)
    constants = {"A": a_const, "B": b_const, "L": l_const, "integral": integral,
                 "samples_l2": l2, "exact_pieces": prof.exact,
                 "x_probes": x_probes}
    return ConditionReport("theorem5", checks, passed, constants=constants, tail_energy=tail)


def check_sz04(f: Signal, grid: FrequencyGrid, *, eps: float = DEFAULT_EPS) -> ConditionReport:
    """Sufficient-condition pair on the periodized spectrum.

    First inequality: |periodization|^2 is dominated by the Grammian.
    Second: the squared absolute periodization is dominated by
    |periodization|^2.  The second fails either outright (periodization
    vanishing where absolute mass remains) or by an unbounded fine-scale
    ratio trend.
    """
    _require_integrable(f, "the sufficient-condition pair")
    prof = PeriodizedProfile.from_fibers(fibers(f, grid, eps))
    on = prof.sq_sum > guard_level(prof.sq_sum, eps)

    tail = f.spectral_tail_energy(grid) + float(getattr(f, "series_tail", 0.0))

    if not np.any(on):
        checks = [ConditionCheck("lower_domination", True, detail="vacuous"),
                  ConditionCheck("upper_domination", True, detail="vacuous")]
        return ConditionReport("sz04", checks, True, vacuous=True, tail_energy=tail,
                               note="zero signal: conditions hold vacuously")

    absz = np.abs(prof.z)
    guard = guard_level(absz, eps)
    ok = on & (absz > guard)

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
        b_const = float("inf")
        pass2 = False
        detail = "periodization vanishes where absolute mass remains"
        worst = None
    else:
        sel = ratios[on]
        b_const = float(np.nanmax(sel))
        diverging, coarse, full = _unbounded_trend(prof.lengths[on], sel)
        pass2 = bool(np.isfinite(b_const) and not diverging)
        detail = (f"unbounded trend: fine-scale sup {full:.3g} vs coarse {coarse:.3g}"
                  if diverging else "")
        idx = np.flatnonzero(on)[int(np.nanargmax(sel))]
        worst = (float(prof.starts[idx]), float(prof.starts[idx] + prof.lengths[idx]),
                 float(ratios[idx]))
    check2 = ConditionCheck("upper_domination", pass2, b_const, detail=detail)

    constants = {
        "A": a_const,
        "B": b_const,
        "worst_piece": worst,
        "piece_starts": prof.starts[on],
        "piece_lengths": prof.lengths[on],
        "piece_ratios": ratios[on],
        "exact_pieces": prof.exact,
    }
    return ConditionReport("sz04", [check1, check2], bool(pass1 and pass2),
                           constants=constants, tail_energy=tail)


def _normalized_signal(fib: Fibers, normalization: str) -> GridSpectrum:
    """h_hat = f_hat / Z_f(0,.) (or / G_f) on the support set, zero off it."""
    if normalization == "zak":
        denom = fib.zak.values
    elif normalization == "grammian":
        denom = fib.grammian.values.astype(complex)
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    vals = divide_on_support(fib.folded, denom, fib.mask)
    return GridSpectrum(vals.ravel(), fib.grid, integrable_spectrum=fib.signal.integrable_spectrum)


def check_theorem2(f: Signal, grid: FrequencyGrid, *, normalization: str = "zak",
                   eps: float = DEFAULT_EPS, k_max: int = DEFAULT_K_MAX,
                   seed: int = 0) -> ConditionReport:
    """Normalized-function membership criterion.

    Divides f_hat by its Zak fiber (default; a ``grammian`` variant is
    kept behind the flag) on the support set and runs the sampling-space
    certificate on the result with f's support set: continuous, bounded
    shift-square sum, and Zak modulus bounded away from zero exactly on
    the support set.
    """
    fib = fibers(f, grid, eps, k_max)
    tail = f.spectral_tail_energy(grid) + float(getattr(f, "series_tail", 0.0))
    if fib.mask.is_empty:
        checks = [ConditionCheck("continuity", True, detail="vacuous"),
                  ConditionCheck("shift_square_sum", True, 0.0),
                  ConditionCheck("zak_two_sided", True, detail="empty support")]
        return ConditionReport("theorem2", checks, True, vacuous=True, tail_energy=tail,
                               constants={"A": None, "B": None, "normalization": normalization},
                               note="zero signal: empty support set")

    h = _normalized_signal(fib, normalization)
    zh = zak_time_fiber(integer_samples(h, grid, k_max), grid)
    cert = sz99_report(h, fib.mask, zh, k_max=k_max, seed=seed)
    constants = {"A": cert.zak_lower, "B": cert.zak_upper, "shift_bound": cert.shift_sum_bound,
                 "normalization": normalization}
    return ConditionReport("theorem2", cert.checks, cert.passed, constants=constants,
                           tail_energy=tail)


@dataclass(frozen=True)
class InducedSubspace:
    """The sampling space S(f) spanned by the translates of one member."""

    parent: SamplingSpace
    member: Signal
    space: SamplingSpace
    sampling_function: Signal
    member_residual: float
    kernel_mask_residual: float        # sup |s_f_hat - s_hat * chi_{E_f}|
    kernel_projection_residual: float  # || s_f - project(parent kernel, S(f)) ||


def induced_subspace(space: SamplingSpace, f: Signal, *,
                     member_tol: float = MEMBER_TOL) -> InducedSubspace:
    """Build S(f) for a certified member f and verify both kernel identities."""
    grid = space.grid
    residual = member_residual(space, f, member_tol, "signal")
    fib = fibers(f, grid, space.eps, space.k_max)
    h = _normalized_signal(fib, "zak")
    sub = build_space(h, grid, eps=space.eps, k_max=space.k_max)

    # the normalized signal itself is the sampling function of S(f); both
    # characterizations are verified against it
    h_vals = h.grid_values(grid)
    s_parent = space.sampling_spectrum.grid_values(grid)
    masked_parent = np.where(fib.mask.tile(), s_parent, 0.0)
    d_mask = float(np.max(np.abs(h_vals - masked_parent)))

    proj = project(space.sampling_spectrum, sub).values
    d_proj = spectral_norm(h_vals - proj, grid)

    return InducedSubspace(space, f, sub, h,
                           member_residual=residual,
                           kernel_mask_residual=d_mask,
                           kernel_projection_residual=d_proj)


def construct_s_from_f(f: Signal, grid: FrequencyGrid, *, eps: float = DEFAULT_EPS,
                       k_max: int = DEFAULT_K_MAX, seed: int = 0,
                       report: ConditionReport | None = None) -> SamplingSpace:
    """Build the canonical space V(s) containing f.

    The kernel spectrum is f_hat / Z_f on the support set, one on the
    first-period complement of the support, zero elsewhere; its integer
    samples come out as the unit impulse, so the kernel interpolates.
    """
    if report is None:
        report = check_theorem5(f, grid, eps=eps, k_max=k_max, seed=seed)
    if not report.passed:
        raise ConstructionRefusedError(
            "membership characterization failed; kernel construction refused", report=report
        )
    fib = fibers(f, grid, eps, k_max)
    if fib.mask.is_empty:
        raise DegenerateSpaceError("empty support set: canonical kernel is degenerate")

    svals = divide_on_support(fib.folded, fib.zak.values, fib.mask)
    svals[grid.half_bandwidth, ~fib.zak_support] = 1.0  # fold row of the shift m = 0

    s_sig = GridSpectrum(svals.ravel(), grid, integrable_spectrum=True)
    space = build_space(s_sig, grid, eps=eps, k_max=k_max, seed=seed)

    # internal consistency: f_hat = Z_f * s_hat and s(k) = delta_0k
    recon = fib.zak.values * grid.fold(space.sampling_spectrum.grid_values(grid))
    scale = max(float(np.max(np.abs(fib.folded))), 1e-300)
    if float(np.max(np.abs(recon - fib.folded))) > 1e-6 * scale:
        raise ConstructionRefusedError("constructed kernel fails to reproduce the signal",
                                       report=report)
    ks = space.kernel_samples()
    delta = np.where(ks.ks == 0, 1.0, 0.0)
    if float(np.max(np.abs(ks.values - delta))) > 1e-6:
        raise ConstructionRefusedError("constructed kernel is not interpolating",
                                       report=report)
    return space
