"""Sampling spaces: certification, the sampling kernel, synthesis,
reconstruction and orthogonal projection.

A space V(phi) earns a certificate when its generator passes three
numerical checks (the two-sided Zak bound on the spectral support, a
bounded shift-square sum, and continuity: proved for an interval spectrum,
else a falsifier on a dense grid).  The sampling
kernel is s_hat = phi_hat / Z_phi(0, .) on the support set and zero off
it; reconstruction from integer samples then follows f_hat = Z_f * s_hat.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpaceError,
    NotASamplingSpaceError,
    NotInSpaceError,
    PreconditionError,
    TruncationError,
)
from .grid import FrequencyGrid, PeriodicSpectrum, SupportMask, TimeSamples, _sorted_unique, pow2_at_least
from .reports import ConditionCheck
from .signals import GridSpectrum, ShiftCombination, Signal
from .spectral import (
    DEFAULT_EPS,
    DEFAULT_K_MAX,
    Fibers,
    _guarded_support,
    bracket,
    divide_on_support,
    essential_bounds,
    fibers,
    grammian,
    integer_samples,
    shift_square_sum,
    spectral_norm,
    union_rows,
)

# continuity falsifier: max jump on a dense grid must stay below
# JUMP_COEFF * sqrt(dx); calibrated so every continuous catalog kernel
# (slopes up to ~pi) passes with a 10x margin while O(1) jumps fail
CONTINUITY_DX = 1.0 / 256
JUMP_COEFF = 2.0
_PROOF = "continuous by proof: finitely many bounded spectrum pieces, so f_hat is in L1 with compact support"
SHIFT_SUM_CAP = 1e6
# membership tolerances: relative projection residual of a member, and
# sup deviation between two forms of one kernel (relative where a scale exists)
MEMBER_TOL = 1e-8
KERNEL_TOL = 1e-9
# sup a quantity that should vanish may keep (relative where a scale exists):
# the Zak fiber off the support set, a constructed kernel's deviation from
# reproducing its signal and from interpolating
VANISH_TOL = 1e-6


@dataclass(frozen=True)
class SZ99Report:
    """Verdicts of the three sampling-space checks for one candidate."""

    continuity_verdict: str          # "pass" | "indeterminate" | "fail"
    continuity_max_jump: float | None  # None (and no threshold): continuous by proof
    continuity_threshold: float | None
    shift_sum_bound: float
    shift_sum_pass: bool
    zak_lower: float                 # A_Z: min |Z(0,.)| on the support set
    zak_lower_at: float              # the unit-interval node where A_Z is attained
    zak_upper: float                 # B_Z: max |Z(0,.)| on the support set
    zak_floor: float                 # eps * B_Z: A_Z must be above it
    zak_off_support_max: float
    zak_pass: bool
    support_measure: float
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "continuity": {
                "verdict": self.continuity_verdict,
                "max_jump": self.continuity_max_jump,
                "threshold": self.continuity_threshold,
            },
            "shift_square_sum": {
                "bound": self.shift_sum_bound,
                "cap": SHIFT_SUM_CAP,
                "passed": self.shift_sum_pass,
            },
            "zak_bound": {
                "lower": self.zak_lower,
                "lower_at": self.zak_lower_at,
                "upper": self.zak_upper,
                "off_support_max": self.zak_off_support_max,
                "passed": self.zak_pass,
            },
            "support_measure": self.support_measure,
            "passed": self.passed,
            "note": self.note,
        }

    @property
    def checks(self) -> list[ConditionCheck]:
        return [ConditionCheck("continuity", self.continuity_verdict == "pass",
                               self.continuity_max_jump, self.continuity_threshold,
                               detail=_PROOF if self.continuity_threshold is None else self.continuity_verdict),
                ConditionCheck("shift_square_sum", self.shift_sum_pass, self.shift_sum_bound,
                               SHIFT_SUM_CAP),
                ConditionCheck("zak_two_sided", self.zak_pass, self.zak_lower, self.zak_floor,
                               detail=f"A at omega = {self.zak_lower_at:.6g}, "
                                      f"B = {self.zak_upper:.6g}, off-support max "
                                      f"{self.zak_off_support_max:.3g} vs limit "
                                      f"{VANISH_TOL * self.zak_upper:.3g}")]


def _continuity_check(candidate: Signal) -> tuple[str, float | None, float | None]:
    """A signal with a finite exact profile passes with no time values (``_PROOF``); any other signal's largest
    step, at spacing CONTINUITY_DX, over the unit cells at its ``support_shifts`` (spectral: the cells of [-8, 8));
    f vanishes at both ends of each window of shifts, so a step across a gap between windows is 0."""
    if (prof := candidate.exact_profile) is not None and np.all(np.isfinite(prof.coeffs)):
        return "pass", None, None
    cells = np.arange(-8, 8) if candidate.support is None else candidate.support_shifts()
    xs = _sorted_unique(np.add.outer(cells, np.linspace(0.0, 1.0, int(round(1 / CONTINUITY_DX)) + 1)))
    try:
        max_jump = float(np.max(np.abs(np.diff(candidate.time_values(xs)))))
    except PreconditionError:  # a non-finite spectrum node: the jump is unknown
        max_jump = float("nan")
    threshold = JUMP_COEFF * np.sqrt(CONTINUITY_DX)
    ratio = max_jump / threshold  # NaN passes neither comparison: "fail"
    verdict = "pass" if ratio <= 1.0 else "indeterminate" if ratio <= 2.0 else "fail"
    return verdict, max_jump, threshold


def _probe_points(seed: int) -> np.ndarray:
    """64 uniform offsets k/64, then 64 seeded ones in [0, 1): the golden-ratio Weyl sequence
    n/phi mod 1 at n = 64*seed + 1 .. 64*seed + 64, in exact 64-bit fixed point, so the same
    on every platform and numpy version; by the three-gap theorem they cover [0, 1) evenly."""
    seed = operator.index(seed)  # a non-integer seed raises TypeError, as numpy's generators do
    if seed < 0:
        raise ValueError(f"expected a nonnegative integer seed, got {seed}")
    n = np.arange(64, dtype=np.uint64) + np.uint64((64 * seed + 1) % 2 ** 64)  # the uint64 sums wrap mod 2^64
    return np.concatenate([np.arange(64) / 64, (n * np.uint64(0x9E3779B97F4A7C15) >> np.uint64(11)) / 2.0 ** 53])


def check_sz99(candidate: Signal, grid: FrequencyGrid, *, eps: float = DEFAULT_EPS,
               k_max: int = DEFAULT_K_MAX, seed: int = 0) -> SZ99Report:
    """Run the sampling-space certificate on a candidate generator.

    Continuity is proved for an interval spectrum, else a falsifier (a discontinuity this
    dense grid cannot see stays unseen); the two-sided Zak bound is evaluated at grid
    resolution, the shift-square sum over the candidate's profile (``shift_square_sum``).
    """
    return sz99_report(fibers(candidate, grid, eps, k_max), seed=seed)


def sz99_report(fib: Fibers, *, seed: int = 0) -> SZ99Report:
    """The certificate of a record's signal, support set (whose eps the Zak bound
    is held to) and Zak fiber: ``check_sz99`` passes the candidate's own record;
    theorem 2 one that carries the original signal's set."""
    candidate, mask, zak = fib.signal, fib.mask, fib.zak
    if mask.is_empty:
        return SZ99Report("fail", 0.0, JUMP_COEFF * np.sqrt(CONTINUITY_DX),
                          0.0, False, 0.0, 0.0, 0.0, 0.0, 0.0, False, 0.0, False,
                          note="degenerate: empty spectral support")

    verdict, max_jump, threshold = _continuity_check(candidate)

    sss = shift_square_sum(candidate, _probe_points(seed), fib.grid)
    shift_pass = bool(np.isfinite(sss.bound) and sss.bound <= SHIFT_SUM_CAP)

    absz = np.abs(zak.values)
    on = mask.values
    low = np.flatnonzero(on)[np.argmin(absz[on])]
    a_z, b_z = float(absz[low]), float(absz[on].max())
    floor = mask.eps * b_z
    off_max = float(absz[~on].max()) if np.any(~on) else 0.0
    zak_pass = bool(a_z > floor and off_max <= VANISH_TOL * max(b_z, 1e-300))

    passed = verdict == "pass" and shift_pass and zak_pass
    return SZ99Report(verdict, max_jump, threshold, sss.bound, shift_pass, a_z,
                      float(fib.grid.unit_omegas[low]), b_z, floor, off_max, zak_pass,
                      mask.measure, passed)


def tight_frame_generator(psi: Signal, grid: FrequencyGrid,
                          eps: float = DEFAULT_EPS) -> GridSpectrum:
    """Normalize a generator so its translates form a tight frame:
    divide the spectrum by sqrt(Grammian) on the support set."""
    fib = fibers(psi, grid, eps)
    if fib.mask.is_empty:
        raise DegenerateSpaceError("zero generator has no tight-frame normalization")
    out = divide_on_support(fib.cells.coeffs, np.sqrt(fib.grammian.real_values), fib.mask)
    return GridSpectrum.from_band(fib.band, out, grid, integrable_spectrum=psi.integrable_spectrum)


@dataclass(frozen=True)
class SamplingSpace:
    """A certified (or explicitly unchecked) sampling space V(generator)."""

    generator: Signal
    grid: FrequencyGrid
    grammian: PeriodicSpectrum
    mask: SupportMask
    zak: PeriodicSpectrum            # Z(0, .) the certificate read; M * Z_parent for a component
    frame_bounds: tuple[float, float]
    sampling_spectrum: Signal
    sz99: SZ99Report
    certified: bool
    k_max: int = DEFAULT_K_MAX
    seed: int = 0                    # the certificate's probe seed, which sub-certificates reuse

    def kernel_samples(self) -> TimeSamples:
        return integer_samples(self.sampling_spectrum, self.grid, self.k_max)

    def kernel_values(self, xs) -> np.ndarray:
        return self.sampling_spectrum.time_values(xs)


def build_space(psi: Signal, grid: FrequencyGrid, *, eps: float = DEFAULT_EPS,
                k_max: int = DEFAULT_K_MAX, seed: int = 0,
                checked: bool = True) -> SamplingSpace:
    """Construct V(psi) with its sampling kernel s_hat = psi_hat / Z_psi.

    ``checked=True`` (default) raises ``NotASamplingSpaceError`` with the
    certificate when it fails; ``checked=False`` constructs an uncertified
    space for exploration (reconstruction refuses to run on it).
    """
    return _space(fibers(psi, grid, eps, k_max), seed=seed, checked=checked)


def _space(fib: Fibers, *, seed: int, checked: bool) -> SamplingSpace:
    """build_space on a Fibers record, whose Zak fiber it takes as given."""
    if fib.mask.is_empty:
        raise DegenerateSpaceError("generator has empty spectral support")
    bounds = essential_bounds(fib.grammian, fib.mask)
    sz99 = sz99_report(fib, seed=seed)
    if checked and not sz99.passed:
        raise NotASamplingSpaceError("sampling-space certificate failed", report=sz99)

    return SamplingSpace(fib.signal, fib.grid, fib.grammian, fib.mask, fib.zak, bounds,
                         _sampling_kernel_signal(fib), sz99, certified=sz99.passed,
                         k_max=fib.samples.k_max, seed=seed)


def _sampling_kernel_signal(fib: Fibers) -> Signal:
    psi, zak = fib.signal, fib.zak.values
    if not psi.grid_model and bool(np.all(_guarded_support(zak, fib.mask))):  # |Z| above its guard on all of E_f
        z0 = complex(zak[0])
        if z0 != 0 and float(np.max(np.abs(zak - z0))) <= 1e-12 * abs(z0):
            # constant Zak fiber on a full support set: the kernel is the generator
            # itself, rescaled (where Z is not 1); keep its exact representation
            return psi if z0 == 1 else psi.scaled(1.0 / z0)
    return _sampling_function(fib)


def _sampling_function(fib: Fibers) -> GridSpectrum:
    """h_hat = f_hat / Z_f(0,.) on the support set, zero off it: the sampling
    function of V(f), and theorem 2's normalized signal."""
    out = divide_on_support(fib.cells.coeffs, fib.zak.values, fib.mask)
    return GridSpectrum.from_band(fib.band, out, fib.grid, integrable_spectrum=fib.signal.integrable_spectrum)


def synthesize(space: SamplingSpace, coeffs: TimeSamples) -> ShiftCombination:
    """Member sum_k c_k * generator(. - k) with exact time and grid forms."""
    return ShiftCombination(space.generator, coeffs)


@dataclass(frozen=True)
class ReconstructionResult:
    values: np.ndarray
    route: str                 # "time" or "spectral"


def reconstruct(space: SamplingSpace, samples: TimeSamples, x_values) -> ReconstructionResult:
    """Rebuild a member from its integer samples and evaluate it.

    Both routes read sum_k f(k) s(x - k), over the stored samples, as the
    synthesis ``ShiftCombination(kernel, samples)``.  Time route (kernel
    evaluable in closed form): its time values, the kernel's ``shift_sum``.
    Spectral route (a kernel whose ``grid_model`` is all it is): its grid
    spectrum f_hat = Z_f(0,.) * s_hat, evaluated in time once.  A value
    that is not finite (|x| near 1e300) is refused, never returned.
    """
    if not space.certified:
        raise NotASamplingSpaceError(
            "space is not certified; reconstruction refuses to run",
            report=space.sz99,
        )
    xs = np.atleast_1d(np.asarray(x_values, dtype=float))
    kern = space.sampling_spectrum
    grid = space.grid
    half = grid.resolution // 2
    time_route = not kern.grid_model
    if not time_route and samples.ks.size and (samples.ks[0] < -half or samples.ks[-1] >= half):
        # the N-point fiber would fold such indices onto others
        reach = max(-int(samples.ks[0]), int(samples.ks[-1]) + 1)
        raise TruncationError(
            f"sample indices {samples.ks[0]}..{samples.ks[-1]} leave [-{half}, {half}), "
            f"which the spectral route resolves at N = {grid.resolution}; "
            f"it needs N >= {pow2_at_least(2 * reach)}"
        )
    synthesis = ShiftCombination(kern, samples)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is refused below
        if time_route:
            vals = synthesis.time_values(xs)
        else:
            vals = GridSpectrum.from_band(*synthesis.band_values(grid), grid).time_values(xs)
    if bad := np.count_nonzero(~np.isfinite(vals)):
        raise PreconditionError(f"reconstruction is not finite at {bad} of {xs.size} points")
    return ReconstructionResult(vals, "time" if time_route else "spectral")


def project(f: Signal, space: SamplingSpace) -> GridSpectrum:
    """Orthogonal projection onto the space: multiplier
    r = bracket(f, generator) / Grammian on the support set, zero off it."""
    grid = space.grid
    r = divide_on_support(bracket(f, space.generator, grid).values,
                          space.grammian.real_values, space.mask)
    band, rows = space.generator.band_values(grid)
    return GridSpectrum.from_band(band, r * rows, grid, integrable_spectrum=f.integrable_spectrum)


def member_residual(space: SamplingSpace, f: Signal, label: str = "signal") -> float:
    """Relative residual of f's projection onto the space; raises
    NotInSpaceError when f is zero or the residual exceeds MEMBER_TOL."""
    frows, prows = union_rows([f, project(f, space)], space.grid)
    norm = spectral_norm(frows, space.grid)
    if norm == 0.0:
        raise NotInSpaceError(f"{label} is identically zero", residual=0.0)
    residual = spectral_norm(prows - frows, space.grid) / norm
    if residual > MEMBER_TOL:
        raise NotInSpaceError(
            f"{label} is not a member (projection residual {residual:.3g}, "
            f"tolerance {MEMBER_TOL:.3g})",
            residual=residual,
        )
    return residual


def gram_matrix_bounds_oracle(psi: Signal, grid: FrequencyGrid, truncation: int) -> tuple[float, float]:
    """Independent frame-bound estimate: extreme eigenvalues of the T x T
    matrix of translate inner products <psi(.-j), psi(.-k)>.

    The inner products are the Fourier coefficients of the Grammian, so
    the matrix is Hermitian Toeplitz; its spectrum converges to the
    essential range of the Grammian from the inside as T grows.
    """
    if truncation < 2:
        raise ValueError("truncation must be at least 2")
    limit = grid.resolution // 2
    if truncation > limit:
        raise TruncationError(
            f"truncation {truncation} exceeds the resolvable shift range {limit}"
        )
    g = grammian(psi, grid)
    if g.max_abs() == 0.0:
        raise DegenerateSpaceError("zero generator has no frame bounds")
    coeffs = np.fft.fft(g.values.astype(complex)) / grid.resolution
    col = coeffs[:truncation]
    lag = np.subtract.outer(np.arange(truncation), np.arange(truncation))
    m = col[np.abs(lag)]  # Hermitian Toeplitz: col below the diagonal,
    m = np.where(lag >= 0, m, m.conj())  # its conjugate above
    ev = np.linalg.eigvalsh(m)
    return float(ev.min()), float(ev.max())
