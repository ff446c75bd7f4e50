"""Sampling spaces: certification, the sampling kernel, synthesis,
reconstruction and orthogonal projection.

A space V(phi) earns a certificate when its generator passes three
numerical checks (the two-sided Zak bound on the spectral support, a
bounded shift-square sum, and a continuity falsifier).  The sampling
kernel is s_hat = phi_hat / Z_phi(0, .) on the support set and zero off
it; reconstruction from integer samples then follows f_hat = Z_f * s_hat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpaceError,
    NotASamplingSpaceError,
    NotInSpaceError,
    PreconditionError,
    TruncationError,
)
from .grid import FrequencyGrid, PeriodicSpectrum, SupportMask, TimeSamples, pow2_at_least
from .reports import ConditionCheck
from .signals import (
    GridSpectrum,
    PiecewiseConstantSpectrum,
    ShiftCombination,
    Signal,
    TimeKernel,
)
from .spectral import (
    DEFAULT_EPS,
    DEFAULT_K_MAX,
    Fibers,
    bracket,
    divide_on_support,
    essential_bounds,
    fibers,
    grammian,
    integer_samples,
    shift_square_sum,
    spectral_norm,
)

# continuity falsifier: max jump on a dense grid must stay below
# JUMP_COEFF * sqrt(dx); calibrated so every continuous catalog kernel
# (slopes up to ~pi) passes with a 10x margin while O(1) jumps fail
CONTINUITY_DX = 1.0 / 256
JUMP_COEFF = 2.0
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
    continuity_max_jump: float
    continuity_threshold: float
    shift_sum_bound: float
    shift_sum_tail: float
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
                "tail_energy": self.shift_sum_tail,
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
                               detail=self.continuity_verdict),
                ConditionCheck("shift_square_sum", self.shift_sum_pass, self.shift_sum_bound,
                               SHIFT_SUM_CAP),
                ConditionCheck("zak_two_sided", self.zak_pass, self.zak_lower, self.zak_floor,
                               detail=f"A at omega = {self.zak_lower_at:.6g}, "
                                      f"B = {self.zak_upper:.6g}, off-support max "
                                      f"{self.zak_off_support_max:.3g} vs limit "
                                      f"{VANISH_TOL * self.zak_upper:.3g}")]


def _continuity_check(candidate: Signal) -> tuple[str, float, float]:
    if candidate.support is None:
        lo, hi = -8.0, 8.0
    else:
        lo, hi = candidate.support[0] - 0.5, candidate.support[1] + 0.5
    xs = np.linspace(lo, hi, int(round((hi - lo) / CONTINUITY_DX)) + 1)
    try:
        max_jump = float(np.max(np.abs(np.diff(candidate.time_values(xs)))))
    except PreconditionError:  # a non-finite spectrum node: the jump is unknown
        max_jump = float("nan")
    threshold = JUMP_COEFF * np.sqrt(CONTINUITY_DX)
    ratio = max_jump / threshold  # NaN passes neither comparison: "fail"
    verdict = "pass" if ratio <= 1.0 else "indeterminate" if ratio <= 2.0 else "fail"
    return verdict, max_jump, threshold


def _probe_points(seed: int) -> np.ndarray:
    """64 uniform offsets in [0, 1) and 64 seeded random ones."""
    rng = np.random.default_rng(seed)
    return np.concatenate([np.arange(64) / 64, rng.random(64)])


def check_sz99(candidate: Signal, grid: FrequencyGrid, *, eps: float = DEFAULT_EPS,
               k_max: int = DEFAULT_K_MAX, seed: int = 0) -> SZ99Report:
    """Run the sampling-space certificate on a candidate generator.

    Continuity is a falsifier (a discontinuity this dense grid cannot see
    stays unseen); the shift-square sum and the two-sided Zak bound are
    evaluated at grid resolution.
    """
    return sz99_report(fibers(candidate, grid, eps, k_max), seed=seed)


def sz99_report(fib: Fibers, *, seed: int = 0) -> SZ99Report:
    """The certificate of a record's signal on its support set (whose eps the
    Zak bound is held to), Zak fiber and k_max: ``check_sz99`` passes the
    candidate's own record; theorem 2 one that carries the original signal's set."""
    candidate, mask, zak = fib.signal, fib.mask, fib.zak
    if mask.is_empty:
        return SZ99Report("fail", 0.0, JUMP_COEFF * np.sqrt(CONTINUITY_DX),
                          0.0, 0.0, False, 0.0, 0.0, 0.0, 0.0, 0.0, False, 0.0, False,
                          note="degenerate: empty spectral support")

    verdict, max_jump, threshold = _continuity_check(candidate)

    sss = shift_square_sum(candidate, _probe_points(seed), fib.grid, fib.samples.k_max)
    shift_pass = bool(np.isfinite(sss.bound) and sss.bound <= SHIFT_SUM_CAP)

    absz = np.abs(zak.values)
    on = mask.values
    low = np.flatnonzero(on)[np.argmin(absz[on])]
    a_z, b_z = float(absz[low]), float(absz[on].max())
    floor = mask.eps * b_z
    off_max = float(absz[~on].max()) if np.any(~on) else 0.0
    zak_pass = bool(a_z > floor and off_max <= VANISH_TOL * max(b_z, 1e-300))

    passed = verdict == "pass" and shift_pass and zak_pass
    return SZ99Report(verdict, max_jump, threshold, sss.bound, sss.tail_energy,
                      shift_pass, a_z, float(fib.grid.unit_omegas[low]), b_z, floor, off_max,
                      zak_pass, mask.measure, passed)


def tight_frame_generator(psi: Signal, grid: FrequencyGrid,
                          eps: float = DEFAULT_EPS) -> GridSpectrum:
    """Normalize a generator so its translates form a tight frame:
    divide the spectrum by sqrt(Grammian) on the support set."""
    fib = fibers(psi, grid, eps)
    if fib.mask.is_empty:
        raise DegenerateSpaceError("zero generator has no tight-frame normalization")
    out = divide_on_support(fib.folded, np.sqrt(fib.grammian.real_values), fib.mask)
    return GridSpectrum(out.ravel(), grid, integrable_spectrum=psi.integrable_spectrum)


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
                         k_max=fib.samples.k_max)


def _sampling_kernel_signal(fib: Fibers) -> Signal:
    psi = fib.signal
    zak = fib.zak.values
    if bool(np.all(fib.zak_support)):
        z0 = complex(zak[0])
        if z0 != 0 and float(np.max(np.abs(zak - z0))) <= 1e-12 * abs(z0):
            # constant Zak fiber on a full support set: the kernel is the
            # generator itself, rescaled; keep its exact representation
            if isinstance(psi, (PiecewiseConstantSpectrum, TimeKernel)):
                return psi.scaled(1.0 / z0)
            if isinstance(psi, ShiftCombination):
                return ShiftCombination(psi.base, psi.coefficients.scaled(1.0 / z0))
    return _sampling_function(fib)


def _sampling_function(fib: Fibers) -> GridSpectrum:
    """h_hat = f_hat / Z_f(0,.) on the support set, zero off it: the sampling
    function of V(f), and theorem 2's normalized signal."""
    out = divide_on_support(fib.folded, fib.zak.values, fib.mask)
    return GridSpectrum(out.ravel(), fib.grid, integrable_spectrum=fib.signal.integrable_spectrum)


def synthesize(space: SamplingSpace, coeffs: TimeSamples) -> ShiftCombination:
    """Member sum_k c_k * generator(. - k) with exact time and grid forms."""
    return ShiftCombination(space.generator, coeffs)


@dataclass(frozen=True)
class ReconstructionResult:
    values: np.ndarray
    route: str                 # "time" or "spectral"
    truncation_tail: float

    def __iter__(self):
        return iter(self.values)


def reconstruct(space: SamplingSpace, samples: TimeSamples, x_values) -> ReconstructionResult:
    """Rebuild a member from its integer samples and evaluate it.

    Both routes read sum_k f(k) s(x - k), over the stored samples, as the
    synthesis ``ShiftCombination(kernel, samples)``.  Time route (kernel
    evaluable in closed form): its time values, summed in factored form for
    an interval-spectrum kernel and through the kernel's values at the
    differences x - k for a time kernel.  Spectral route (grid kernels): its
    grid spectrum f_hat = Z_f(0,.) * s_hat, evaluated in time once.  A value
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
    time_route = isinstance(kern, (PiecewiseConstantSpectrum, TimeKernel, ShiftCombination))
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
            vals = GridSpectrum(synthesis.grid_values(grid), grid).time_values(xs)
    if bad := np.count_nonzero(~np.isfinite(vals)):
        raise PreconditionError(f"reconstruction is not finite at {bad} of {xs.size} points")
    return ReconstructionResult(vals, "time" if time_route else "spectral", samples.tail_energy)


def project(f: Signal, space: SamplingSpace) -> GridSpectrum:
    """Orthogonal projection onto the space: multiplier
    r = bracket(f, generator) / Grammian on the support set, zero off it."""
    grid = space.grid
    r = divide_on_support(bracket(f, space.generator, grid).values,
                          space.grammian.real_values, space.mask)
    out = r * grid.fold(space.generator.grid_values(grid))
    return GridSpectrum(out.ravel(), grid, integrable_spectrum=f.integrable_spectrum)


def member_residual(space: SamplingSpace, f: Signal, label: str = "signal") -> float:
    """Relative residual of f's projection onto the space; raises
    NotInSpaceError when f is zero or the residual exceeds MEMBER_TOL."""
    fvals = f.grid_values(space.grid)
    norm = spectral_norm(fvals, space.grid)
    if norm == 0.0:
        raise NotInSpaceError(f"{label} is identically zero", residual=0.0)
    residual = spectral_norm(project(f, space).values - fvals, space.grid) / norm
    if residual > MEMBER_TOL:
        raise NotInSpaceError(
            f"{label} is not a member (projection residual {residual:.3g}, "
            f"tolerance {MEMBER_TOL:.3g})",
            residual=residual,
        )
    return residual


def gram_matrix_bounds_oracle(psi: Signal, grid: FrequencyGrid, truncation: int,
                              k_max: int = DEFAULT_K_MAX) -> tuple[float, float]:
    """Independent frame-bound estimate: extreme eigenvalues of the T x T
    matrix of translate inner products <psi(.-j), psi(.-k)>.

    The inner products are the Fourier coefficients of the Grammian, so
    the matrix is Hermitian Toeplitz; its spectrum converges to the
    essential range of the Grammian from the inside as T grows.
    """
    if truncation < 2:
        raise ValueError("truncation must be at least 2")
    limit = min(k_max, grid.resolution // 2)
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
