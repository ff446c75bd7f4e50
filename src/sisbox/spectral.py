"""Elementary spectral operations every other module consumes.

All operations discretize almost-everywhere statements to "at every grid
node": periodization is an exact finite sum over the 2K integer shifts
the grid holds, the time fiber of a sample sequence is an exact discrete
Fourier series, and set measure is the fraction of unit-grid nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BandwidthOverflowError, DegenerateSpaceError, NotAGrammianError
from .grid import FrequencyGrid, PeriodicSpectrum, SupportMask, TimeSamples
from .signals import ShiftCombination, Signal, TimeKernel

DEFAULT_EPS = 1e-9
DEFAULT_K_MAX = 512


def _fold(f: Signal, grid: FrequencyGrid) -> np.ndarray:
    """f's grid values as (2K, N): row q holds the shift m = q - K."""
    need = f.required_half_bandwidth()
    if need is not None and need > grid.half_bandwidth:
        raise BandwidthOverflowError(need, grid.half_bandwidth)
    return grid.fold(f.grid_values(grid))


def _dual(folded: np.ndarray, grid: FrequencyGrid, x: float) -> PeriodicSpectrum:
    phases = np.exp(2j * np.pi * grid.shifts() * x)
    return PeriodicSpectrum((folded * phases[:, None]).sum(axis=0), grid)


def periodize(f: Signal, grid: FrequencyGrid) -> PeriodicSpectrum:
    """sum_m f_hat(omega + m) over all shifts the grid covers (exact)."""
    return PeriodicSpectrum(_fold(f, grid).sum(axis=0), grid)


def grammian(f: Signal, grid: FrequencyGrid) -> PeriodicSpectrum:
    """sum_m |f_hat(omega + m)|^2; real and nonnegative."""
    return PeriodicSpectrum((np.abs(_fold(f, grid)) ** 2).sum(axis=0), grid)


def abs_periodize(f: Signal, grid: FrequencyGrid) -> PeriodicSpectrum:
    """sum_m |f_hat(omega + m)|, the absolute-value periodization."""
    return PeriodicSpectrum(np.abs(_fold(f, grid)).sum(axis=0), grid)


def bracket(f: Signal, g: Signal, grid: FrequencyGrid) -> PeriodicSpectrum:
    """Fiberwise inner product sum_m f_hat(omega+m) * conj(g_hat(omega+m))."""
    return PeriodicSpectrum((_fold(f, grid) * np.conj(_fold(g, grid))).sum(axis=0), grid)


def zak_time_fiber(samples: TimeSamples, grid: FrequencyGrid) -> PeriodicSpectrum:
    """Discrete Fourier series sum_k f(k) exp(-2i*pi*k*omega) of the samples."""
    n = grid.resolution
    acc = np.zeros(n, dtype=complex)
    np.add.at(acc, samples.ks % n, samples.values)
    return PeriodicSpectrum(np.fft.fft(acc), grid)


def zak_dual_fiber(f: Signal, x: float, grid: FrequencyGrid) -> PeriodicSpectrum:
    """Phase-twisted periodization sum_m f_hat(omega+m) exp(2i*pi*m*x)."""
    return _dual(_fold(f, grid), grid, x)


def inverse_fourier_evaluate(f: Signal, x, grid: FrequencyGrid | None = None):
    """Time value(s) at x: analytic for interval spectra, cell-model
    quadrature for grid spectra, direct evaluation for time kernels."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = f.time_values(xs)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return complex(out[0])
    return out


def guard_level(magnitude: np.ndarray, eps: float) -> float:
    """eps times the largest magnitude: a nonnegative quantity at or below
    this level counts as zero (off the support set, or a vanishing fiber)."""
    return eps * float(magnitude.max())


def support_mask(g: PeriodicSpectrum, eps: float = DEFAULT_EPS) -> SupportMask:
    """Nodes where g is above guard_level(g, eps); g must be a (real, >= 0) Grammian."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not g.is_real(tol=1e-9):
        raise NotAGrammianError("Grammian has a non-negligible imaginary part")
    vals = g.real_values
    floor = max(float(vals.max()), 1e-300)
    if float(vals.min()) < -eps * floor:
        raise NotAGrammianError(f"Grammian has negative entries below -eps*max = {-eps * floor:.3g}")
    return SupportMask(vals > guard_level(vals, eps), g.grid, eps)


def _guarded_support(denom: np.ndarray, mask: SupportMask) -> np.ndarray:
    """Nodes of the mask where the periodic |denom| is above its guard
    level at the mask's eps: the nodes a division by denom may use."""
    absd = np.abs(denom)
    return mask.values & (absd > guard_level(absd, mask.eps))


def divide_on_support(values: np.ndarray, denom: np.ndarray, mask: SupportMask) -> np.ndarray:
    """values / denom on the guarded support of denom, zero elsewhere.

    denom is periodic; values is periodic, full-line or folded and keeps its
    shape.  Each row of its fold is divided, so denom is broadcast, never tiled.
    """
    on = _guarded_support(denom, mask)
    rows = np.reshape(values, (-1, mask.grid.resolution))
    out = np.zeros(rows.shape, dtype=complex)
    out[:, on] = rows[:, on] / denom[on]
    return out.reshape(np.shape(values))


def essential_bounds(g: PeriodicSpectrum, mask: SupportMask) -> tuple[float, float]:
    """(min, max) of g over the masked nodes; the grid form of two-sided
    frame bounds for the translates of the generator."""
    g.grid.require_same(mask.grid)
    if mask.is_empty:
        raise DegenerateSpaceError("support mask is empty; no frame bounds exist")
    vals = g.real_values[mask.values]
    return float(vals.min()), float(vals.max())


class ShiftSquareSum(NamedTuple):
    bound: float
    tail_energy: float
    route: str


def shift_square_sum(f: Signal, x_grid, grid: FrequencyGrid,
                     k_max: int = DEFAULT_K_MAX) -> ShiftSquareSum:
    """max over x_grid of sum_k |f(x+k)|^2.

    Time kernels and their finite shift-combinations are summed directly
    (compact support makes the sum finite and exact).  Purely spectral
    representations use the Parseval identity
    sum_k |f(x+k)|^2 = integral over one period of |Z_f(x, .)|^2,
    evaluated at grid resolution; this sums all shifts of the
    grid-projected signal.
    """
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    direct = isinstance(f, TimeKernel) or (
        isinstance(f, ShiftCombination) and isinstance(f.base, TimeKernel)
    )
    if direct:
        best = 0.0
        ks = np.arange(-k_max, k_max + 1)
        for x in xs:
            vals = f.time_values(x + ks)
            best = max(best, float(np.sum(np.abs(vals) ** 2)))
        return ShiftSquareSum(best, 0.0, "direct")
    folded = _fold(f, grid)
    om_rows = grid.fold(grid.omegas)
    # one buffer for all probes: fresh temporaries made the speed depend on heap placement
    buf = np.empty(folded.shape, dtype=complex)
    best = 0.0
    for x in xs:
        np.multiply(2j * np.pi, om_rows, out=buf)
        np.multiply(buf, x, out=buf)
        np.exp(buf, out=buf)
        np.multiply(folded, buf, out=buf)
        best = max(best, float(np.mean(np.abs(buf.sum(axis=0)) ** 2)))
    tail = f.spectral_tail_energy(grid)
    return ShiftSquareSum(best, tail, "parseval")


@dataclass(frozen=True)
class Fibers:
    """The periodized objects of one signal on one grid.  Every verdict on
    a signal reads its Grammian G_f, Zak fiber Z_f(0, .) and support set
    E_f; ``fibers`` builds them from one fold of the grid values and
    callers pass the record down instead of computing them again."""

    signal: Signal
    grid: FrequencyGrid
    folded: np.ndarray                   # grid values as (2K, N), a view
    periodization: PeriodicSpectrum      # sum_m f_hat(. + m)
    grammian: PeriodicSpectrum           # G_f = sum_m |f_hat(. + m)|^2
    abs_periodization: PeriodicSpectrum  # sum_m |f_hat(. + m)|
    mask: SupportMask                    # E_f: G_f above its guard level
    samples: TimeSamples                 # integer samples f(k)
    zak: PeriodicSpectrum                # Z_f(0, .), from the samples

    @property
    def zak_support(self) -> np.ndarray:
        """Nodes of E_f where |Z_f(0, .)| is above its guard level."""
        return _guarded_support(self.zak.values, self.mask)

    def dual(self, x: float) -> PeriodicSpectrum:
        """Phase-twisted periodization sum_m f_hat(omega+m) exp(2i*pi*m*x)."""
        return _dual(self.folded, self.grid, x)


def fibers(f: Signal, grid: FrequencyGrid, eps: float = DEFAULT_EPS,
           k_max: int = DEFAULT_K_MAX) -> Fibers:
    """Build the Fibers record of f on the grid."""
    folded = _fold(f, grid)
    modulus = np.abs(folded)
    g = PeriodicSpectrum((modulus ** 2).sum(axis=0), grid)
    mask = support_mask(g, eps)
    samples = integer_samples(f, grid, k_max)
    return Fibers(f, grid, folded, PeriodicSpectrum(folded.sum(axis=0), grid), g,
                  PeriodicSpectrum(modulus.sum(axis=0), grid), mask,
                  samples, zak_time_fiber(samples, grid))


def integer_samples(f: Signal, grid: FrequencyGrid, k_max: int = DEFAULT_K_MAX) -> TimeSamples:
    """Integer samples of f (route depends on the representation)."""
    return f.integer_samples(grid, k_max)


def spectral_norm(values: np.ndarray, grid: FrequencyGrid) -> float:
    """Grid L2 norm: sqrt of (1/N) * sum of squared moduli over all nodes."""
    return float(np.sqrt(np.sum(np.abs(values) ** 2) / grid.resolution))


def signal_norm(f: Signal, grid: FrequencyGrid) -> float:
    return spectral_norm(f.grid_values(grid), grid)
