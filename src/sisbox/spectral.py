"""Elementary spectral operations every other module consumes.

All operations discretize almost-everywhere statements to "at every grid
node": periodization is an exact finite sum over the 2K integer shifts
the grid holds, the time fiber of a sample sequence is an exact discrete
Fourier series, and set measure is the fraction of unit-grid nodes.
``fibers`` and ``divide_on_support`` reduce over the band of the fold: rows
[first, last] hold a nonzero node, NaN and inf included (``FrequencyGrid.band``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSpaceError, NotAGrammianError
from .grid import FrequencyGrid, PeriodicSpectrum, SupportMask, TimeSamples
from .signals import Signal, _samples_from_grid, require_finite, twisted_sum

DEFAULT_EPS = 1e-9
DEFAULT_K_MAX = 512


def _fold(f: Signal, grid: FrequencyGrid) -> np.ndarray:
    """f's grid values as (2K, N), row q the shift m = q - K (grid_values refuses a misfit)."""
    return grid.fold(f.grid_values(grid))


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
    return PeriodicSpectrum(samples.fiber(grid.resolution), grid)


def zak_dual_fiber(f: Signal, x: float, grid: FrequencyGrid) -> PeriodicSpectrum:
    """Phase-twisted periodization sum_m f_hat(omega+m) exp(2i*pi*m*x)."""
    return PeriodicSpectrum(twisted_sum(_fold(f, grid), grid.shifts(), x), grid)


def guard_level(magnitude: np.ndarray, eps: float) -> float:
    """eps times the largest magnitude: a nonnegative quantity at or below
    this level counts as zero (off the support set, or a vanishing fiber)."""
    return eps * float(magnitude.max())


def support_mask(g: PeriodicSpectrum, eps: float = DEFAULT_EPS) -> SupportMask:
    """Nodes where g is above guard_level(g, eps); g must be a (real, >= 0) Grammian."""
    if not 0 < eps < 1:  # at eps >= 1 no node is above the guard: every set is empty
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
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
    band = mask.grid.band(rows)
    out = np.zeros(rows.shape, dtype=complex)
    np.divide(rows[band], denom, out=out[band], where=on, dtype=complex)
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
    """max over x_grid of sum_k |f(x+k)|^2; a NaN at any probe makes the
    bound NaN, never a silently dropped probe.

    A signal with a support [a, b] (time kernels and their finite shift
    combinations) is summed directly and exactly, in one time_values call
    over the shifts |k| <= k_max with x + k in [a, b] (and one more each
    side, for rounding).  Purely spectral representations use the Parseval
    identity sum_k |f(x+k)|^2 = integral over one period of |Z_f(x, .)|^2,
    evaluated at grid resolution; this sums all shifts of the
    grid-projected signal.  Writing omega = m + t with integer shift m and
    t in [0, 1), Z_f(x, t) = exp(2i*pi*t*x) * sum_m f_hat(t+m) exp(2i*pi*m*x);
    the first factor has modulus one, so the fibers of all P probes are the
    rows of one (P, 2K) @ (2K, N) product of the phases exp(2i*pi*x*m) with
    the folded spectrum.
    """
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    direct = f.support is not None
    tail = 0.0 if direct else f.spectral_tail_energy(grid)
    if not np.all(np.isfinite(xs)):
        sums = np.full(1, np.nan)
    elif direct:
        a, b = f.support
        first = np.clip(np.ceil(a - xs) - 1, -k_max, k_max + 1).astype(int)
        count = np.clip(np.floor(b - xs) + 1, first - 1, k_max).astype(int) + 1 - first
        probe = np.repeat(np.arange(xs.size), count)
        ks = np.arange(probe.size) - np.repeat(np.cumsum(count) - count - first, count)
        sums = np.bincount(probe, np.abs(f.time_values(xs[probe] + ks)) ** 2, minlength=xs.size)
    else:
        sums = np.mean(np.abs(twisted_sum(_fold(f, grid), grid.shifts(), xs)) ** 2, axis=1)
    return ShiftSquareSum(float(np.max(sums, initial=0.0)), tail, "direct" if direct else "parseval")


@dataclass(frozen=True)
class Fibers:
    """The periodized objects of one signal on one grid.  Every verdict on
    a signal reads its Grammian G_f, Zak fiber Z_f(0, .) and support set
    E_f; ``fibers`` sums them over the band of one fold (rows [first, last] with
    a nonzero node, NaN and inf included); callers pass the record down, not recompute."""

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


def fibers(f: Signal, grid: FrequencyGrid, eps: float = DEFAULT_EPS,
           k_max: int = DEFAULT_K_MAX) -> Fibers:
    """Build the Fibers record of f on the grid; refuses a spectrum with a
    NaN or infinite node, which would otherwise empty the support set and
    pass every verdict as vacuous."""
    folded = _fold(f, grid)
    band = folded[grid.band(folded)]
    require_finite(band)
    modulus = np.abs(band)
    g = PeriodicSpectrum((modulus ** 2).sum(axis=0), grid)
    mask = support_mask(g, eps)
    periodization = band.sum(axis=0)
    samples = f.integer_samples(grid, k_max) if f.support else _samples_from_grid(periodization, k_max)
    return Fibers(f, grid, folded, PeriodicSpectrum(periodization, grid), g,
                  PeriodicSpectrum(modulus.sum(axis=0), grid), mask,
                  samples, zak_time_fiber(samples, grid))


def integer_samples(f: Signal, grid: FrequencyGrid, k_max: int = DEFAULT_K_MAX) -> TimeSamples:
    """Integer samples of f (route depends on the representation)."""
    return f.integer_samples(grid, k_max)


def spectral_norm(values: np.ndarray, grid: FrequencyGrid) -> float:
    """Grid L2 norm: sqrt of (1/N) * sum of squared moduli over all nodes."""
    return float(np.sqrt(np.sum(np.abs(values) ** 2) / grid.resolution))
