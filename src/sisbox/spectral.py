"""Elementary spectral operations every other module consumes.

All operations discretize almost-everywhere statements to "at every grid
node": periodization is an exact finite sum over the 2K integer shifts
the grid holds, the time fiber of a sample sequence is an exact discrete
Fourier series, and set measure is the fraction of unit-grid nodes.
A spectrum has one layout: its band (``Signal.band_values``), the fold rows that can
hold a nonzero node, NaN and inf included.  Every sum over the shifts runs over them alone,
and signals are compared over the hull of their bands (``union_rows``); files hold it too
(``io``).  The padded 2K x N grid is left to a time kernel's quadrature and ``grid_values``.  What depends
on the representation, each signal states: ``fibers`` reads its samples (``integer_samples``,
given the cells' periodization) and its ``exact_profile``, and tests no class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSpaceError, NotAGrammianError
from .grid import FrequencyGrid, PeriodicSpectrum, SupportMask, TimeSamples
from .signals import PeriodizedProfile, Signal, dual_energy, pad_band, require_finite, twisted_sum

DEFAULT_EPS = 1e-9
DEFAULT_K_MAX = 512


def periodize(f: Signal, grid: FrequencyGrid) -> PeriodicSpectrum:
    """sum_m f_hat(omega + m) over all shifts the grid covers (exact)."""
    return PeriodicSpectrum(f.band_values(grid)[1].sum(axis=0), grid)


def grammian(f: Signal, grid: FrequencyGrid) -> PeriodicSpectrum:
    """sum_m |f_hat(omega + m)|^2; real and nonnegative."""
    return PeriodicSpectrum((np.abs(f.band_values(grid)[1]) ** 2).sum(axis=0), grid)


def abs_periodize(f: Signal, grid: FrequencyGrid) -> PeriodicSpectrum:
    """sum_m |f_hat(omega + m)|, the absolute-value periodization."""
    return PeriodicSpectrum(np.abs(f.band_values(grid)[1]).sum(axis=0), grid)


def union_rows(signals, grid: FrequencyGrid) -> list[np.ndarray]:
    """Each signal's fold rows over the hull of their bands, so that rows of one shift
    line up; an array returned may be a signal's own rows, not to be written."""
    bands = [f.band_values(grid) for f in signals]
    span = slice(min(band.start for band, _ in bands), max(band.stop for band, _ in bands))
    return [pad_band(band, rows, span) for band, rows in bands]


def bracket(f: Signal, g: Signal, grid: FrequencyGrid) -> PeriodicSpectrum:
    """Fiberwise inner product sum_m f_hat(omega+m) * conj(g_hat(omega+m)) over both bands."""
    rf, rg = union_rows([f, g], grid)
    return PeriodicSpectrum((rf * np.conj(rg)).sum(axis=0), grid)


def zak_time_fiber(samples: TimeSamples, grid: FrequencyGrid) -> PeriodicSpectrum:
    """Discrete Fourier series sum_k f(k) exp(-2i*pi*k*omega) of the samples."""
    return PeriodicSpectrum(samples.fiber(grid.resolution), grid)


def zak_dual_fiber(f: Signal, x: float, grid: FrequencyGrid) -> PeriodicSpectrum:
    """Phase-twisted periodization sum_m f_hat(omega+m) exp(2i*pi*m*x)."""
    band, rows = f.band_values(grid)
    return PeriodicSpectrum(twisted_sum(rows, grid.shifts()[band], x), grid)


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

    denom is periodic; values is periodic, full-line or fold rows (a band) and
    keeps its shape.  Each row is divided, so denom is broadcast, never tiled.
    """
    on = _guarded_support(denom, mask)
    rows = np.reshape(values, (-1, mask.grid.resolution))
    out = np.zeros(rows.shape, dtype=complex)
    np.divide(rows, denom, out=out, where=on, dtype=complex)
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
    route: str


def shift_square_sum(f: Signal, x_grid, grid: FrequencyGrid) -> ShiftSquareSum:
    """max over x_grid of sum_k |f(x+k)|^2; a NaN at any probe makes the
    bound NaN, never a silently dropped probe.

    A signal with a support (time kernels and their finite shift
    combinations) is summed directly and exactly, in one time_values call
    at every probe x, first reduced to [0, 1) exactly, plus each of its
    ``support_shifts``: the sum is 1-periodic in x, and far offsets keep
    their shifts in range.  Purely spectral representations use the Parseval
    identity sum_k |f(x+k)|^2 = integral over one period of |Z_f(x, .)|^2 over the
    pieces of ``PeriodizedProfile.of`` the signal.  Writing omega = m + t with integer
    shift m and t in [0, 1), Z_f(x, t) = exp(2i*pi*t*x) * sum_m f_hat(t+m) exp(2i*pi*m*x);
    the first factor has modulus one, so each probe's energy is a quadratic form in the
    Gram matrix of the pieces' rows (``dual_energy``, weights the piece lengths where
    theorem 5's condition (d) takes length / |Z|^2).
    """
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    direct = f.support is not None
    if not np.all(np.isfinite(xs)):
        sums = np.full(1, np.nan)
    elif direct:
        points = np.add.outer(xs - np.floor(xs), f.support_shifts())
        sums = np.sum(np.abs(f.time_values(points)) ** 2, axis=1)
    else:
        prof = PeriodizedProfile.of(f, grid)
        sums = dual_energy(prof.coeffs, prof.shifts, xs, prof.lengths)
    return ShiftSquareSum(float(np.max(sums, initial=0.0)), "direct" if direct else "parseval")


@dataclass(frozen=True)
class Fibers:
    """The periodized objects of one signal on one grid.  Every verdict on
    a signal reads its Grammian G_f, Zak fiber Z_f(0, .) and support set
    E_f; ``fibers`` sums them over the ``cells`` of the signal's band (``Signal.band_values``),
    which the record keeps in place of a full grid; callers pass the record down, not recompute."""

    signal: Signal
    grid: FrequencyGrid
    band: slice                          # fold rows (row q: shift q - K) of the spectrum
    cells: PeriodizedProfile             # one piece per unit-grid cell; coeffs: the band, (rows, N)
    mask: SupportMask                    # E_f: G_f above its guard level
    samples: TimeSamples                 # integer samples f(k)
    zak: PeriodicSpectrum                # Z_f(0, .), from the samples

    periodization = property(lambda self: PeriodicSpectrum(self.cells.z, self.grid))
    grammian = property(lambda self: PeriodicSpectrum(self.cells.sq_sum, self.grid))
    abs_periodization = property(lambda self: PeriodicSpectrum(self.cells.abs_sum, self.grid))

    @cached_property
    def profile(self) -> PeriodizedProfile:
        """``PeriodizedProfile.of`` the signal, which theorems 5 and sz04 read: its exact profile, else the cells."""
        return self.signal.exact_profile or self.cells


def _cells_and_mask(f: Signal, grid: FrequencyGrid, eps: float) -> tuple[slice, PeriodizedProfile, SupportMask]:
    """The band, cells and support set of f's record; refuses a spectrum with a NaN or
    infinite node, which would otherwise empty the support set and pass every verdict as vacuous."""
    band, rows = f.band_values(grid)
    cells = PeriodizedProfile.cells(band, rows, grid)
    if not np.all(np.isfinite(cells.abs_sum)):  # a NaN or inf node's column sum is not finite either: only then scan
        require_finite(rows)
    return band, cells, support_mask(PeriodicSpectrum(cells.sq_sum, grid), eps)


def fibers(f: Signal, grid: FrequencyGrid, eps: float = DEFAULT_EPS,
           k_max: int = DEFAULT_K_MAX) -> Fibers:
    """Build f's Fibers record on the grid: ``_cells_and_mask``, then f's samples (given the cells' z), Zak fiber."""
    band, cells, mask = _cells_and_mask(f, grid, eps)
    samples = f.integer_samples(grid, k_max, cells.z)
    return Fibers(f, grid, band, cells, mask, samples, zak_time_fiber(samples, grid))


def integer_samples(f: Signal, grid: FrequencyGrid, k_max: int = DEFAULT_K_MAX) -> TimeSamples:
    """Integer samples of f (route depends on the representation)."""
    return f.integer_samples(grid, k_max)


def spectral_norm(values: np.ndarray, grid: FrequencyGrid) -> float:
    """Grid L2 norm: sqrt of (1/N) * sum of squared moduli over the nodes given, of any
    shape: full-line values or fold rows, a band or a hull of bands (zero rows add nothing)."""
    return float(np.sqrt(np.sum(np.abs(values) ** 2) / grid.resolution))
