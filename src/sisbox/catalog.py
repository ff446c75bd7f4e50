"""Named signal catalog used by the CLI and the test fixtures."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import CatalogError, PreconditionError
from .grid import FrequencyGrid
from .signals import GridSpectrum, PiecewiseConstantSpectrum, Signal, TimeKernel


def shannon_signal() -> PiecewiseConstantSpectrum:
    """Unit indicator spectrum on [-1/2, 1/2); the classical interpolating
    kernel sin(pi x)/(pi x)."""
    return PiecewiseConstantSpectrum([(-0.5, 0.5, 1.0)])


def blhat_signal(grid: FrequencyGrid) -> GridSpectrum:
    """Band-limited triangle spectrum (1 - 2|omega|) on [-1/2, 1/2),
    sampled on the grid; time function is half a squared sinc."""
    n, k = grid.resolution, grid.half_bandwidth
    d = np.arange(-((n - 1) // 2), (n + 1) // 2)  # the nodes omega = d/N with |omega| < 1/2
    rows = np.zeros((2, n), dtype=complex)  # fold rows of the shifts -1 and 0
    rows.ravel()[n + d] = 1.0 - 2.0 * np.abs(d / n)  # node n is omega = 0
    return GridSpectrum.from_band(slice(k - 1, k + 1), rows, grid)


def ex2_signal(n_max: int = 60) -> PiecewiseConstantSpectrum:
    """Alternating dyadic-block spectrum: value (-1)^n/(n+1) on
    [n, n + 2^-n) for n = 0..n_max.

    The blocks get exponentially short while their alternating sums stay
    bounded away from zero, which separates the two-sided ratio bound
    (which holds) from the absolute-mass domination (which fails).  The
    dropped tail beyond n_max is recorded on the signal as
    ``series_tail``.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if 0.5 ** n_max == 0.0:
        raise PreconditionError(f"n_max = {n_max}: the block width 2^-n underflows to 0 "
                                "from n = 1075 on")
    pieces = [(n, 0.0, min(0.5 ** n, 1.0), (-1.0) ** n / (n + 1)) for n in range(n_max + 1)]
    sig = PiecewiseConstantSpectrum.from_local_pieces(pieces)
    ns = np.arange(n_max + 1, n_max + 200)
    sig.series_tail = float(np.sum(0.5 ** ns / (ns + 1)))
    return sig


def _ex3_evaluator(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    left = (x >= -1.0) & (x <= -0.5)
    mid = (x > -0.5) & (x < 0.5)
    right = (x >= 0.5) & (x <= 1.0)
    out[left] = -np.sin(np.pi * x[left])
    out[mid] = 1.0
    out[right] = np.sin(np.pi * x[right])
    return out


def ex3_signal() -> TimeKernel:
    """Plateau kernel: sine ramps on [-1, -1/2] and [1/2, 1] around a unit
    plateau.  Interpolating (value 1 at 0, 0 at other integers) and
    compactly supported; flagged outside the integrable-spectrum class."""
    return TimeKernel((-1.0, 1.0), _ex3_evaluator, integrable_spectrum=False)


def hat_signal() -> TimeKernel:
    """Triangle kernel 1 - |x| on [-1, 1]; spectrum is squared sinc."""
    return TimeKernel((-1.0, 1.0), lambda x: np.maximum(1.0 - np.abs(np.asarray(x, dtype=float)), 0.0),
                      integrable_spectrum=True)


# name -> factory(grid, n_max); n_max is the block count of ex2
CATALOG: dict[str, Callable[[FrequencyGrid, int], Signal]] = {
    "shannon": lambda grid, n_max: shannon_signal(),
    "blhat": lambda grid, n_max: blhat_signal(grid),
    "ex2": lambda grid, n_max: ex2_signal(n_max),
    "ex3": lambda grid, n_max: ex3_signal(),
    "hat": lambda grid, n_max: hat_signal(),
}


def catalog_names() -> list[str]:
    return sorted(CATALOG)


def build_signal(name: str, grid: FrequencyGrid, n_max: int = 60) -> Signal:
    factory = CATALOG.get(name)
    if factory is None:
        raise CatalogError(name, catalog_names())
    return factory(grid, n_max)
