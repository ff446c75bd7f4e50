"""Frequency-line discretization and the small value types built on it.

The whole library works on one discretization: frequencies live on the
half-open interval [-K, K) sampled at N points per unit, so integer
frequency shifts are exact index shifts and periodization is an exact
finite sum.  1-periodic quantities (Grammians, Zak fibers, multipliers)
are stored on the N-point unit grid; periodic sets become boolean masks
on that grid with measure = true-fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatchError


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _sorted_unique(values) -> np.ndarray:
    """np.unique of NaN-free values by one sort and a neighbour mask: np.unique imports numpy.ma."""
    a = np.sort(np.ravel(values))
    return a[np.append(True, a[1:] != a[:-1])[:a.size]]  # no first value to keep in an empty a


def pow2_at_least(x: float) -> int:
    """Smallest power of two >= max(x, 1)."""
    k = 1
    while k < x:
        k *= 2
    return k


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform grid on [-K, K) with N points per unit interval.

    K and N must be powers of two so dyadic interval endpoints and
    integer shifts land exactly on grid nodes.
    """

    half_bandwidth: int = 32
    resolution: int = 1024

    def __post_init__(self):
        if not _is_pow2(self.half_bandwidth):
            raise ValueError(f"half_bandwidth must be a power of two, got {self.half_bandwidth}")
        if not _is_pow2(self.resolution):
            raise ValueError(f"resolution must be a power of two, got {self.resolution}")
        if self.size > np.iinfo(np.intp).max // np.dtype(complex).itemsize:
            raise ValueError(f"a grid of 2KN = {self.size} complex nodes cannot be one array")

    @property
    def step(self) -> float:
        return 1.0 / self.resolution

    @property
    def size(self) -> int:
        """Total number of grid nodes, 2*K*N."""
        return 2 * self.half_bandwidth * self.resolution

    @cached_property
    def omegas(self) -> np.ndarray:
        """All grid nodes -K + j/N, 0 <= j < 2KN."""
        j = np.arange(self.size)
        out = -self.half_bandwidth + j / self.resolution
        out.setflags(write=False)
        return out

    @cached_property
    def unit_omegas(self) -> np.ndarray:
        """Unit-interval nodes i/N, 0 <= i < N."""
        out = np.arange(self.resolution) / self.resolution
        out.setflags(write=False)
        return out

    def unit_index(self, omega: float) -> int:
        """Index of a unit-grid node; omega must sit on the grid."""
        i = omega * self.resolution
        j = int(round(i))
        if abs(i - j) > 1e-9:
            raise ValueError(f"{omega} is not a grid node at resolution {self.resolution}")
        return j % self.resolution

    def fold(self, values: np.ndarray) -> np.ndarray:
        """Reshape full-line values into (2K, N): row q holds shift m = q - K."""
        return np.asarray(values).reshape(2 * self.half_bandwidth, self.resolution)

    def shifts(self, band: slice = slice(None)) -> np.ndarray:
        """Integer shifts m of the fold rows of band (all 2K by default), in fold() row order."""
        return np.arange(*band.indices(2 * self.half_bandwidth)) - self.half_bandwidth

    def require_same(self, other: "FrequencyGrid") -> None:
        if self != other:
            raise GridMismatchError(
                f"grid (K={self.half_bandwidth}, N={self.resolution}) does not match "
                f"(K={other.half_bandwidth}, N={other.resolution})"
            )


@dataclass(frozen=True)
class PeriodicSpectrum:
    """A 1-periodic function stored at the N unit-grid nodes.

    Evaluation at omega and omega + m (integer m) reads the same slot,
    so periodicity is structural, not numerical.
    """

    values: np.ndarray
    grid: FrequencyGrid

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.grid.resolution,):
            raise ValueError(f"expected {self.grid.resolution} values, got {v.shape}")
        object.__setattr__(self, "values", v)

    def value_at(self, omega: float) -> complex:
        return self.values[self.grid.unit_index(omega)]

    @property
    def real_values(self) -> np.ndarray:
        return np.real(self.values)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def is_real(self, tol: float = 1e-12) -> bool:
        if not np.iscomplexobj(self.values):
            return True
        scale = max(self.max_abs(), 1.0)
        return float(np.max(np.abs(np.imag(self.values)))) <= tol * scale


@dataclass(frozen=True)
class SupportMask:
    """Boolean per unit-grid node; discretization of a periodic set.

    Measure is the fraction of true nodes.  Set decisions compare node sets
    exactly; structure finer than one cell 1/N is not resolved.
    """

    values: np.ndarray
    grid: FrequencyGrid
    eps: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=bool)
        if v.shape != (self.grid.resolution,):
            raise ValueError(f"expected {self.grid.resolution} mask entries, got {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def measure(self) -> float:
        return float(np.count_nonzero(self.values)) / self.grid.resolution

    @property
    def is_empty(self) -> bool:
        return not bool(np.any(self.values))

    def _combine(self, other: "SupportMask", op) -> "SupportMask":
        """The nodewise op of two masks on one grid, at the larger eps."""
        self.grid.require_same(other.grid)
        return SupportMask(op(self.values, other.values), self.grid, max(self.eps, other.eps))

    def union(self, other: "SupportMask") -> "SupportMask":
        return self._combine(other, np.logical_or)

    def intersection(self, other: "SupportMask") -> "SupportMask":
        return self._combine(other, np.logical_and)

    def complement(self) -> "SupportMask":
        return SupportMask(~self.values, self.grid, self.eps)

    def symmetric_difference(self, other: "SupportMask") -> "SupportMask":
        return self._combine(other, np.logical_xor)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SupportMask):
            return NotImplemented
        return self.grid == other.grid and bool(np.array_equal(self.values, other.values))

    def intervals(self) -> list[tuple[float, float]]:
        """Maximal runs of true nodes as [start, end) subintervals of [0, 1)."""
        edges = np.flatnonzero(np.diff(np.concatenate(([False], self.values, [False]))))
        n = self.grid.resolution
        return [(int(i) / n, int(j) / n) for i, j in zip(edges[::2], edges[1::2])]

    def describe(self) -> str:
        """Where the mask holds, for a message: its interval count and first three intervals."""
        runs = self.intervals()
        return f"{len(runs)} interval(s) of omega in [0, 1), from " + ", ".join(f"[{a}, {b})" for a, b in runs[:3])


@dataclass(frozen=True)
class TimeSamples:
    """Finite map k -> f(k) on integers.

    ``k_max`` is the truncation the record's producer applied, and
    ``tail_energy`` the energy of a spectral period's samples it discarded (a
    support is sampled whole); the record keeps every sample, |k| > k_max too.
    """

    ks: np.ndarray
    values: np.ndarray
    k_max: int
    tail_energy: float = 0.0

    def __post_init__(self):
        ks = np.asarray(self.ks, dtype=int)
        vals = np.asarray(self.values, dtype=complex)
        if ks.shape != vals.shape or ks.ndim != 1:
            raise ValueError("ks and values must be 1-d arrays of equal length")
        order = np.argsort(ks)
        if np.any((ks := ks[order])[1:] == ks[:-1]):
            raise ValueError("duplicate sample indices")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "values", vals[order])

    @classmethod
    def from_pairs(cls, pairs: dict[int, complex], k_max: int | None = None) -> "TimeSamples":
        ks = np.array(sorted(pairs), dtype=int)
        vals = np.array([pairs[k] for k in ks], dtype=complex)
        if k_max is None:
            k_max = int(np.max(np.abs(ks))) if ks.size else 0
        return cls(ks, vals, k_max)

    @classmethod
    def delta(cls, at: int = 0, amplitude: complex = 1.0, k_max: int | None = None) -> "TimeSamples":
        return cls(np.array([at]), np.array([amplitude]), k_max if k_max is not None else abs(at))

    def value_at(self, k: int) -> complex:
        idx = np.searchsorted(self.ks, k)
        if idx < len(self.ks) and self.ks[idx] == k:
            return complex(self.values[idx])
        return 0.0

    def fiber(self, n: int) -> np.ndarray:
        """sum_k f(k) exp(-2i*pi*k*i/n) at the nodes i/n: one FFT over the indices mod n."""
        acc = np.zeros(n, dtype=complex)
        np.add.at(acc, self.ks % n, self.values)
        return np.fft.fft(acc)

    @property
    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def scaled(self, factor: complex) -> "TimeSamples":
        return TimeSamples(self.ks.copy(), self.values * factor, self.k_max,
                           self.tail_energy * abs(factor) ** 2)
