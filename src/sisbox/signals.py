"""Signal representations: how a function of one real variable is known.

Three primary representations plus one derived:

* ``PiecewiseConstantSpectrum`` -- spectrum is a finite union of disjoint
  half-open intervals with constant complex values; everything about it
  (time values, periodized profiles) is computed in closed form.
* ``GridSpectrum`` -- spectrum known only through its values at the nodes
  of one ``FrequencyGrid``.  Time evaluation integrates the cell-constant
  model exactly (each node value stands for its half-open cell), which is
  exact for spectra that are constant on grid cells and first-order
  accurate for smooth ones.
* ``TimeKernel`` -- compactly supported continuous time function given by
  an evaluator; its spectrum is obtained by trapezoid quadrature of order
  M (Bluestein-transform accelerated).
* ``ShiftCombination`` -- finite combination sum_k c_k phi(. - k) of the
  integer translates of a base signal; keeps both the exact time-domain
  evaluator and the exact grid spectrum C(omega) * phi_hat(omega).

Every representation carries ``integrable_spectrum``: membership in the
class of square-integrable functions with absolutely integrable spectrum.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import czt

from .errors import BandwidthOverflowError, GridMismatchError
from .grid import FrequencyGrid, TimeSamples, pow2_at_least

_EVAL_CHUNK = 64  # x-points per chunk in direct nonuniform evaluation


def _uniform_spacing(xs: np.ndarray) -> float | None:
    """Common spacing of a monotone uniform array, else None."""
    if xs.size < 3:
        return None
    d = np.diff(xs)
    if d[0] == 0:
        return None
    if np.max(np.abs(d - d[0])) <= 1e-12 * max(abs(d[0]), 1.0):
        return float(d[0])
    return None


def _phase_czt(coeffs: np.ndarray, rate: float, count: int) -> np.ndarray:
    """out[m] = sum_n coeffs[n] * exp(2j*pi*rate*n*m) for m = 0..count-1."""
    return czt(coeffs, m=count, w=np.exp(2j * np.pi * rate), a=1.0)


class Signal:
    """Common interface of all signal representations."""

    integrable_spectrum: bool = True

    def grid_values(self, grid: FrequencyGrid) -> np.ndarray:
        """Spectrum values at all 2KN grid nodes."""
        raise NotImplementedError

    def time_values(self, xs) -> np.ndarray:
        """Values of the time function at arbitrary real points."""
        raise NotImplementedError

    def integer_samples(self, grid: FrequencyGrid, k_max: int) -> TimeSamples:
        """Samples f(k) used by Zak fibers and reconstruction.

        Spectral representations sample the grid-projected signal (inverse
        DFT of the periodized spectrum over one full period of ks), which
        keeps the Poisson identity between the time fiber and the
        periodization exact at grid resolution.  Time kernels sample the
        evaluator directly.
        """
        return _samples_from_grid(self, grid, k_max)

    def required_half_bandwidth(self) -> int | None:
        """Smallest admissible grid K, or None if unbounded (time kernels)."""
        return None

    def spectral_tail_energy(self, grid: FrequencyGrid) -> float:
        """Energy outside [-K, K) discarded by the grid projection."""
        return 0.0


def _samples_from_grid(signal: Signal, grid: FrequencyGrid, k_max: int) -> TimeSamples:
    folded = grid.fold(signal.grid_values(grid))
    periodized = folded.sum(axis=0)
    a = np.fft.ifft(periodized)  # a[r] = grid-projected f(r), N-periodic in r
    n = grid.resolution
    half = n // 2
    if k_max >= half:
        ks = np.arange(-half, half)
    else:
        ks = np.arange(-k_max, k_max + 1)
    vals = a[ks % n]
    # truncation indicator: energy in the outer 10% of stored offsets
    cut = max(int(0.9 * np.max(np.abs(ks))), 1)
    tail = float(np.sum(np.abs(vals[np.abs(ks) > cut]) ** 2))
    return TimeSamples(ks, vals, k_max, tail_energy=tail)


def _grid_time_values(values: np.ndarray, grid: FrequencyGrid, xs: np.ndarray) -> np.ndarray:
    """Integrate the cell-constant spectral model against exp(2i*pi*omega*x).

    Exact when ``values`` are constant on grid cells (each node represents
    its half-open cell [omega_j, omega_j + 1/N)).
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    h = grid.step
    nz = np.flatnonzero(np.abs(values) > 0)
    if nz.size == 0:
        return np.zeros(xs.shape, dtype=complex)
    # cell kernel: integral of exp(2i*pi*omega*x) over one cell, left node at 0
    with np.errstate(invalid="ignore", divide="ignore"):
        kern = (np.exp(2j * np.pi * h * xs) - 1.0) / (2j * np.pi * xs)
    kern = np.where(np.abs(xs) < 1e-300, h, kern)

    spacing = _uniform_spacing(xs)
    if spacing is not None and nz.size > 512 and xs.size > 64:
        # uniform x: one Bluestein transform over all nodes
        x0 = xs[0]
        coeffs = np.zeros(grid.size, dtype=complex)
        coeffs[nz] = values[nz]
        j = np.arange(grid.size)
        pre = coeffs * np.exp(2j * np.pi * (j / grid.resolution) * x0)
        out = _phase_czt(pre, spacing / grid.resolution, xs.size)
        phase = np.exp(2j * np.pi * (-grid.half_bandwidth) * xs)
        return phase * out * kern

    om = grid.omegas[nz]
    vals = values[nz]
    out = np.empty(xs.size, dtype=complex)
    for start in range(0, xs.size, _EVAL_CHUNK):
        stop = min(start + _EVAL_CHUNK, xs.size)
        block = np.exp(2j * np.pi * np.outer(xs[start:stop], om))
        out[start:stop] = block @ vals
    return out * kern


class PiecewiseConstantSpectrum(Signal):
    """Spectrum = sum of constant complex values on disjoint [a, b) intervals.

    Stored internally as (shift m, local start, local end, value) with the
    local coordinates in [0, 1], so intervals far from the origin keep
    their exact (possibly sub-float) lengths: [m + lo, m + hi) with the
    dyadic lo/hi represented exactly.  Grid values are exact cell
    averages (node j carries the mean over [omega_j, omega_j + 1/N)),
    which preserves every cell moment: structure finer than one cell
    keeps its integral instead of being point-sampled.
    """

    def __init__(self, intervals, integrable_spectrum: bool = True):
        pieces = []
        for a, b, v in intervals:
            a, b, v = float(a), float(b), complex(v)
            if b <= a:
                raise ValueError(f"empty interval [{a}, {b})")
            m = int(np.floor(a))
            while m < b:
                lo = max(a, float(m)) - m
                hi = min(b, float(m + 1)) - m
                if hi > lo:
                    pieces.append((m, lo, hi, v))
                m += 1
        self._init_from_pieces(pieces, integrable_spectrum)

    @classmethod
    def from_local_pieces(cls, pieces, integrable_spectrum: bool = True):
        """Construct from (shift, local_start, local_end, value) directly."""
        obj = cls.__new__(cls)
        cleaned = [(int(m), float(lo), float(hi), complex(v)) for m, lo, hi, v in pieces]
        obj._init_from_pieces(cleaned, integrable_spectrum)
        return obj

    def _init_from_pieces(self, pieces, integrable_spectrum: bool):
        for m, lo, hi, v in pieces:
            if not (0.0 <= lo < hi <= 1.0):
                raise ValueError(f"local piece [{lo}, {hi}) must sit inside [0, 1]")
        pieces = sorted(pieces, key=lambda t: (t[0], t[1]))
        for (m1, _, h1, _), (m2, l2, _, _) in zip(pieces, pieces[1:]):
            if m1 == m2 and l2 < h1:
                raise ValueError(f"intervals overlap near {m1 + l2}")
        self.pieces = pieces
        self.integrable_spectrum = integrable_spectrum

    @property
    def intervals(self) -> list[tuple[float, float, complex]]:
        """Global (a, b, value) view; sub-float lengths collapse here."""
        return [(m + lo, m + hi, v) for m, lo, hi, v in self.pieces]

    def required_half_bandwidth(self) -> int | None:
        hi = max(max(abs(m + lo), abs(m + hi)) for m, lo, hi, _ in self.pieces)
        return pow2_at_least(hi)

    def grid_values(self, grid: FrequencyGrid) -> np.ndarray:
        need = self.required_half_bandwidth()
        if need > grid.half_bandwidth:
            raise BandwidthOverflowError(need, grid.half_bandwidth)
        n = grid.resolution
        k = grid.half_bandwidth
        out = np.zeros(grid.size, dtype=complex)
        for m, lo, hi, v in self.pieces:
            base = (m + k) * n
            s = lo * n  # piece endpoints in cell units; exact for dyadic data
            e = hi * n
            i0 = int(np.floor(s))
            i1 = int(np.floor(e))
            if i0 == i1:
                out[base + i0] += v * (e - s)
                continue
            out[base + i0] += v * (i0 + 1 - s)
            out[base + i0 + 1:base + i1] += v
            if i1 < n and e > i1:
                out[base + i1] += v * (e - i1)
        return out

    def time_values(self, xs) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        out = np.zeros(xs.shape, dtype=complex)
        small = np.abs(xs) < 1e-300
        with np.errstate(invalid="ignore", divide="ignore"):
            for m, lo, hi, v in self.pieces:
                phase = np.exp(2j * np.pi * (m + lo) * xs)
                ramp = (np.exp(2j * np.pi * (hi - lo) * xs) - 1.0) / (2j * np.pi * xs)
                out += np.where(small, v * (hi - lo), v * phase * ramp)
        return out

    def periodized_profile(self) -> "PeriodizedProfile":
        return PeriodizedProfile.from_pieces(self.pieces)

    def scaled(self, factor: complex) -> "PiecewiseConstantSpectrum":
        return PiecewiseConstantSpectrum.from_local_pieces(
            [(m, lo, hi, v * factor) for m, lo, hi, v in self.pieces],
            self.integrable_spectrum,
        )


class PeriodizedProfile:
    """Per-piece view of the periodized quantities of one signal over one
    period [0, 1): periodization ``z``, absolute periodization ``abs_sum``,
    Grammian ``sq_sum`` and the phase-twisted fiber ``dual(x)``.

    ``from_pieces`` (``exact=True``): pieces follow the folded breakpoints
    of a piecewise-constant spectrum.  On each piece the set of
    contributing (value, shift) pairs is constant, so every quantity is
    evaluated in closed form and sub-grid detail is preserved.
    ``from_fibers``: that exact profile for a piecewise-constant signal,
    otherwise (``exact=False``) one piece per unit-grid cell.
    """

    def __init__(self, starts, lengths, z, abs_sum, sq_sum, dual, exact: bool):
        self.starts = np.asarray(starts, dtype=float)
        self.lengths = np.asarray(lengths, dtype=float)
        self.z = np.asarray(z, dtype=complex)
        self.abs_sum = np.asarray(abs_sum, dtype=float)
        self.sq_sum = np.asarray(sq_sum, dtype=float)
        self.dual = dual  # x -> per-piece sum_m f_hat(omega+m) exp(2i*pi*m*x)
        self.exact = exact

    @classmethod
    def from_pieces(cls, pieces) -> "PeriodizedProfile":
        """Exact profile of (shift, local start, local end, value) pieces."""
        cuts = {0.0, 1.0}
        for _, lo, hi, _ in pieces:
            cuts.add(float(lo))
            cuts.add(float(hi))
        cut = np.unique(np.array(sorted(cuts)))
        stacks = [[(v, m) for m, lo, hi, v in pieces if lo <= 0.5 * (t0 + t1) < hi]
                  for t0, t1 in zip(cut[:-1], cut[1:])]

        def dual(x: float) -> np.ndarray:
            out = np.zeros(len(stacks), dtype=complex)
            for i, st in enumerate(stacks):
                out[i] = sum(v * np.exp(2j * np.pi * m * x) for v, m in st)
            return out

        return cls(cut[:-1], cut[1:] - cut[:-1],
                   [sum(v for v, _ in st) for st in stacks],
                   [sum(abs(v) for v, _ in st) for st in stacks],
                   [sum(abs(v) ** 2 for v, _ in st) for st in stacks],
                   dual, exact=True)

    @classmethod
    def from_fibers(cls, fib) -> "PeriodizedProfile":
        """Profile of the signal of a ``spectral.Fibers`` record."""
        if isinstance(fib.signal, PiecewiseConstantSpectrum):
            return cls.from_pieces(fib.signal.pieces)
        n = fib.grid.resolution
        return cls(fib.grid.unit_omegas, np.full(n, 1.0 / n), fib.periodization.values,
                   fib.abs_periodization.real_values, fib.grammian.real_values,
                   lambda x: fib.dual(x).values, exact=False)


class GridSpectrum(Signal):
    """Spectrum known only through its values at the nodes of one grid."""

    def __init__(self, values: np.ndarray, grid: FrequencyGrid, integrable_spectrum: bool = True):
        values = np.asarray(values, dtype=complex)
        if values.shape != (grid.size,):
            raise ValueError(f"expected {grid.size} spectrum values, got {values.shape}")
        self.values = values
        self.grid = grid
        self.integrable_spectrum = integrable_spectrum

    @classmethod
    def from_function(cls, fn, grid: FrequencyGrid, integrable_spectrum: bool = True) -> "GridSpectrum":
        return cls(np.asarray(fn(grid.omegas), dtype=complex), grid, integrable_spectrum)

    def required_half_bandwidth(self) -> int | None:
        return self.grid.half_bandwidth

    def grid_values(self, grid: FrequencyGrid) -> np.ndarray:
        if grid != self.grid:
            raise GridMismatchError(
                f"grid spectrum lives on (K={self.grid.half_bandwidth}, N={self.grid.resolution}), "
                f"requested (K={grid.half_bandwidth}, N={grid.resolution})"
            )
        return self.values

    def time_values(self, xs) -> np.ndarray:
        return _grid_time_values(self.values, self.grid, np.asarray(xs, dtype=float))


class TimeKernel(Signal):
    """Compactly supported continuous time function given by an evaluator.

    ``integrable_spectrum`` may be pinned by the caller; when left None it
    is decided by a decay heuristic on the computed grid spectrum (does
    the absolute spectral mass keep halving per octave towards the grid
    edge).  The grid spectrum of a time kernel is a truncation: energy
    beyond [-K, K) is discarded and reported by spectral_tail_energy().
    """

    def __init__(self, support: tuple[float, float], evaluator, quadrature_order: int = 2048,
                 integrable_spectrum: bool | None = None, name: str = ""):
        a, b = float(support[0]), float(support[1])
        if b <= a:
            raise ValueError("support must be a nonempty interval")
        self.support = (a, b)
        self.evaluator = evaluator
        self.quadrature_order = int(quadrature_order)
        self._pinned_integrable = integrable_spectrum
        self.name = name
        self._spectrum_cache: dict[tuple[int, int, int], np.ndarray] = {}

    @property
    def integrable_spectrum(self) -> bool:
        if self._pinned_integrable is not None:
            return self._pinned_integrable
        grid = FrequencyGrid()
        return self._summability_heuristic(grid)

    def _summability_heuristic(self, grid: FrequencyGrid) -> bool:
        v = np.abs(self.grid_values(grid))
        om = np.abs(grid.omegas)
        k = grid.half_bandwidth
        inner = float(np.sum(v[(om >= k / 4) & (om < k / 2)])) / grid.resolution
        outer = float(np.sum(v[om >= k / 2])) / grid.resolution
        total = float(np.sum(v)) / grid.resolution
        if total == 0.0 or outer <= 1e-12 * total:
            return True
        return outer < 0.75 * inner

    def time_values(self, xs) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        a, b = self.support
        inside = (xs >= a) & (xs <= b)
        out = np.zeros(xs.shape, dtype=complex)
        if np.any(inside):
            out[inside] = np.asarray(self.evaluator(xs[inside]), dtype=complex)
        return out

    def grid_values(self, grid: FrequencyGrid) -> np.ndarray:
        key = (grid.half_bandwidth, grid.resolution, self.quadrature_order)
        if key not in self._spectrum_cache:
            self._spectrum_cache[key] = self._compute_spectrum(grid)
        return self._spectrum_cache[key]

    def _compute_spectrum(self, grid: FrequencyGrid) -> np.ndarray:
        a, b = self.support
        m = self.quadrature_order
        xs = np.linspace(a, b, m + 1)
        w = np.full(m + 1, (b - a) / m)
        w[0] *= 0.5
        w[-1] *= 0.5
        s = np.asarray(self.evaluator(xs), dtype=complex)
        # spectrum_j = sum_m w_m s(x_m) exp(-2i*pi*x_m*omega_j) via Bluestein:
        # split phases along x_m = a + m*delta and omega_j = -K + j/N
        delta = (b - a) / m
        coeffs = (w * s) * np.exp(-2j * np.pi * xs * (-grid.half_bandwidth))
        out = _phase_czt(coeffs, -delta / grid.resolution, grid.size)
        out *= np.exp(-2j * np.pi * a * (grid.omegas - (-grid.half_bandwidth)))
        return out

    def integer_samples(self, grid: FrequencyGrid, k_max: int) -> TimeSamples:
        a, b = self.support
        lo = max(-k_max, int(np.ceil(a - 1e-12)))
        hi = min(k_max, int(np.floor(b + 1e-12)))
        if lo > hi:
            return TimeSamples(np.array([0]), np.array([0.0 + 0j]), k_max, 0.0)
        ks = np.arange(lo, hi + 1)
        vals = self.time_values(ks.astype(float))
        return TimeSamples(ks, vals, k_max, tail_energy=0.0)

    def spectral_tail_energy(self, grid: FrequencyGrid) -> float:
        a, b = self.support
        m = self.quadrature_order
        xs = np.linspace(a, b, m + 1)
        w = np.full(m + 1, (b - a) / m)
        w[0] *= 0.5
        w[-1] *= 0.5
        time_energy = float(np.sum(w * np.abs(np.asarray(self.evaluator(xs))) ** 2))
        band_energy = float(np.sum(np.abs(self.grid_values(grid)) ** 2)) / grid.resolution
        return max(time_energy - band_energy, 0.0)

    def scaled(self, factor: complex) -> "TimeKernel":
        ev = self.evaluator
        return TimeKernel(self.support, lambda x: factor * np.asarray(ev(x)),
                          self.quadrature_order, self._pinned_integrable, self.name)


class ShiftCombination(Signal):
    """f = sum_k c_k * base(. - k) for finitely many coefficients c_k.

    Time values are the exact finite sum; the grid spectrum is the exact
    product C(omega) * base_hat(omega) with C the coefficient fiber.
    """

    def __init__(self, base: Signal, coefficients: TimeSamples):
        self.base = base
        self.coefficients = coefficients
        self.integrable_spectrum = base.integrable_spectrum

    def required_half_bandwidth(self) -> int | None:
        return self.base.required_half_bandwidth()

    def grid_values(self, grid: FrequencyGrid) -> np.ndarray:
        base_vals = self.base.grid_values(grid)
        ks = self.coefficients.ks
        cs = self.coefficients.values
        om_unit = grid.unit_omegas
        fiber = np.zeros(grid.resolution, dtype=complex)
        for k, c in zip(ks, cs):
            fiber += c * np.exp(-2j * np.pi * k * om_unit)
        return np.tile(fiber, 2 * grid.half_bandwidth) * base_vals

    def time_values(self, xs) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        out = np.zeros(xs.shape, dtype=complex)
        for k, c in zip(self.coefficients.ks, self.coefficients.values):
            out += c * self.base.time_values(xs - k)
        return out

    def integer_samples(self, grid: FrequencyGrid, k_max: int) -> TimeSamples:
        if isinstance(self.base, TimeKernel):
            # compactly supported base: the finite time sum is exact
            ks = np.arange(-k_max, k_max + 1)
            vals = self.time_values(ks.astype(float))
            nz = np.abs(vals) > 0
            if not np.any(nz):
                return TimeSamples(np.array([0]), np.array([0.0 + 0j]), k_max, 0.0)
            cut = max(int(0.9 * k_max), 1)
            tail = float(np.sum(np.abs(vals[np.abs(ks) > cut]) ** 2))
            return TimeSamples(ks[nz], vals[nz], k_max, tail_energy=tail)
        return _samples_from_grid(self, grid, k_max)

    def spectral_tail_energy(self, grid: FrequencyGrid) -> float:
        return self.base.spectral_tail_energy(grid)
