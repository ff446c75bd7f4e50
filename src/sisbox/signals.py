"""Signal representations: how a function of one real variable is known.

Three primary representations plus one derived:

* ``PiecewiseConstantSpectrum`` -- spectrum is a finite union of disjoint
  half-open intervals with constant complex values; everything about it
  (time values as sums of sincs, periodized profiles) is in closed form.
* ``GridSpectrum`` -- spectrum known only through its values at the nodes
  of one ``FrequencyGrid``.  Time evaluation integrates the cell-constant
  model exactly (each node value stands for its half-open cell), which is
  exact for spectra that are constant on grid cells and first-order
  accurate for smooth ones.
* ``TimeKernel`` -- compactly supported continuous time function given by
  an evaluator; its spectrum is obtained by trapezoid quadrature of order
  QUADRATURE_ORDER (Bluestein-transform accelerated).
* ``ShiftCombination`` -- finite combination sum_k c_k phi(. - k) of the
  integer translates of a base signal; keeps both its time-domain sum
  (factored around one Cauchy-matrix product over an interval spectrum,
  poles summed directly) and the exact grid spectrum C(omega) * phi_hat.

Every representation carries ``integrable_spectrum``: membership in the
class of square-integrable functions with absolutely integrable spectrum
(a time kernel's caller states it).

Grid time evaluation takes the first nonzero node's phase exactly and sums
the others' offsets from it directly, or at uniform points where that costs
more (``_CHIRP_WORK_RATIO``) by a numpy chirp (Bluestein) transform over
the nonzero span, ``_phase_czt``, which time-kernel spectra also use.  The
transform cuts the longer of its inputs and outputs into blocks of at most
max(``_CZT_BLOCK``, shorter side) and runs each block as one row of a
batched FFT, at the smallest 5-smooth length that holds one block's
convolution.  Its chirp and block phases are reduced mod 1 in exact integer
arithmetic (the rate is a dyadic double), so the transform is accurate to
rounding.  Dekker's split (``_product_turns``) reduces exactly the first
node's phase in grid time evaluation, the piece phases of interval spectra
and both sides of the factored shift-combination sum.  The direct route of
grid time evaluation rounds each product x * offset once, then reduces it
mod 1; ``twisted_sum`` reduces x mod 1 exactly, then rounds m * x.  Cell
and piece integrals are sincs, which do not cancel near x = 0.
"""

from __future__ import annotations

import numpy as np

from .errors import BandwidthOverflowError, GridMismatchError, PreconditionError
from .grid import FrequencyGrid, TimeSamples, pow2_at_least

# uniform points take the chirp transform when nodes * points (the direct sum's
# terms) exceeds this many times its length (span + points); on a 2-vCPU Xeon,
# numpy 2.4.6, the direct sum costs 20-50 ns a term, the blocked transform ~2 ms
# plus 110-170 ns a point, and over two sweeps of spans 64-262,144 at 1,001 and
# 4,097 points the routes break even between ratios 1.5 and 20: 2.2-6.6 from
# span 16,384 up, the rest at spans below 1,024, where both take ~2 ms
_CHIRP_WORK_RATIO = 4
# a chirp transform cuts its longer side into blocks of at most this length (or
# the shorter side's, if longer); the hat spectrum at (64, 4096), 2,049 ->
# 524,288 points, takes 47 / 40 / 32 / 36 ms at 4,096 / 8,192 / 16,384 / 32,768
# and 119 ms in one block (best of 7, 2-vCPU Xeon, numpy 2.4.6); 4.6 against
# 10.7 ms in one block at (32, 1024), 52 against 250 ms at (64, 8192)
_CZT_BLOCK = 16384
QUADRATURE_ORDER = 2048  # trapezoid nodes over a time kernel's support
_SYNTHESIS_BLOCK = 1 << 20  # (point, term) pairs per block of a direct sum: grid nodes or shifts


def _uniform_spacing(xs: np.ndarray) -> float | None:
    """Common spacing of a monotone uniform array, else None.  The spacing
    is the span over the count, not the first difference, which carries
    the rounding of the first two points."""
    if xs.size < 3:
        return None
    d = np.diff(xs)
    if d[0] == 0:
        return None
    if np.max(np.abs(d - d[0])) <= 1e-12 * max(abs(d[0]), 1.0):
        return float((xs[-1] - xs[0]) / (xs.size - 1))
    return None


def _turns(t: np.ndarray) -> np.ndarray:
    """exp(2i*pi*t), with t first reduced mod 1 (exactly) so large phases
    lose no accuracy to the multiplication by 2*pi."""
    return np.exp(2j * np.pi * (t - np.round(t)))


def _product_turns(a, x):
    """a*x less an integer (broadcast), so that _turns of it is exp(2i*pi*a*x)
    to rounding however large a*x is: Dekker's split (2^27 + 1) cuts each
    factor into halves of at most 26 bits, whose four products are exact and
    are each reduced mod 1."""
    ah, xh = (v * 134217729.0 - (v * 134217729.0 - v) for v in (a, x))
    al, xl = a - ah, x - xh
    return sum(p - np.round(p) for p in (ah * xh, ah * xl, al * xh, al * xl))


def _shifted_turns(m, c, x):
    """(m + c)*x less an integer, m integer and c in [0, 1]: m + c rounds to a,
    whose remainder c - (a - m) is exact (Fast2Sum) and too small to reduce."""
    a = m + c
    return _product_turns(a, x) + (c - (a - m)) * x


def require_finite(values: np.ndarray) -> None:
    """Refuse spectrum values with a NaN or infinite node."""
    if bad := np.count_nonzero(~np.isfinite(values)):
        raise PreconditionError(f"spectrum has {bad} non-finite grid value(s)")


def _fast_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: pocketfft is fast on these lengths."""
    best = pow2_at_least(n)
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 * pow2_at_least(-(-n // p35)))
            p35 *= 3
        p5 *= 5
    return best


def _rate_turns(rate: float, ints: np.ndarray) -> np.ndarray:
    """exp(2i*pi*rate*n) for nonnegative integers n below 2^41, the phase
    rate*n reduced mod 1 almost exactly.

    Every double is a dyadic rational: rate mod 1 splits exactly into
    h * 2^-40 (integer h) plus a remainder below 2^-41.  h*n mod 2^40 is
    exact in uint64 wraparound arithmetic, and the remainder times n stays
    below 1, where plain floating point is accurate.
    """
    scaled = (rate - np.round(rate)) * 2.0 ** 40  # exact, in [-2^39, 2^39]
    h = np.round(scaled)
    low = (scaled - h) * 2.0 ** -40
    ints = np.asarray(ints, dtype=np.uint64)
    with np.errstate(over="ignore"):
        top = (np.uint64(int(h) % (1 << 40)) * ints) & np.uint64((1 << 40) - 1)
    return _turns(top * 2.0 ** -40 + low * ints.astype(float))


def _linear_turns(rate: float, rows: int, width: int) -> np.ndarray:
    """exp(2i*pi*rate*j) for j = 0..rows*width-1, shaped (rows, width): one
    exact phase per row times one per column, not an exp per element."""
    return np.multiply.outer(_rate_turns(rate, np.arange(rows) * width),
                             _rate_turns(rate, np.arange(width)))


def _phase_czt(coeffs: np.ndarray, rate: float, count: int) -> np.ndarray:
    """out[m] = sum_n coeffs[n] * exp(2j*pi*rate*n*m) for m = 0..count-1.

    The longer side (inputs or outputs) is cut into blocks of at most
    max(``_CZT_BLOCK``, shorter side); the shorter side stays one block, as
    cutting it too would multiply the FFT work by its block count.  Input
    block p (offset s_p, index n = s_p + a) against output block q (offset
    t_q, index m = t_q + b), where s_p or t_q is 0, is one Bluestein chirp
    transform in a and b: n*m = (a^2 + b^2 - (b - a)^2) / 2 + a*t_q + s_p*b
    turns its sum into a convolution with the chirp exp(-i*pi*rate*k^2)
    between two offset phases.  Each block is one row of one batched FFT at
    the smallest 5-smooth length >= block in + block out - 1, and all rows
    share one chirp.  Chirp and offset phases are reduced mod 1 almost
    exactly (``_rate_turns``; k^2 below 2^41), so the result is accurate to
    rounding (~1e-15 relative) for any dyadic rate.
    """
    n = coeffs.size
    block = max(_CZT_BLOCK, min(n, count))
    p, q = -(-n // block), -(-count // block)
    bi, bo = -(-n // p), -(-count // q)
    size = _fast_length(bi + bo - 1)
    k = np.arange(max(bi, bo), dtype=np.uint64)
    w = _rate_turns(rate / 2, k * k)  # the chirp exp(i*pi*rate*k^2)
    kernel = np.zeros(size, dtype=complex)
    kernel[:bo] = np.conj(w[:bo])
    kernel[size - bi + 1:] = np.conj(w[bi - 1:0:-1])
    x = np.zeros(p * bi, dtype=complex)
    x[:n] = coeffs
    twist = _rate_turns(rate, np.outer(np.arange(q) * bo, np.arange(bi)))  # a * t_q
    pre = x.reshape(p, 1, bi) * (w[:bi] * twist)
    post = w[:bo] * _rate_turns(rate, np.outer(np.arange(p) * bi, np.arange(bo)))  # s_p * b
    spectrum = np.fft.fft(pre, size)
    spectrum *= np.fft.fft(kernel)
    conv = np.fft.ifft(spectrum)[..., :bo]
    out = conv[0] * post[0]
    for rows, phase in zip(conv[1:], post[1:]):  # not .sum(axis=0): slow for one input block
        out += rows * phase
    return out.ravel()[:count]


class Signal:
    """Common interface of all signal representations."""

    integrable_spectrum: bool = True
    series_tail: float = 0.0  # tail of a series the representation truncates
    # (a, b) outside which the time function is exactly 0; None when only
    # the spectrum is known
    support: tuple[float, float] | None = None

    def grid_values(self, grid: FrequencyGrid) -> np.ndarray:
        """Spectrum values at all 2KN grid nodes."""
        raise NotImplementedError

    def time_values(self, xs) -> np.ndarray:
        """Values of the time function at arbitrary real points."""
        raise NotImplementedError

    def integer_samples(self, grid: FrequencyGrid, k_max: int) -> TimeSamples:
        """Samples f(k) used by Zak fibers and reconstruction.

        A signal with a support is sampled exactly at the integers of its
        support with |k| <= k_max, keeping the nonzero values (maybe none); its tail
        energy is that of the support's samples beyond +-k_max.  Every
        other signal samples its grid projection (inverse DFT of the
        periodized spectrum) at |k| <= k_max, a full period when k_max >=
        N/2; its tail energy is that of the period's samples it drops.  Only
        a full period makes the samples' time fiber the periodization (to
        rounding); below it the fiber is a truncated Fourier series of it.
        """
        if self.support is None:
            folded = grid.fold(self.grid_values(grid))
            return _samples_from_grid(folded[grid.band(folded)].sum(axis=0), k_max)
        a, b = self.support
        ks = np.arange(int(np.ceil(a - 1e-12)), int(np.floor(b + 1e-12)) + 1)
        vals = self.time_values(ks.astype(float))
        inside = np.abs(ks) <= k_max
        tail = float(np.sum(np.abs(vals[~inside]) ** 2))
        keep = inside & (vals != 0)
        return TimeSamples(ks[keep], vals[keep], k_max, tail_energy=tail)

    def required_half_bandwidth(self) -> int | None:
        """Smallest grid K the spectrum fits, which the CLI widens to, or None
        where the representation names none; ``grid_values`` alone refuses a grid."""
        return None

    def spectral_tail_energy(self, grid: FrequencyGrid) -> float:
        """Energy outside [-K, K) discarded by the grid projection."""
        return 0.0


def _samples_from_grid(periodized: np.ndarray, k_max: int) -> TimeSamples:
    a = np.fft.ifft(periodized)  # a[r] = grid-projected f(r), N-periodic in r
    n = periodized.size
    half = n // 2
    ks = np.arange(-half, half) if k_max >= half else np.arange(-k_max, k_max + 1)
    vals = a[ks % n]
    # the energy of the period's samples left out: by Parseval,
    # (1/N) sum_j |P_j|^2 less the kept samples' energy; 0 for a full period
    dropped = np.ones(n, dtype=bool)
    dropped[ks % n] = False
    tail = float(np.sum(np.abs(a[dropped]) ** 2))
    return TimeSamples(ks, vals, k_max, tail_energy=tail)


def _grid_time_values(values: np.ndarray, grid: FrequencyGrid, xs: np.ndarray) -> np.ndarray:
    """Integrate the cell-constant spectral model against exp(2i*pi*omega*x).

    Exact when ``values`` are constant on grid cells (each node represents
    its half-open cell [omega_j, omega_j + 1/N)); refuses a non-finite node.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    n = grid.resolution
    band = grid.band(grid.fold(values))
    nz = band.start * n + np.flatnonzero(values[band.start * n:band.stop * n])
    if not nz.size:
        return np.zeros(xs.size, dtype=complex)
    require_finite(values[nz])
    first, span = nz[0], nz[-1] + 1 - nz[0]
    # cell kernel: integral of exp(2i*pi*omega*x) over one cell [w, w + step) at
    # the first nonzero node w, step * sinc(step * x) * exp(2i*pi*(w + step/2)*x)
    # with the phase reduced exactly, so both routes below sum only the offsets
    # (j - first) / N; the sinc form does not cancel near x = 0 as exp(...) - 1 does
    w = first / n - grid.half_bandwidth
    kern = grid.step * np.sinc(grid.step * xs) * _turns(_product_turns(w, xs) + grid.step / 2 * xs)

    spacing = _uniform_spacing(xs)
    if spacing is not None and nz.size * xs.size > _CHIRP_WORK_RATIO * (span + xs.size):
        # uniform x: one chirp transform over the nonzero span, the offsets'
        # phases exp(2i*pi*x0*(j - first)/N) taken one grid row at a time
        twist = _linear_turns(xs[0] / n, -(-span // n), n).ravel()[:span]
        return _phase_czt(values[first:first + span] * twist, spacing / n, xs.size) * kern

    offsets = (nz - first) / n
    vals = values[nz]
    out = np.empty(xs.size, dtype=complex)
    rows = max(1, _SYNTHESIS_BLOCK // nz.size)  # points per block
    for start in range(0, xs.size, rows):
        chunk = slice(start, start + rows)
        out[chunk] = _turns(np.outer(xs[chunk], offsets)) @ vals
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
            if not (np.isfinite(a) and np.isfinite(b)):
                raise ValueError(f"interval [{a}, {b}) must have finite ends")
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
        # [m + lo, m + hi) lies in [-K, K) iff -m <= K and m + 1 <= K, as
        # 0 <= lo < hi <= 1: exact also where m + hi rounds to m (m + 2^-64)
        return pow2_at_least(max((max(m + 1, -m) for m, _, _, _ in self.pieces), default=1))

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
        # piece [m + lo, m + hi): v * width * sinc(width * x) * exp(2i*pi*centre*x),
        # the phase reduced exactly; no ramp exp(...) - 1 that cancels near x = 0
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        out = np.zeros(xs.shape, dtype=complex)
        for m, lo, hi, v in self.pieces:
            out += v * (hi - lo) * np.sinc((hi - lo) * xs) * _turns(_shifted_turns(m, (lo + hi) / 2, xs))
        return out

    def scaled(self, factor: complex) -> "PiecewiseConstantSpectrum":
        return PiecewiseConstantSpectrum.from_local_pieces(
            [(m, lo, hi, v * factor) for m, lo, hi, v in self.pieces],
            self.integrable_spectrum,
        )


def twisted_sum(coeffs: np.ndarray, shifts: np.ndarray, x) -> np.ndarray:
    """sum over rows r of coeffs[r] exp(2i*pi*shifts[r]*x): (P, columns) for P
    offsets from one (P, S) @ (S, columns) product; for a scalar x, one value
    per column summed row by row like the periodization (x = 0 reproduces it
    exactly).  The shifts are integers, so x is first reduced, exactly, to
    [0, 1): far offsets keep the phase accuracy of near ones."""
    xs = np.asarray(x, dtype=float)
    band = FrequencyGrid.band(coeffs)  # zero rows beyond it add nothing
    coeffs, shifts = coeffs[band], shifts[band]
    phases = np.exp(2j * np.pi * np.multiply.outer(xs - np.floor(xs), shifts))
    if phases.ndim == 1:
        return (coeffs * phases[:, None]).sum(axis=0)
    return phases @ coeffs


class PeriodizedProfile:
    """Per-piece view of the periodized quantities of one signal over one
    period [0, 1): periodization ``z``, absolute periodization ``abs_sum``,
    Grammian ``sq_sum`` and the phase-twisted fiber ``dual(x)``, read from
    ``coeffs``: the spectrum on each piece, one row per shift in ``shifts``.

    ``from_pieces`` (``exact=True``): pieces follow the folded breakpoints
    of a piecewise-constant spectrum.  On each piece the set of
    contributing (value, shift) pairs is constant, so every quantity is
    evaluated in closed form and sub-grid detail is preserved.
    ``from_fibers``: that exact profile for a piecewise-constant signal,
    otherwise (``exact=False``) one piece per unit-grid cell.
    """

    def __init__(self, starts, lengths, z, abs_sum, sq_sum, shifts, coeffs, exact: bool):
        self.starts = np.asarray(starts, dtype=float)
        self.lengths = np.asarray(lengths, dtype=float)
        self.z = np.asarray(z, dtype=complex)
        self.abs_sum = np.asarray(abs_sum, dtype=float)
        self.sq_sum = np.asarray(sq_sum, dtype=float)
        self.shifts = np.asarray(shifts)
        self.coeffs = coeffs
        self.exact = exact

    def dual(self, x) -> np.ndarray:
        """Per-piece sum_m f_hat(omega+m) exp(2i*pi*m*x): (pieces,) for a scalar
        x, (P, pieces) for P offsets from one (P, shifts) @ (shifts, pieces) product."""
        return twisted_sum(self.coeffs, self.shifts, x)

    @classmethod
    def from_pieces(cls, pieces) -> "PeriodizedProfile":
        """Exact profile of (shift, local start, local end, value) pieces."""
        cut = np.unique([0.0, 1.0] + [t for _, lo, hi, _ in pieces for t in (lo, hi)])
        mid = 0.5 * (cut[:-1] + cut[1:])
        shifts = np.unique([m for m, _, _, _ in pieces])
        coeffs = np.zeros((shifts.size, mid.size), dtype=complex)
        for m, lo, hi, v in pieces:  # pieces of one shift never overlap
            coeffs[np.searchsorted(shifts, m), (lo <= mid) & (mid < hi)] = v
        modulus = np.abs(coeffs)
        return cls(cut[:-1], cut[1:] - cut[:-1], coeffs.sum(axis=0), modulus.sum(axis=0),
                   (modulus ** 2).sum(axis=0), shifts, coeffs, exact=True)

    @classmethod
    def from_fibers(cls, fib) -> "PeriodizedProfile":
        """Profile of the signal of a ``spectral.Fibers`` record."""
        if isinstance(fib.signal, PiecewiseConstantSpectrum):
            return cls.from_pieces(fib.signal.pieces)
        n = fib.grid.resolution
        return cls(fib.grid.unit_omegas, np.full(n, 1.0 / n), fib.periodization.values,
                   fib.abs_periodization.real_values, fib.grammian.real_values,
                   fib.grid.shifts(), fib.folded, exact=False)


class GridSpectrum(Signal):
    """Spectrum known only through its values at the nodes of one grid."""

    def __init__(self, values: np.ndarray, grid: FrequencyGrid, integrable_spectrum: bool = True):
        values = np.asarray(values, dtype=complex)
        if values.shape != (grid.size,):
            raise ValueError(f"expected {grid.size} spectrum values, got {values.shape}")
        self.values = values
        self.grid = grid
        self.integrable_spectrum = integrable_spectrum

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

    ``integrable_spectrum`` is stated by the caller: a grid spectrum
    truncated at K cannot decide whether the full spectrum is absolutely
    integrable.  The grid spectrum of a time kernel is a truncation: energy
    beyond [-K, K) is discarded and reported by spectral_tail_energy().
    """

    def __init__(self, support: tuple[float, float], evaluator, *, integrable_spectrum: bool):
        a, b = float(support[0]), float(support[1])
        if b <= a:
            raise ValueError("support must be a nonempty interval")
        self.support = (a, b)
        self.evaluator = evaluator
        self.integrable_spectrum = integrable_spectrum
        self._spectrum_cache: dict[tuple[int, int], np.ndarray] = {}

    def time_values(self, xs) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        a, b = self.support
        inside = (xs >= a) & (xs <= b)
        out = np.where(np.isnan(xs), np.nan, 0.0).astype(complex)  # a NaN point is no 0
        if np.any(inside):
            out[inside] = np.asarray(self.evaluator(xs[inside]), dtype=complex)
        return out

    def grid_values(self, grid: FrequencyGrid) -> np.ndarray:
        key = (grid.half_bandwidth, grid.resolution)
        if key not in self._spectrum_cache:
            self._spectrum_cache[key] = self._compute_spectrum(grid)
        return self._spectrum_cache[key]

    def _trapezoid(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the trapezoid rule over the support."""
        a, b = self.support
        xs = np.linspace(a, b, QUADRATURE_ORDER + 1)
        w = np.full(xs.size, (b - a) / QUADRATURE_ORDER)
        w[[0, -1]] *= 0.5
        return xs, w

    def _compute_spectrum(self, grid: FrequencyGrid) -> np.ndarray:
        a, b = self.support
        xs, w = self._trapezoid()
        s = np.asarray(self.evaluator(xs), dtype=complex)
        # spectrum at omega_j = -K + j/N is sum_m w_m s(x_m) exp(-2i*pi*x_m*omega_j)
        # with x_m = a + m*delta: K*x_m is exact (K is a power of two), the sum over
        # m*j one chirp transform, and exp(-2i*pi*a*j/N) a row times a column phase
        k, n = grid.half_bandwidth, grid.resolution
        delta = (b - a) / QUADRATURE_ORDER
        out = _phase_czt(w * s * _turns(k * xs), -delta / n, grid.size)
        out *= _linear_turns(-a / n, 2 * k, n).ravel()
        return out

    def spectral_tail_energy(self, grid: FrequencyGrid) -> float:
        xs, w = self._trapezoid()
        time_energy = float(np.sum(w * np.abs(np.asarray(self.evaluator(xs))) ** 2))
        band_energy = float(np.sum(np.abs(self.grid_values(grid)) ** 2)) / grid.resolution
        return max(time_energy - band_energy, 0.0)

    def scaled(self, factor: complex) -> "TimeKernel":
        ev = self.evaluator
        return TimeKernel(self.support, lambda x: factor * np.asarray(ev(x)),
                          integrable_spectrum=self.integrable_spectrum)


class ShiftCombination(Signal):
    """f = sum_k c_k * base(. - k) for finitely many coefficients c_k.

    Time values are the finite sum: in factored form over a piecewise-
    constant base (``_interval_sum``), otherwise through the base's time
    values at blocks of (point, shift) differences; the grid spectrum is the
    exact product C(omega) * base_hat(omega) with C the coefficient fiber.
    """

    def __init__(self, base: Signal, coefficients: TimeSamples):
        self.base = base
        self.coefficients = coefficients
        self.integrable_spectrum = base.integrable_spectrum
        ks = coefficients.ks
        if base.support is not None and ks.size:
            self.support = (base.support[0] + float(ks.min()), base.support[1] + float(ks.max()))

    def grid_values(self, grid: FrequencyGrid) -> np.ndarray:
        fiber = self.coefficients.fiber(grid.resolution)
        return (fiber * grid.fold(self.base.grid_values(grid))).ravel()

    def time_values(self, xs) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if isinstance(self.base, PiecewiseConstantSpectrum):
            return self._interval_sum(xs.ravel()).reshape(xs.shape)
        ks, cs = self.coefficients.ks, self.coefficients.values
        out = np.zeros(xs.size, dtype=complex)
        rows = max(1, _SYNTHESIS_BLOCK // max(xs.size, 1))  # shifts per call of the base
        for start in range(0, ks.size, rows):
            diff = np.subtract.outer(xs.ravel(), ks[start:start + rows])
            out += self.base.time_values(diff.ravel()).reshape(diff.shape) @ cs[start:start + rows]
        return out.reshape(xs.shape)

    def _interval_sum(self, xs: np.ndarray) -> np.ndarray:
        """sum_k c_k psi(x - k) for a base spectrum of pieces v * 1[e0, e1).

        psi(y) = sum over ends e of w_e exp(2i*pi*e*y) / (2i*pi*y), w_e = +v at
        e1 and -v at e0, so the sum is, over ends, exp(2i*pi*e*x) times
        (R @ (c w_e exp(-2i*pi*e*k))) / (2i*pi), R the real Cauchy matrix
        1/(x - k): 2 * pieces * (S + X) exps, not 2 * pieces * S * X.  Near a
        pole the factored form cancels: entries with |x - k| < 1/2 are left out
        of R and summed directly through the base's time values."""
        ks, cs = self.coefficients.ks, self.coefficients.values
        if not ks.size:
            return np.zeros(xs.size, dtype=complex)
        near = np.round(xs)
        y = xs - near  # R's entry at the nearest integer, exact (Sterbenz)
        idx = np.clip(np.searchsorted(ks, near), 0, ks.size - 1)
        at = np.flatnonzero((np.abs(y) < 0.5) & (ks[idx] == near))  # not NaN or inf
        idx = idx[at]
        m, lo, hi, v = (np.array(col) for col in zip(*self.base.pieces))
        m, frac, w = np.tile(m, 2), np.concatenate([hi, lo]), np.concatenate([v, -v])
        # (S, 2E) real view of the k-side factor: e*k mod 1 drops e's integer part
        coef = (cs[:, None] * w / (2j * np.pi) * _turns(-_product_turns(frac, ks[:, None]))).view(float)
        out = np.empty(xs.size, dtype=complex)
        rows = max(1, _SYNTHESIS_BLOCK // max(ks.size, m.size))
        for start in range(0, xs.size, rows):
            xb = xs[start:start + rows, None]
            r = xb - ks
            pole = slice(*np.searchsorted(at, [start, start + rows]))
            r[at[pole] - start, idx[pole]] = np.inf  # left out: summed directly below
            np.reciprocal(r, out=r)
            ends = _turns(_shifted_turns(m, frac, xb))
            out[start:start + rows] = np.sum(ends * (r @ coef).view(complex), axis=1)
        out[at] += cs[idx] * self.base.time_values(y[at])
        return out

    def spectral_tail_energy(self, grid: FrequencyGrid) -> float:
        return self.base.spectral_tail_energy(grid)
