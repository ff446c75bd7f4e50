"""Signal representations: how a function of one real variable is known.

Three primary representations plus one derived:

* ``PiecewiseConstantSpectrum`` -- spectrum is a finite union of disjoint
  half-open intervals with constant complex values; everything about it
  (time values as sums of sincs, periodized profiles) is in closed form.
* ``GridSpectrum`` -- spectrum known only through its values at the nodes of one N:
  its occupied fold rows, placed by their shifts on any grid of that N whose K holds
  them (``required_half_bandwidth``).  Time evaluation integrates the cell-constant model
  exactly (each node value stands for its half-open cell): exact for spectra constant on
  grid cells, first-order accurate for smooth ones.
* ``TimeKernel`` -- compactly supported continuous time function given by an evaluator; its
  spectrum is obtained by trapezoid quadrature of order QUADRATURE_ORDER (Bluestein-transform
  accelerated; a real kernel's at omega < 0 only, mirrored to omega > 0: it is Hermitian).
* ``ShiftCombination`` -- finite combination sum_k c_k phi(. - k) of the integer
  translates of a base signal; keeps both its time-domain sum (factored around one
  Cauchy-matrix product over an interval spectrum, poles summed directly) and the exact
  grid spectrum C(omega) * phi_hat; over a spectral base, sampled from its coefficients.

Every representation carries ``integrable_spectrum``: membership in the
class of square-integrable functions with absolutely integrable spectrum
(a time kernel's caller states it).  On a grid each is held as its band (``band_values``; a K
narrower is refused): the fold rows that can hold a nonzero node, alone (an interval spectrum's
pieces', a grid spectrum's occupied rows, a combination's base's, all 2K of a time kernel).
Each class states the rules that depend on what it is, and no caller tests a class: ``integer_samples``,
``support_shifts``, ``exact_profile`` and ``cells`` (an interval spectrum's: the cells' sums read off that
profile, the band built on first read), ``shift_sum`` (a combination's time values are its base's) and
``grid_model`` (a grid spectrum's alone: no exact time form or rescale, so the spectral route and grid division).

Every phase a * x is reduced mod 1 exactly by Dekker's split (``_product_turns``;
``_shifted_turns`` for a piece at m + c; a factor past 2^52 is an integer).  One
direct sum serves both spectrum kinds, ``_phase_table``'s exact phases (a pair at a
time, or at uniform points one per row times one per column, ``_linear_turns``, each
point's residual applied after the contraction): interval spectra's pieces, and the grid
nodes' offsets from the first that the chirp transform (``_phase_czt``) leaves.  Only
``twisted_sum`` / ``dual_energy`` round a product once, then reduce it: an x reduced
exactly to [0, 1) times shifts |m| <= K.  Sincs (``_sincs``) reduce w * x mod 2 exactly.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .errors import BandwidthOverflowError, GridMismatchError, PreconditionError
from .grid import FrequencyGrid, TimeSamples, _sorted_unique, pow2_at_least

# at uniform points a block of the span is chirp transformed when its nodes * points (the
# direct sum's terms) exceed this many times its length plus points.  Dense spans 64-262,144 at
# 1,001 and 4,097 points (2-vCPU Xeon, numpy 2.4.6): 2.5-26 ns a direct term on one BLAS thread,
# 1.7-39 ms a transform, break-even at ratios 25-175; on two threads the direct products wait
# (190-460 ns a term below span 1,024 at 1,001 points, break-even 4-7): 4 errs toward the transform
_CHIRP_WORK_RATIO = 4
# a chirp transform cuts its longer side into blocks of at most this length (or
# the shorter side's, if longer); the hat spectrum at (64, 4096), 2,049 ->
# 524,288 points, takes 47 / 40 / 32 / 36 ms at 4,096 / 8,192 / 16,384 / 32,768
# and 119 ms in one block (best of 7, 2-vCPU Xeon, numpy 2.4.6); 4.6 against
# 10.7 ms in one block at (32, 1024), 52 against 250 ms at (64, 8192)
_CZT_BLOCK = 16384
QUADRATURE_ORDER = 2048  # trapezoid nodes over a time kernel's support
_SYNTHESIS_BLOCK = 1 << 20  # (point, term) pairs per block of a sum over shifts or coefficients
# entries of a phase table (weighted: row and column phases) per block; at uniform points a
# table of one block or more is built by rows and columns, a smaller one a pair at a time: shannon's
# 2 pieces at 4,097 points take 0.54-0.76 ms by pairs, 0.91-0.94 by rows (2-vCPU Xeon, numpy 2.4.6)
_TABLE_BLOCK = 1 << 14
_INTEGRAL = 2.0 ** 52  # every double of at least this magnitude is an integer


def _uniform_spacing(xs: np.ndarray) -> float | None:
    """Common spacing of a monotone uniform array, else None: the span over the
    count, not the first difference, which carries the first two points' rounding."""
    if xs.size < 3:
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # a difference past 1.8e308 is no spacing
        d, h = np.diff(xs), float((xs[-1] - xs[0]) / (xs.size - 1))
        uniform = d[0] != 0 and np.max(np.abs(d - d[0])) <= 1e-12 * max(abs(d[0]), 1.0)
    return h if uniform and np.isfinite(h) else None


def _turns(t: np.ndarray) -> np.ndarray:
    """exp(2i*pi*t), t first reduced mod 1 (exactly): large phases lose nothing to 2*pi."""
    return np.exp(2j * np.pi * (t - np.round(t)))


def _split(v):
    """High half, of at most 26 bits, of Dekker's split (2^27 + 1): finite to 2^995."""
    return v * 134217729.0 - (v * 134217729.0 - v)


def _two_product(a, b):
    """p + e = a*b exactly, p the rounded product (Dekker)."""
    ah, bh = _split(a), _split(b)
    al, bl, p = a - ah, b - bh, a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _product_turns(a, x):
    """a*x less an integer (broadcast), so that _turns of it is exp(2i*pi*a*x)
    to rounding however large a*x is: Dekker's split (2^27 + 1) cuts each
    factor into halves of at most 26 bits, whose four products are exact and
    are each reduced mod 1.  A factor past 2^52 is an integer: the other counts
    mod 1 only; one past 2^995 is split at 2^-28 of itself (both exact).  An all-0 low
    half of a (integers below 2^26) skips its two products, each +0 (a non-finite x: NaN)."""
    if max(np.fmax.reduce(np.abs(v), axis=None, initial=0.0) for v in (a, x)) >= _INTEGRAL:  # NaN left out
        a, x = (np.where(np.abs(o) >= _INTEGRAL, v - np.round(v), v) for v, o in ((a, x), (x, a)))
        ah, xh = (_split(v / s) * s for v in (a, x) for s in [np.where(np.abs(v) > 2.0 ** 995, 2.0 ** 28, 1.0)])
    else:
        ah, xh = _split(a), _split(x)
    al, xl = a - ah, x - xh
    halves = ((ah, xh), (ah, xl), (al, xh), (al, xl)) if np.any(al) else ((ah, xh), (ah, xl))
    return sum(p - np.round(p) for p in (u * v for u, v in halves))


def _shifted_turns(m, c, x):
    """(m + c)*x less an integer, m integer and c in [0, 1]: m + c rounds to a,
    whose remainder c - (a - m) is exact (Fast2Sum), too small to reduce, and skipped
    where all 0.  Where |x| >= 2^52, x is an integer, and so is m*x: m drops out."""
    if np.fmax.reduce(np.abs(x), axis=None, initial=0.0) >= _INTEGRAL:
        m = np.where(np.abs(x) >= _INTEGRAL, 0, m)
    a = m + c
    rest = c - (a - m)
    return _product_turns(a, x) + rest * x if np.any(rest) else _product_turns(a, x)


def _unit_sinc(wx):  # sinc(w*x) = 1 - (pi*w*x)^2/6 + ... rounds to 1 below sqrt(6)*2^-27/pi
    return wx < np.sqrt(6) * 2.0 ** -27 / np.pi


def _sincs(w, x):
    """sinc(w*x), a row per width w > 0 and a column per x: 1 in rows where it rounds to 1 at
    max|x| (NaN hides no |x|); where |w*x| may pass 1, w*x reduced mod 2 exactly (a
    two-product, x cut at 2^995) before the sine, which np.sinc rounds first."""
    out, top, x = np.ones((w.size, x.size)), np.fmax.reduce(np.abs(x), initial=0.0), np.clip(x, -2.0 ** 995, 2.0 ** 995)
    rows = np.flatnonzero(~_unit_sinc(w * top))
    t = p = np.multiply.outer(w[rows], x)
    if np.any(far := w[rows] * top >= 1):
        q, e = _two_product(w[rows[far], None], x)
        t = p.copy()
        t[far] = (q - 2 * np.round(q / 2)) + (e - 2 * np.round(e / 2))
    out[rows] = np.divide(np.sin(np.pi * t), np.pi * p, out=np.ones(p.shape), where=p != 0)
    return out


def _at_points(s, d):  # sums at x0 + h*j + d_j from s[0] at x0 + h*j and s[1] of f times the terms
    return s[0] if d is None else s[0] + 2j * np.pi * d * s[1]  # |f*d| <= 2^-30 (_phase_table)


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


def _linear_turns(rate, rows, width, ints=1):
    """Factors of exp(2i*pi*rate*ints*j), j = r*width + c: rows (rows, F) at r*width
    and columns (width, F) at c, one exact phase each, for F rates each the exact sum
    of its parts (a tuple of scalars or (F,) arrays), times integers ``ints`` (F,)."""
    n = np.concatenate([np.arange(rows) * width, np.arange(width)])[:, None, None] * ints
    return np.split(_turns(_product_turns(np.stack(np.broadcast_arrays(*rate)), n).sum(axis=1)), [rows])


def _phase_table(m, c, xs: np.ndarray, terms: int = 1, weights=None):
    """Blocks (points, table, d) of exp(2i*pi*f*x), f = m + c (m integer, c in [0, 1]), a row
    per f and a column per x in xs[points]: at most _TABLE_BLOCK entries, and _SYNTHESIS_BLOCK
    pairs of x and the caller's ``terms``.  Each entry is its exact phase's to rounding: one a
    pair (d None), or at uniform x_j = x0 + h*j + d_j, from one block on, one exact phase per
    row r, f*(x0 + h*r*width), times one per column c, f*h*c (f*h a two-product, or h times the
    integer f*c): at x0 + h*j, d (None if 0, |f*d_j| <= 2^-30) left to ``_at_points``.  With
    ``weights`` (F,), blocks (points, weights @ table, None), at uniform points with no table:
    (rows, F) @ (F, width) products of the weights, and of weights * f for d_j."""
    f = m + c
    step = max(1, min(_TABLE_BLOCK // max(f.size, 1), _SYNTHESIS_BLOCK // terms))  # points a block
    top = np.max(np.abs(f), initial=0.0)  # by rows only while |f*x| < 2^51: a span < 2^52 turns
    by_rows = xs.size * f.size >= _TABLE_BLOCK and top * max(abs(xs[0]), abs(xs[-1])) < 2.0 ** 51
    h = _uniform_spacing(xs) if by_rows else None
    if h is not None:
        p, e = _two_product(h, np.arange(xs.size, dtype=float))
        s = xs[0] + p
        z = s - xs[0]
        d = xs - s - ((xs[0] - (s - z)) + (p - z)) - e  # x0 + h*j = s + t + e exactly (TwoSum t)
    if h is None or not top * np.max(np.abs(d)) <= 2.0 ** -30:
        for i in range(0, xs.size, step):
            table = _turns(_shifted_turns(m[:, None], c[:, None], xs[i:i + step]))
            yield slice(i, i + step), table if weights is None else weights @ table, None
        return
    width = int(np.ceil(np.sqrt(xs.size)))
    rows = -(-xs.size // width)

    def factors(b):  # rows (rows, F) with the phase at x0 and columns (width, F) of f[b]
        if not np.any(c[b]):  # integer f: h times the integers f*j
            row, col = _linear_turns((h,), rows, width, m[b])
            return row * _turns(_product_turns(m[b], xs[0])), col
        hi, lo = _two_product(f[b], h)
        row, col = _linear_turns((hi, lo + (c[b] - (f[b] - m[b])) * h), rows, width)
        return row * _turns(_shifted_turns(m[b], c[b], xs[0])), col

    if weights is not None:  # no table: rows @ columns of the weights, and of weights * f for d_j
        w, sums = np.stack([weights, weights * f]) if np.any(d) else weights[None], 0
        per = max(1, _TABLE_BLOCK // (rows + width))  # frequencies a block
        for b in (slice(i, i + per) for i in range(0, f.size, per)):
            row, col = factors(b)
            sums = sums + (w[:, None, b] * row) @ col.T
        sums = sums.reshape(len(w), -1)[:, :xs.size]
        yield slice(0, xs.size), _at_points(sums, d if np.any(d) else None), None
        return
    row, col = (t.T for t in factors(slice(None)))
    step = max(1, step // width)  # rows a block
    for r in range(0, row.shape[1], step):
        points = slice(r * width, min((r + step) * width, xs.size))
        table = (row[:, r:r + step, None] * col[:, None]).reshape(f.size, -1)[:, :points.stop - points.start]
        yield points, table, d[points] if np.any(d[points]) else None


@lru_cache(maxsize=8)
def _chirp_filter(rate: float, n: int, count: int) -> tuple:
    """``_phase_czt``'s shape for n inputs and count outputs, kept read-only (a new one faults in fresh pages): blocks
    bi, bo, the bins D between output blocks' spectra (None unless whole), the chirp times each output block's offset
    phase (q, bi; not where D is whole), the chirp's conjugate's FFT, and the chirp times each input block's (p, bo)."""
    block = max(_CZT_BLOCK, min(n, count))
    p, q = -(-n // block), -(-count // block)
    bi, bo = -(-n // p), -(-count // q)
    size = _fast_length(bi + bo - 1)
    turn, err = _two_product(rate, float(bo * size))  # rate * bo * size exactly: block q's offset is q * turn bins
    shift = int(turn) % size if q > 1 and err == 0 and turn.is_integer() else None
    k = np.arange(max(bi, bo))
    w = _turns(_product_turns(rate / 2, k * k))  # the chirp exp(i*pi*rate*k^2)
    kernel = np.zeros(size, dtype=complex)
    kernel[:bo] = np.conj(w[:bo])
    kernel[size - bi + 1:] = np.conj(w[bi - 1:0:-1])
    offsets = np.outer(np.arange(q) * bo, np.arange(bi)) if q > 1 and shift is None else None
    lead = w[:bi] if offsets is None else w[:bi] * _turns(_product_turns(rate, offsets))
    post = w[:bo] * _turns(_product_turns(rate, np.outer(np.arange(p) * bi, np.arange(bo)))) if p > 1 else w[None, :bo]
    kernel = np.fft.fft(kernel)
    lead.flags.writeable = kernel.flags.writeable = post.flags.writeable = False
    return bi, bo, shift, lead, kernel, post


def _phase_czt(coeffs: np.ndarray, rate: float, count: int, out: np.ndarray | None = None) -> np.ndarray:
    """out[m] = sum_n coeffs[n] * exp(2j*pi*rate*n*m) for m = 0..count-1 (into ``out`` if given).

    The longer side (inputs or outputs) is cut into blocks of at most
    max(``_CZT_BLOCK``, shorter side); the shorter side stays one block, as
    cutting it too would multiply the FFT work by its block count.  Input
    block p (offset s_p, index n = s_p + a) against output block q (offset
    t_q, index m = t_q + b), where s_p or t_q is 0, is one Bluestein chirp
    transform in a and b: n*m = (a^2 + b^2 - (b - a)^2) / 2 + a*t_q + s_p*b
    turns its sum into a convolution with the chirp exp(-i*pi*rate*k^2)
    between two offset phases (exp(0), and not computed, in one block), at the FFT
    length 5-smooth >= block in + block out - 1.  Where exp(2i*pi*rate*bo*a) is a whole
    number D of its bins, block q's input spectrum is one FFT rotated by q*D, and the output
    blocks are inverse-transformed in turn into ``out``; else each block is one row of a
    batched FFT.  Chirp and offset phases (the shape's alone: ``_chirp_filter``) are reduced
    mod 1 exactly (``_product_turns``): accurate to rounding (~1e-15 relative) for any rate.
    """
    n = coeffs.size
    bi, bo, shift, lead, kernel, post = _chirp_filter(rate, n, count)
    size, out = kernel.size, np.empty(count, dtype=complex) if out is None else out
    if shift is not None:  # one input block: each output block's spectrum is one FFT rotated
        first, block = np.fft.fft(coeffs * lead, size), np.empty(size, dtype=complex)
        for start in range(0, count, bo):
            s, m = start // bo * shift % size, min(bo, count - start)
            np.multiply(first[:size - s], kernel[s:], out=block[s:])
            np.multiply(first[size - s:], kernel[:s], out=block[:s])
            np.multiply(np.fft.ifft(block)[:m], post[0, :m], out=out[start:start + m])
        return out
    x = np.concatenate([coeffs, np.zeros(-(-n // bi) * bi - n)])
    spectrum = np.fft.fft(x.reshape(-1, 1, bi) * lead, size)
    spectrum *= kernel
    conv = np.fft.ifft(spectrum)[..., :bo]
    blocks = conv[0] * post[0]
    for rows, phase in zip(conv[1:], post[1:]):  # not .sum(axis=0): slow for one input block
        blocks += rows * phase
    out[:] = blocks.ravel()[:count]
    return out


class Signal:
    """Common interface of all signal representations, each stating its own rules (see the module docstring)."""

    integrable_spectrum: bool = True
    series_tail: float = 0.0  # tail of a series the representation truncates
    # (a, b) outside which the time function is exactly 0; None when only
    # the spectrum is known
    support: tuple[float, float] | None = None
    grid_model: bool = False  # the grid values are all there is: no exact time form, no exact rescale
    exact_profile: "PeriodizedProfile | None" = None  # the closed-form profile, where one exists

    def band_values(self, grid: FrequencyGrid) -> tuple[slice, np.ndarray]:
        """(band, rows): the slice of fold rows (row q the shift m = q - K) that can hold
        a nonzero or non-finite node, and the spectrum on those rows only, (rows, N)."""
        raise NotImplementedError

    def grid_values(self, grid: FrequencyGrid) -> np.ndarray:
        """Spectrum values at all 2KN grid nodes: the band, padded with zeros."""
        return pad_band(*self.band_values(grid), slice(0, 2 * grid.half_bandwidth)).ravel()

    def cells(self, grid: FrequencyGrid) -> tuple[slice, "PeriodizedProfile"]:
        """(band, one piece per unit-grid cell of its rows), whose sums are the rows' column sums."""
        band, rows = self.band_values(grid)
        return band, PeriodizedProfile.cells(band, rows, grid)

    def time_values(self, xs) -> np.ndarray:
        """Values of the time function at arbitrary real points."""
        raise NotImplementedError

    def integer_samples(self, grid: FrequencyGrid, k_max: int, z: np.ndarray | None = None) -> TimeSamples:
        """Samples f(k) used by Zak fibers and reconstruction.

        A signal with a support is sampled exactly and whole at its
        ``support_shifts``, keeping the nonzero values (maybe none): k_max
        cuts no sample and leaves no tail.  Every other signal samples its grid
        projection (inverse DFT of its periodization, ``z`` where the caller
        holds it) at |k| <= k_max, a full period when k_max >= N/2; its tail
        energy is that of the period's samples it drops.  Only a full period
        makes the samples' time fiber the periodization (to rounding); below
        it, a truncated Fourier series of it.
        """
        if self.support is None:
            return _period_samples(np.fft.ifft(self.band_values(grid)[1].sum(axis=0) if z is None else z), k_max)
        ks = self.support_shifts()
        vals = self.time_values(ks.astype(float))
        return TimeSamples(ks[vals != 0], vals[vals != 0], k_max)

    def support_shifts(self) -> np.ndarray:
        """The sorted integers k at which f(x + k), x in [0, 1], can be nonzero: the
        window floor(a) - 1 .. ceil(b) + 1 around the support [a, b]."""
        a, b = self.support
        return np.arange(int(np.floor(a)) - 1, int(np.ceil(b)) + 2)

    def shift_sum(self, coefficients: TimeSamples, xs: np.ndarray) -> np.ndarray:
        """sum_k c_k f(x - k) at points xs (1-D): the time values at blocks of (point, shift) differences."""
        ks, cs, out = coefficients.ks, coefficients.values, np.zeros(xs.size, dtype=complex)
        rows = max(1, _SYNTHESIS_BLOCK // max(xs.size, 1))  # shifts per call
        for start in range(0, ks.size, rows):
            diff = np.subtract.outer(xs, ks[start:start + rows])
            out += self.time_values(diff.ravel()).reshape(diff.shape) @ cs[start:start + rows]
        return out

    def required_half_bandwidth(self) -> int | None:
        """Smallest grid K the band fits, which ``band_values`` refuses below and the CLI
        widens to, or None where the representation names none."""
        return None

    def spectral_tail_energy(self, grid: FrequencyGrid) -> float:
        """Energy outside [-K, K) discarded by the grid projection."""
        return 0.0


def pad_band(band: slice, rows: np.ndarray, span: slice) -> np.ndarray:
    """The fold rows of band placed among zero rows over span, which holds band."""
    if band == span:
        return rows
    out = np.zeros((span.stop - span.start, rows.shape[1]), dtype=complex)
    out[band.start - span.start:band.stop - span.start] = rows
    return out


def _ranges(first: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) for each j in first[i] .. stop[i] - 1, i ascending."""
    i = np.repeat(np.arange(first.size), span := stop - first)
    return i, np.arange(i.size) - np.repeat(np.cumsum(span) - span - first, span)


def _period_samples(a: np.ndarray, k_max: int) -> TimeSamples:
    n, half = a.size, a.size // 2  # a[r] = grid-projected f(r), N-periodic in r: a periodization's inverse DFT
    ks = np.arange(-half, half) if k_max >= half else np.arange(-k_max, k_max + 1)
    # the energy of the period's samples left out, a[k_max + 1 .. n - k_max - 1]: 0 for a full period
    tail = float(np.sum(np.abs(a[k_max + 1:n - k_max]) ** 2))
    return TimeSamples(ks, a[ks % n], k_max, tail_energy=tail)


def _grid_time_values(band: slice, rows: np.ndarray, grid: FrequencyGrid, xs: np.ndarray) -> np.ndarray:
    """Integrate the cell-constant model of the fold rows of band against exp(2i*pi*omega*x).

    Exact when ``rows`` are constant on grid cells (each node represents
    its half-open cell [omega_j, omega_j + 1/N)); refuses a non-finite node.
    At uniform points a chirp transform runs over the dense blocks of the band at
    x0 + h*j (a point's residual from it would take a second transform); every other
    nonzero node is its integer offset from the first, at x/N, in ``_phase_table``.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    shape, xs = xs.shape, xs.ravel()
    n, values = grid.resolution, rows.ravel()
    nz = np.flatnonzero(values != 0)  # node j of the grid is nz + band.start * n; NaN counts
    if not nz.size:
        return np.zeros(shape, dtype=complex)
    require_finite(values[nz])
    first, span = nz[0], nz[-1] + 1 - nz[0]
    # cell kernel: integral of exp(2i*pi*omega*x) over one cell [w, w + step) at the first
    # nonzero node w, step * sinc(step * x) * exp(2i*pi*(w + step/2)*x), the phase reduced
    # exactly; both routes sum only offsets (j - first) / N, and no exp(...) - 1 cancels at 0
    w = (first + band.start * n) / n - grid.half_bandwidth
    kern = grid.step * np.sinc(grid.step * xs) * _turns(_product_turns(w, xs) + grid.step / 2 * xs)

    spacing, rest, out = _uniform_spacing(xs), nz, np.zeros(xs.size, dtype=complex)
    if spacing is not None:
        # uniform x: blocks of _CZT_BLOCK nodes from the first that pass the route
        # rule are dense, chirp transformed from the first to the last dense node
        block = (nz - first) // _CZT_BLOCK
        work = np.minimum(_CZT_BLOCK, span - np.arange(0, span, _CZT_BLOCK)) + xs.size  # length + points
        dense = np.flatnonzero((np.bincount(block) * xs.size > _CHIRP_WORK_RATIO * work)[block])
        if dense.size:
            rest = np.delete(nz, np.s_[dense[0]:dense[-1] + 1])
            lo, hi = nz[dense[0]], nz[dense[-1]] + 1
            twist = np.outer(*_linear_turns((xs[0] / n,), -(-(hi - lo) // n), n)).ravel()[:hi - lo]
            out = _phase_czt(values[lo:hi] * twist, spacing / n, xs.size)
            if lo > first:  # the transform's offset from the first node, one exact phase
                out *= _turns(_product_turns((lo - first) / n, xs))
    if rest.size:  # every other node: its offset from the first, at x/N
        for points, sums, _ in _phase_table(rest - first, np.zeros(rest.size), xs / n, weights=values[rest]):
            out[points] += sums
    return (out * kern).reshape(shape)


class PiecewiseConstantSpectrum(Signal):
    """Spectrum = sum of constant complex values on disjoint [a, b) intervals.

    Held as one record per interval given, sorted: (m, lo, n, hi, value, a, b) for [m + lo, n + hi)
    given as [a, b), lo in [0, 1) and hi in (0, 1], so intervals far from the origin keep their
    exact (possibly sub-float) lengths; ``pieces`` cuts them at the integers on first read.
    Grid values are exact cell averages (node j carries the mean over [omega_j, omega_j +
    1/N)), which preserves every cell moment: structure finer than one cell keeps its
    integral instead of being point-sampled.
    """

    def __init__(self, intervals, integrable_spectrum: bool = True):
        records = []
        for a, b, v in intervals:
            a, b = float(a), float(b)
            if not (np.isfinite(a) and np.isfinite(b)):
                raise ValueError(f"interval [{a}, {b}) must have finite ends")
            m, n = int(np.floor(a)), int(np.floor(b))
            lo, hi = a - m, b - n  # exact, but for an a in (-1, 0), whose 1 + a may round up to 1
            if lo == 1.0:
                m, lo = m + 1, 0.0
            if hi == 0.0:  # an integer b: the top of the unit below it
                n, hi = n - 1, 1.0
            if (m, lo) >= (n, hi):
                raise ValueError(f"empty interval [{a}, {b})")
            records.append((m, lo, n, hi, complex(v), a, b))
        self._hold(records, integrable_spectrum)

    @classmethod
    def from_local_pieces(cls, pieces, integrable_spectrum: bool = True):
        """Construct from (shift, local_start, local_end, value) directly: one record each."""
        records = []
        for m, lo, hi, v in pieces:
            m, lo, hi = int(m), float(lo), float(hi)
            if not (0.0 <= lo < hi <= 1.0):
                raise ValueError(f"local piece [{lo}, {hi}) must sit inside [0, 1]")
            records.append((m, lo, m, hi, complex(v), m + lo, m + hi))
        (obj := cls.__new__(cls))._hold(records, integrable_spectrum)
        return obj

    def _hold(self, records, integrable_spectrum: bool) -> None:
        """Sort the records by start, refuse an overlap ((m, lo) < (n, hi) as tuples iff m + lo < n + hi)
        and set the reach: [m + lo, n + hi) lies in [-K, K) iff -m <= K and n + 1 <= K."""
        records = sorted(records, key=lambda r: r[:2])  # never by value: complex values do not compare
        for (_, _, n1, hi1, _, _, _), (m2, lo2, _, _, _, a2, _) in zip(records, records[1:]):  # sorted: local
            if (m2, lo2) < (n1, hi1):
                raise ValueError(f"intervals overlap near {a2}")
        self.records, self.integrable_spectrum = records, integrable_spectrum
        self._reach = max((max(n + 1, -m) for m, _, n, _, _, _, _ in records), default=1)

    @cached_property
    def pieces(self) -> list[tuple[int, float, float, complex]]:
        """(shift m, local start, local end, value) of each unit piece, cut on first read."""
        return [(k, lo if k == m else 0.0, hi if k == n else 1.0, v)
                for m, lo, n, hi, v, _, _ in self.records for k in range(m, n + 1)]

    @cached_property
    def _piece_arrays(self) -> tuple[np.ndarray, ...]:
        """(m, lo, hi, value) of the pieces, an array each."""
        return tuple(np.array([p[i] for p in self.pieces], dtype=t) for i, t in enumerate((int, float, float, complex)))

    @cached_property
    def exact_profile(self) -> "PeriodizedProfile":
        """Pieces at the folded breakpoints, on each of which the contributing (value,
        shift) pairs are constant; one for every grid, built on first read."""
        m, lo, hi, v = self._piece_arrays
        cut, shifts = _sorted_unique(np.concatenate([[0.0, 1.0], lo, hi])), _sorted_unique(m)
        piece, at = _ranges(*np.searchsorted(cut, [lo, hi]))  # pieces of one shift never overlap
        coeffs = np.zeros((shifts.size, cut.size - 1), dtype=complex)
        coeffs[np.searchsorted(shifts, m[piece]), at] = v[piece]
        return PeriodizedProfile(cut[:-1], cut[1:] - cut[:-1], shifts, coeffs, exact=True)

    @property
    def intervals(self) -> list[tuple[float, float, complex]]:
        """(a, b, value) of each record as given (a local piece's m + lo, m + hi: sub-float lengths collapse)."""
        return [(a, b, v) for _, _, _, _, v, a, b in self.records]

    def required_half_bandwidth(self) -> int | None:
        return pow2_at_least(self._reach)

    def _band(self, grid: FrequencyGrid) -> slice:  # the rows of the records' shifts, refused on a K too narrow
        if (need := self.required_half_bandwidth()) > (k := grid.half_bandwidth):
            raise BandwidthOverflowError(need, k)
        return slice(self.records[0][0] + k, self.records[-1][2] + k + 1) if self.records else slice(0, 0)

    def cells(self, grid: FrequencyGrid) -> tuple[slice, "PeriodizedProfile"]:
        """The cells, their sums read off ``exact_profile`` bit for bit as the band's column sums, the band built on
        first read: a cell inside a profile piece holds its values; a cut cell, per shift, its pieces' v * fraction
        in piece order, as ``band_values`` adds them (N = 1 reads the band: numpy sums one column pairwise).  The
        distinct columns stay on the cells, with each cell's (``columns``, ``at``)."""
        band, n = self._band(grid), grid.resolution  # the width first: a record too wide is never cut up
        if n == 1:
            return super().cells(grid)
        prof, (m, lo, hi, v) = self.exact_profile, self._piece_arrays
        u, cols, k = prof.starts * n, prof.starts.size, grid.half_bandwidth - band.start  # u: in cell units, exact
        cut = _sorted_unique(np.floor(u)[np.floor(u) != u])  # the cells a breakpoint cuts
        sums = np.zeros((band.stop - band.start, cols + max(cut.size, 1)), dtype=complex)  # two columns at least
        sums[prof.shifts + k, :cols] = prof.coeffs
        if cut.size:  # each piece's share of each cut cell it meets, from floor(s) to ceil(e) - 1
            p, j = _ranges(*np.searchsorted(cut, [np.floor(s := lo * n), np.ceil(e := hi * n)]))
            np.add.at(sums, (m[p] + k, cols + j), v[p] * (np.minimum(e[p], cut[j] + 1) - np.maximum(s[p], cut[j])))
        at = np.repeat(np.arange(cols), np.diff(np.append(np.ceil(u), n)).astype(int))  # each cell's piece,
        at[cut.astype(int)] = cols + np.arange(cut.size)  # or its own where a breakpoint cuts it
        out = PeriodizedProfile.cells(band, lambda: self.band_values(grid)[1], grid)
        out.columns, out.at = sums, at
        out._sums = tuple(a[at] for a in _column_sums(sums))
        return band, out

    def band_values(self, grid: FrequencyGrid) -> tuple[slice, np.ndarray]:
        band, n, k = self._band(grid), grid.resolution, grid.half_bandwidth
        out = np.zeros((band.stop - band.start) * n, dtype=complex)
        for m, lo, hi, v in self.pieces:
            base = (m + k - band.start) * n
            s, e = lo * n, hi * n  # piece ends in cell units, exact
            i0, i1 = int(np.floor(s)), int(np.floor(e))
            if i0 == i1:
                out[base + i0] += v * (e - s)
                continue
            out[base + i0] += v * (i0 + 1 - s)
            out[base + i0 + 1:base + i1] += v
            if i1 < n and e > i1:
                out[base + i1] += v * (e - i1)
        return band, out.reshape(-1, n)

    def time_values(self, xs) -> np.ndarray:
        # piece [m + lo, m + hi): v * width * sinc(width * x) * exp(2i*pi*centre*x),
        # the phases from _phase_table; no ramp exp(...) - 1 that cancels near x = 0
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        m, lo, hi, v = self._piece_arrays
        x, c, out = xs.ravel(), (lo + hi) / 2, np.zeros(xs.size, dtype=complex)
        w = v * (hi - lo) * np.stack([np.ones(m.size), m + c])  # and times f for the residuals
        for points, table, d in _phase_table(m, c, x):
            out[points] = _at_points(w @ (_sincs(hi - lo, x[points]) * table), d)
        return out.reshape(xs.shape)

    def scaled(self, factor: complex) -> "PiecewiseConstantSpectrum":
        (obj := PiecewiseConstantSpectrum.__new__(PiecewiseConstantSpectrum))._hold(
            [(*r[:4], complex(r[4] * factor), *r[5:]) for r in self.records], self.integrable_spectrum)
        return obj

    def shift_sum(self, coefficients: TimeSamples, xs: np.ndarray) -> np.ndarray:
        """sum_k c_k psi(x - k) for a base spectrum of pieces v * 1[e0, e1).

        psi(y) = sum over ends e of w_e exp(2i*pi*e*y) / (2i*pi*y), w_e = +v at
        e1 and -v at e0, so the sum is, over ends, exp(2i*pi*e*x) times
        (R @ (c w_e exp(-2i*pi*e*k))) / (2i*pi), R the real Cauchy matrix
        1/(x - k).  Near a pole the factored form cancels: entries with |x - k|
        < 1/2 are left out of R and summed directly as the pieces' sincs, their
        phase exp(2i*pi*centre*(x - k)) the x-side one times exp(-2i*pi*centre*k).  A
        piece whose sinc is 1 at every x - k is only that phase, summed over k once: its
        ends leave R.  The x-side phases are one ``_phase_table``, whose blocks bound R's
        rows, and whose residuals are applied after both contractions (``_at_points``)."""
        ks, cs = coefficients.ks, coefficients.values
        if not (ks.size and xs.size):
            return np.zeros(xs.size, dtype=complex)
        near = np.round(xs)
        y = xs - near  # R's entry at the nearest integer, exact (Sterbenz)
        idx = np.clip(np.searchsorted(ks, near), 0, ks.size - 1)
        at = np.flatnonzero((np.abs(y) < 0.5) & (ks[idx] == near))  # not NaN or inf
        idx = idx[at]
        m, lo, hi, v = self._piece_arrays
        reach = max(np.fmax.reduce(xs) - ks[0], ks[-1] - np.fmin.reduce(xs))  # largest |x - k|, NaN left out
        one = _unit_sinc((hi - lo) * reach)  # sinc 1 at every x - k: these pieces go last
        m, lo, hi, v = (np.concatenate([a[~one], a[one]]) for a in (m, lo, hi, v))
        ends = 2 * (cut := np.count_nonzero(~one))
        # ends m + hi, m + lo of the first cut pieces, then every centre; k-side factors drop m*k
        frac, mf = np.concatenate([hi[:cut], lo[:cut], (lo + hi) / 2]), np.concatenate([m[:cut], m[:cut], m])
        f = np.stack([np.ones(mf.size), mf + frac])  # and times f for the residuals
        k_turns = _turns(-_product_turns(frac, ks[:, None]))
        coef = (cs[:, None] * np.concatenate([v[:cut], -v[:cut]]) / (2j * np.pi) * k_turns[:, :ends]).view(float)
        pole = cs[:, None] * v * (hi - lo) * k_turns[:, ends:]
        direct = pole[:, cut:].sum(axis=0) * f[:, ends + cut:]  # the last pieces' sums over k
        out = np.empty(xs.size, dtype=complex)
        for points, table, d in _phase_table(mf, frac, xs, ks.size):
            r = xs[points, None] - ks
            block = slice(*np.searchsorted(at, [points.start, points.stop]))
            rows = at[block] - points.start
            r[rows, idx[block]] = np.inf  # left out: summed directly below
            np.reciprocal(r, out=r)
            s = f[:, :ends] @ (table[:ends] * (r @ coef).view(complex).T) + direct @ table[ends + cut:]
            out[points] = _at_points(s, d)
            s = _sincs(hi[:cut] - lo[:cut], y[at[block]]) * table[ends:ends + cut, rows] * pole[idx[block], :cut].T
            out[at[block]] += _at_points(f[:, ends:ends + cut] @ s, None if d is None else d[rows])
        return out


def twisted_sum(rows: np.ndarray, shifts: np.ndarray, x: float) -> np.ndarray:
    """sum over rows r of rows[r] exp(2i*pi*shifts[r]*x) per column, summed row by
    row like the periodization (x = 0 reproduces it exactly); x is first reduced,
    exactly, to [0, 1), so far offsets keep the phase accuracy of near ones."""
    phases = np.exp(2j * np.pi * ((x - np.floor(x)) * shifts))
    return (rows * phases[:, None]).sum(axis=0)


def _column_sums(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z, abs_sum, sq_sum) of rows: their column sums, of one modulus squared in place."""
    return rows.sum(axis=0), (modulus := np.abs(rows)).sum(axis=0), np.square(modulus, out=modulus).sum(axis=0)


def dual_energy(rows: np.ndarray, shifts: np.ndarray, xs: np.ndarray, weights) -> np.ndarray:
    """sum_c weights[c] |sum_r rows[r, c] exp(2i*pi*shifts[r]*x)|^2 at each x in
    xs, as the quadratic form e G e^H of the phases e_r in the Gram matrix G =
    rows W rows^H, W >= 0 (1/N; length / |Z|^2 or 0): H = S S^T for
    S = [Re; Im] rows sqrt(W), G = H11 + H22 + i(H21 - H12).  x is reduced as
    in ``twisted_sum``; a NaN node makes G, and every energy, NaN."""
    b, stacked = rows.shape[0], np.concatenate([rows.real, rows.imag])
    stacked *= np.sqrt(weights)
    h = stacked @ stacked.T  # numpy runs S S^T as one symmetric rank-k product
    gram = (h[:b, :b] + h[b:, b:]) + 1j * (h[b:, :b] - h[:b, b:])  # G[r, s] = sum_c rows[r, c] w_c conj(rows[s, c])
    e = np.exp(2j * np.pi * np.multiply.outer(xs - np.floor(xs), shifts))
    return np.sum((e @ gram) * np.conj(e), axis=1).real


class PeriodizedProfile:
    """Per-piece view of the periodized quantities of one signal over one
    period [0, 1): the spectrum on each piece in ``coeffs``, one row per shift in
    ``shifts`` (``twisted_sum`` of them: the twisted fiber), whose periodization
    ``z``, absolute periodization ``abs_sum`` and Grammian ``sq_sum`` the profile
    sums on first read.

    ``of`` reads a signal's ``exact_profile`` (an interval spectrum's: every quantity in
    closed form, sub-grid detail kept); every other signal has one piece per unit-grid
    cell of its band rows (``coeffs`` may be given as a callable that builds them on first read).
    """

    def __init__(self, starts, lengths, shifts, coeffs, exact: bool):
        self.starts, self.lengths = np.asarray(starts, dtype=float), np.asarray(lengths, dtype=float)
        self.shifts, self._coeffs, self.exact = np.asarray(shifts), coeffs, exact

    @classmethod
    def of(cls, f: Signal, grid: FrequencyGrid) -> "PeriodizedProfile":
        """The profile of f: its ``exact_profile`` where it has one, else its cells."""
        return f.exact_profile or cls.cells(*f.band_values(grid), grid)

    @classmethod
    def cells(cls, band: slice, rows: np.ndarray, grid: FrequencyGrid) -> "PeriodizedProfile":
        """One piece per unit-grid cell of the fold rows of band."""
        return cls(grid.unit_omegas, np.full(grid.resolution, grid.step), grid.shifts(band), rows, exact=False)

    coeffs = cached_property(lambda self: self._coeffs() if callable(self._coeffs) else self._coeffs)
    # the distinct columns of coeffs and each piece's among them (an interval spectrum's cells'); else coeffs and None
    columns, at = cached_property(lambda self: self.coeffs), None
    _sums = cached_property(lambda self: _column_sums(self.coeffs))
    z = property(lambda self: self._sums[0])
    abs_sum = property(lambda self: self._sums[1])
    sq_sum = property(lambda self: self._sums[2])


class GridSpectrum(Signal):
    """Spectrum known at the nodes of one N, held as its occupied fold rows: placed by their
    shifts on any grid of that N whose K holds them; ``values`` pads them onto its own grid."""

    grid_model = True

    def __init__(self, values: np.ndarray, grid: FrequencyGrid, integrable_spectrum: bool = True):
        values = np.asarray(values, dtype=complex)
        if values.shape != (grid.size,):
            raise ValueError(f"expected {grid.size} spectrum values, got {values.shape}")
        self._hold(slice(0, 2 * grid.half_bandwidth), grid.fold(values), grid, integrable_spectrum)

    @classmethod
    def from_band(cls, band: slice, rows: np.ndarray, grid: FrequencyGrid,
                  integrable_spectrum: bool = True) -> "GridSpectrum":
        """Construct from the fold rows of band, (rows, N); every other row is zero."""
        (obj := cls.__new__(cls))._hold(band, rows, grid, integrable_spectrum)
        return obj

    def _hold(self, band: slice, rows: np.ndarray, grid: FrequencyGrid, integrable_spectrum: bool) -> None:
        """The one trim: band's rows from the first to the last occupied (a NaN or inf node is), else slice(0, 0);
        scanned from each edge, where a band is mostly occupied: 61 x 4,096 rows take 7.9 us, 236 us scanned
        whole (2-vCPU Xeon, numpy 2.4.6)."""
        lo, hi = 0, len(rows)
        while lo < hi and not rows[lo].any():
            lo += 1
        while hi > lo and not rows[hi - 1].any():
            hi -= 1
        self.band = slice(band.start + lo, band.start + hi) if hi > lo else slice(0, 0)
        self.rows, self.grid, self.integrable_spectrum = rows[lo:hi], grid, integrable_spectrum

    values = cached_property(lambda self: self.grid_values(self.grid))

    def required_half_bandwidth(self) -> int:
        """The smallest K whose shifts -K .. K - 1 hold the occupied rows' (1 for none)."""
        k = self.grid.half_bandwidth
        return pow2_at_least(max(k - self.band.start, self.band.stop - k)) if self.rows.size else 1

    def band_values(self, grid: FrequencyGrid) -> tuple[slice, np.ndarray]:
        """The rows placed by their shifts on grid: refused for another N, or a K too narrow for them."""
        if grid.resolution != self.grid.resolution:
            raise GridMismatchError(f"grid spectrum has N = {self.grid.resolution}, requested N = {grid.resolution}")
        if (need := self.required_half_bandwidth()) > grid.half_bandwidth:
            raise BandwidthOverflowError(need, grid.half_bandwidth)
        d = grid.half_bandwidth - self.grid.half_bandwidth if self.rows.size else 0  # no rows: slice(0, 0)
        return slice(self.band.start + d, self.band.stop + d), self.rows

    def time_values(self, xs) -> np.ndarray:
        return _grid_time_values(self.band, self.rows, self.grid, np.asarray(xs, dtype=float))

    def shift_sum(self, coefficients: TimeSamples, xs: np.ndarray) -> np.ndarray:
        """At uniform points one ``time_values`` call per shift, its x - k uniform: the chirp route."""
        if _uniform_spacing(xs) is None:
            return super().shift_sum(coefficients, xs)
        return sum((c * self.time_values(xs - k) for k, c in zip(coefficients.ks, coefficients.values)),
                   np.zeros(xs.size, dtype=complex))


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

    def band_values(self, grid: FrequencyGrid) -> tuple[slice, np.ndarray]:
        return slice(0, 2 * grid.half_bandwidth), grid.fold(self.grid_values(grid))

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
        # spectrum at omega_j = -K + j/N is sum_m w_m s(x_m) exp(-2i*pi*x_m*omega_j) with x_m = a + m*delta:
        # K*x_m is exact (K is a power of two), the sum over m*j one chirp transform, and exp(-2i*pi*a*j/N) a row
        # times a column phase; a real kernel's is Hermitian: [-K, 0) transformed, 0 summed, (0, K) mirrored
        k, n = grid.half_bandwidth, grid.resolution
        delta = (b - a) / QUADRATURE_ORDER
        rows, out = 2 * k if np.any(s.imag) else k, np.empty(grid.size, dtype=complex)
        spectrum, (row, col) = out[:rows * n].reshape(rows, n), _linear_turns((-a / n,), rows, n)
        _phase_czt(w * s * _turns(k * xs), -delta / n, rows * n, spectrum.ravel())
        spectrum *= row  # in place: the row phases, then the column phases
        spectrum *= col.T
        if rows == k:
            out[k * n] = np.sum(w * s)
            np.conj(out[k * n - 1:0:-1], out=out[k * n + 1:])
        return out

    def spectral_tail_energy(self, grid: FrequencyGrid) -> float:
        xs, w = self._trapezoid()
        time_energy = float(np.sum(w * np.abs(np.asarray(self.evaluator(xs))) ** 2))
        band_energy = float(np.vdot(v := self.grid_values(grid), v).real) / grid.resolution
        return max(time_energy - band_energy, 0.0)

    def scaled(self, factor: complex) -> "TimeKernel":
        ev = self.evaluator
        return TimeKernel(self.support, lambda x: factor * np.asarray(ev(x)),
                          integrable_spectrum=self.integrable_spectrum)


class ShiftCombination(Signal):
    """f = sum_k c_k * base(. - k) for finitely many coefficients c_k.

    Time values are the finite sum, by the base's ``shift_sum``: in factored form over an
    interval spectrum, otherwise through the base's time values at blocks of (point,
    shift) differences; the grid spectrum is the exact product C(omega) * base_hat(omega)
    with C the coefficient fiber.  Over a spectral base it samples from its coefficients.
    """

    def __init__(self, base: Signal, coefficients: TimeSamples):
        self.base = base
        self.coefficients = coefficients
        self.integrable_spectrum = base.integrable_spectrum
        ks = coefficients.ks
        if base.support is not None and ks.size:
            self.support = (base.support[0] + float(ks.min()), base.support[1] + float(ks.max()))

    def band_values(self, grid: FrequencyGrid) -> tuple[slice, np.ndarray]:
        band, rows = self.base.band_values(grid)
        return band, self.coefficients.fiber(grid.resolution) * rows

    def integer_samples(self, grid: FrequencyGrid, k_max: int, z: np.ndarray | None = None) -> TimeSamples:
        """Over a base with no support, from the coefficients (``z`` unread): f(k) = sum_j c_j b[(k - j) mod N],
        b the base's period samples: one term per pair of nonzero c_j and b_i while they are at most N pairs (a
        sparse base: no rounding noise), else by FFT.  Only nonzero samples are kept."""
        if self.base.support is not None:
            return super().integer_samples(grid, k_max)
        n, base = grid.resolution, self.base.integer_samples(grid, grid.resolution // 2)
        (kc, c), (kb, b) = ((t.ks[t.values != 0], t.values[t.values != 0]) for t in (self.coefficients, base))
        if c.size * b.size <= n:
            a = np.zeros(n, dtype=complex)
            np.add.at(a, np.add.outer(kc, kb) % n, np.multiply.outer(c, b))
        else:
            a = np.fft.ifft(self.coefficients.fiber(n) * base.fiber(n))
        s = _period_samples(a, k_max)
        return TimeSamples(s.ks[s.values != 0], s.values[s.values != 0], k_max, s.tail_energy)

    def time_values(self, xs) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        return self.base.shift_sum(self.coefficients, xs.ravel()).reshape(xs.shape)

    def support_shifts(self) -> np.ndarray:
        """The base's window of shifts moved to each coefficient."""
        return _sorted_unique(np.add.outer(self.coefficients.ks, self.base.support_shifts()))

    def scaled(self, factor: complex) -> "ShiftCombination":
        return ShiftCombination(self.base, self.coefficients.scaled(factor))

    def spectral_tail_energy(self, grid: FrequencyGrid) -> float:
        # a bound: outside [-K, K) the spectrum is C * base_hat, |C| <= sum_k |c_k|
        return float(np.sum(np.abs(self.coefficients.values))) ** 2 * self.base.spectral_tail_energy(grid)
