"""File formats: interval spectra (JSON), grid spectra and samples (CSV), partitions (JSON).  Every
writer's output re-parses under the matching reader, or the writer refuses it.  An interval file holds
one record per interval; a grid spectrum's, its occupied fold rows.  A fault names its line or record."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import BandwidthOverflowError, FileFormatError, PreconditionError
from .grid import FrequencyGrid, SupportMask, TimeSamples, _sorted_unique, pow2_at_least
from .signals import GridSpectrum, PiecewiseConstantSpectrum


def _number(field, line: int | None = None, where: str = "") -> float:
    """One finite number read from a file, at ``line`` of a table or ``where`` in a JSON
    value (json gives no position for values); nan and inf are refused."""
    try:
        value = float(field)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{where}non-numeric field: {exc}", line=line) from exc
    if not math.isfinite(value):
        raise FileFormatError(f"{where}non-finite number {field!r}", line=line)
    return value


def _write_table(path, header: str, *columns) -> None:
    """The header line, then one line per row: the repr of each column's number,
    formatted a column and 4,096 rows at a time: a time kernel's band is all 2K rows,
    65,536 at (32, 1024), and held as text at once they set a command's peak memory."""
    with open(path, "w") as out:
        out.write(header + "\n")
        for start in range(0, len(columns[0]), 4096):
            text = (map(repr, np.asarray(c)[start:start + 4096].tolist()) for c in columns)
            out.write("\n".join(map(",".join, zip(*text))) + "\n")


def _read_text(path) -> str:
    """The text of an input file; one that cannot be read is a format error."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise FileFormatError(f"cannot read {str(path)!r}: {reason}") from exc


def _read_json(path):
    """The JSON value of an input file."""
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc


def _parse_csv_rows(path, header: str | None) -> tuple[list[str], np.ndarray, list[int]]:
    """(column names, float table, line number of each row).  A first line
    equal to ``header`` (case and spaces aside; None: any) names the columns;
    blank and # lines are skipped, the others hold one number per column."""
    lines = _read_text(path).splitlines()
    if header is None:
        header = lines[0].strip() if lines else ""
    names, rows, numbers = header.split(","), [], []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if lineno == 1 and line.lower().replace(" ", "") == header.lower().replace(" ", ""):
            continue
        parts = line.split(",")
        if len(parts) != len(names):
            raise FileFormatError(f"expected {len(names)} comma-separated fields, "
                                  f"got {len(parts)}", line=lineno)
        rows.append([_number(p, lineno) for p in parts])
        numbers.append(lineno)
    return names, np.array(rows, dtype=float).reshape(-1, len(names)), numbers


def _complex_column(table: np.ndarray) -> np.ndarray:
    """Columns 1 and 2 of a table as the real and imaginary parts of one array."""
    return np.ascontiguousarray(table[:, 1:3]).view(complex).ravel()


def write_piecewise_spectrum(sig: PiecewiseConstantSpectrum, path) -> None:
    """One {a, b, re, im} record per interval held.  An interval whose ends, as doubles, read back as
    another (an end finer than a double at its offset, as in ex2's blocks from n = 48) is refused."""
    for (a, b, v), (m, lo, n, hi, _) in zip(sig.intervals, sig.records):
        try:
            back = PiecewiseConstantSpectrum([(a, b, v)]).records[0][:4]
        except ValueError:  # its ends collapse into one double
            back = None
        if back != (m, lo, n, hi):
            raise PreconditionError(f"interval [{m} + {lo!r}, {n} + {hi!r}) is written [{a!r}, {b!r}), "
                                    "which reads back as another: an end is finer than a double at its offset")
    records = [{"a": a, "b": b, "re": v.real, "im": v.imag} for a, b, v in sig.intervals]
    Path(path).write_text(json.dumps(records, indent=2) + "\n")


def read_piecewise_spectrum(path) -> PiecewiseConstantSpectrum:
    records = _read_json(path)
    if not isinstance(records, list):
        raise FileFormatError("expected a JSON list of {a, b, re, im} records", line=1)
    intervals = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or not {"a", "b"} <= set(rec):
            raise FileFormatError(f"record {i} must carry keys a, b, re, im")
        a, b, re, im = (_number(rec.get(key, 0.0), where=f"record {i} {key}: ") for key in ("a", "b", "re", "im"))
        intervals.append((a, b, complex(re, im)))
    try:
        return PiecewiseConstantSpectrum(intervals)
    except ValueError as exc:  # names its interval's ends
        raise FileFormatError(str(exc)) from exc


def write_grid_spectrum(sig: GridSpectrum, path) -> None:
    (band, rows), k, n = sig.band_values(sig.grid), sig.grid.half_bandwidth, sig.grid.resolution
    oms = -k + np.arange(band.start * n, band.stop * n) / n  # grid.omegas' own formula, on the band alone
    _write_table(path, "omega,re,im", oms, rows.real.ravel(), rows.imag.ravel())


def read_grid_spectrum(path, grid: FrequencyGrid) -> GridSpectrum:
    """A file's whole fold rows, held on grid where its K holds their shifts, else on the narrowest wider
    K of the same N; ``band_values`` places them on any grid and refuses a K too narrow, as for every spectrum."""
    (_, table, lines), n = _parse_csv_rows(path, "omega,re,im"), grid.resolution
    if len(table) % n:
        raise FileFormatError(f"a fold row has N = {n} nodes, the last {len(table) % n}", line=lines[-(len(table) % n)])
    first = round(float(table[0, 0])) if len(table) else 0  # the shift m of the first row
    with np.errstate(over="ignore"):  # omegas of opposite signs near 1e308 differ by inf
        off = np.flatnonzero(~(np.abs(table[:, 0] - (first + np.arange(len(table)) / n)) <= 1e-9))
    if off.size:
        raise FileFormatError(f"expected omega {first + int(off[0]) / n!r} (N = {n})", line=lines[off[0]])
    rows = _complex_column(table).reshape(-1, n)
    k = max(grid.half_bandwidth, pow2_at_least(max(-first, first + len(rows))))  # holds the rows' shifts
    try:
        grid = grid if k == grid.half_bandwidth else FrequencyGrid(k, n)
    except ValueError as exc:  # no grid of N holds them
        raise BandwidthOverflowError(k, grid.half_bandwidth) from exc
    return GridSpectrum.from_band(slice(k + first, k + first + len(rows)), rows, grid)


def write_samples(samples: TimeSamples, path) -> None:
    _write_table(path, "k,re,im", samples.ks, samples.values.real, samples.values.imag)


def read_samples(path, k_max: int | None = None) -> TimeSamples:
    _, table, lines = _parse_csv_rows(path, "k,re,im")
    if not len(table):
        raise FileFormatError("samples file is empty", line=1)
    ks = np.round(table[:, 0])  # whole floats: TimeSamples casts them once they fit int64
    if (off := np.flatnonzero((np.abs(table[:, 0] - ks) > 1e-9) | ~(np.abs(ks) < 2.0 ** 63))).size:
        raise FileFormatError(f"sample index {table[off[0], 0]} is not a machine integer",
                              line=lines[off[0]])
    if _sorted_unique(ks).size != ks.size:
        raise FileFormatError("duplicate sample indices", line=1)
    if k_max is None:
        k_max = int(np.max(np.abs(ks)))
    return TimeSamples(ks, _complex_column(table), k_max)


def write_partition(groups, path) -> None:
    Path(path).write_text(json.dumps(groups, indent=2) + "\n")


def read_partition(path) -> list[list[tuple[float, float]]]:
    groups = _read_json(path)
    if not isinstance(groups, list) or not groups:
        raise FileFormatError("expected a nonempty JSON list of mask definitions", line=1)
    out = []
    for i, group in enumerate(groups):
        if not isinstance(group, list):
            raise FileFormatError(f"mask {i} must be a list of [start, end) pairs")
        intervals = []
        for j, pair in enumerate(group):
            if not isinstance(pair, list) or len(pair) != 2:
                raise FileFormatError(f"mask {i} pair {j} is malformed: {pair!r}")
            lo, hi = (_number(end, where=f"mask {i} pair {j}: ") for end in pair)
            if not (0.0 <= lo < hi <= 1.0):
                raise FileFormatError(f"mask {i} pair {j} [{lo}, {hi}) must sit inside [0, 1]")
            intervals.append((lo, hi))
        out.append(intervals)
    return out


def write_mask_intervals(mask: SupportMask, path) -> None:
    """One mask as a single-group partition file (re-parses under
    read_partition and can be fed back as a partition)."""
    write_partition([[[lo, hi] for lo, hi in mask.intervals()]], path)


def write_periodic_csv(grid: FrequencyGrid, columns: dict[str, np.ndarray], path) -> None:
    """Unit-grid CSV with an omega column plus named value columns."""
    _write_table(path, ",".join(["omega", *columns]), grid.unit_omegas,
                 *(np.real(c).astype(float) for c in columns.values()))


def read_periodic_csv(path) -> dict[str, np.ndarray]:
    """Columns of a unit-grid CSV keyed by header name (omega included)."""
    names, table, _ = _parse_csv_rows(path, None)
    if not names[0].startswith("omega"):
        raise FileFormatError("expected an omega,... header", line=1)
    return {name: table[:, i] for i, name in enumerate(names)}


def write_reconstruction_csv(xs, values, path) -> None:
    values = np.asarray(values, dtype=complex)
    _write_table(path, "x,re,im", np.asarray(xs, dtype=float), values.real, values.imag)


def read_reconstruction_csv(path) -> tuple[np.ndarray, np.ndarray]:
    _, table, _ = _parse_csv_rows(path, "x,re,im")
    return table[:, 0], _complex_column(table)
