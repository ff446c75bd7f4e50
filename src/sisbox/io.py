"""File formats: interval spectra (JSON), grid spectra and samples (CSV),
partitions (JSON).  Every writer's output re-parses under the matching
reader."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import FileFormatError
from .grid import FrequencyGrid, SupportMask, TimeSamples
from .signals import GridSpectrum, PiecewiseConstantSpectrum


def _number(field, line: int) -> float:
    """One finite number read from a file; nan and inf are refused."""
    try:
        value = float(field)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"non-numeric field: {exc}", line=line) from exc
    if not math.isfinite(value):
        raise FileFormatError(f"non-finite number {field!r}", line=line)
    return value


def _write_table(path, header: str, *columns) -> None:
    """The header line, then one line per row: the repr of each column's number.
    Rows go out 4,096 at a time: all 65,536 rows of a grid spectrum at
    (32, 1024) held as text set the peak memory of ``decompose``."""
    with open(path, "w") as out:
        out.write(header + "\n")
        for start in range(0, len(columns[0]), 4096):
            rows = zip(*(np.asarray(c)[start:start + 4096].tolist() for c in columns))
            out.writelines(",".join(map(repr, row)) + "\n" for row in rows)


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
    records = [{"a": a, "b": b, "re": v.real, "im": v.imag} for a, b, v in sig.intervals]
    Path(path).write_text(json.dumps(records, indent=2) + "\n")


def read_piecewise_spectrum(path) -> PiecewiseConstantSpectrum:
    records = _read_json(path)
    if not isinstance(records, list):
        raise FileFormatError("expected a JSON list of {a, b, re, im} records", line=1)
    intervals = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or not {"a", "b"} <= set(rec):
            raise FileFormatError(f"record {i} must carry keys a, b, re, im", line=i + 1)
        a, b, re, im = (_number(rec.get(key, 0.0), i + 1) for key in ("a", "b", "re", "im"))
        intervals.append((a, b, complex(re, im)))
    try:
        return PiecewiseConstantSpectrum(intervals)
    except ValueError as exc:
        raise FileFormatError(str(exc), line=1) from exc


def write_grid_spectrum(sig: GridSpectrum, path) -> None:
    _write_table(path, "omega,re,im", sig.grid.omegas, sig.values.real, sig.values.imag)


def read_grid_spectrum(path) -> GridSpectrum:
    _, table, lines = _parse_csv_rows(path, "omega,re,im")
    if len(table) < 4:
        raise FileFormatError("grid spectrum needs at least 4 rows", line=1)
    oms, vals = table[:, 0], _complex_column(table)
    step = oms[1] - oms[0]
    if step <= 0 or np.max(np.abs(np.diff(oms) - step)) > 1e-9:
        raise FileFormatError("omega column must be uniformly increasing", line=lines[1])
    try:  # a step below 1/2^1024 makes N infinite
        k, n = int(round(-oms[0])), int(round(1.0 / float(step)))  # inf, not a numpy warning
        grid = FrequencyGrid(k, n)
    except (ValueError, OverflowError) as exc:
        raise FileFormatError(f"omegas do not form a power-of-two grid: {exc}", line=1) from exc
    if len(vals) != grid.size or abs(oms[0] + k) > 1e-9:
        raise FileFormatError(f"expected {grid.size} rows covering [-{k}, {k}), "
                              f"got {len(vals)}", line=1)
    return GridSpectrum(vals, grid)


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
    if len(np.unique(ks)) != len(ks):
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
            raise FileFormatError(f"mask {i} must be a list of [start, end) pairs", line=1)
        intervals = []
        for pair in group:
            if not isinstance(pair, list) or len(pair) != 2:
                raise FileFormatError(f"mask {i} holds a malformed pair {pair!r}", line=1)
            lo, hi = _number(pair[0], 1), _number(pair[1], 1)
            if not (0.0 <= lo < hi <= 1.0):
                raise FileFormatError(f"mask {i} pair [{lo}, {hi}) must sit inside [0, 1]",
                                      line=1)
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
