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


def write_piecewise_spectrum(sig: PiecewiseConstantSpectrum, path) -> None:
    records = [{"a": a, "b": b, "re": v.real, "im": v.imag} for a, b, v in sig.intervals]
    Path(path).write_text(json.dumps(records, indent=2) + "\n")


def read_piecewise_spectrum(path) -> PiecewiseConstantSpectrum:
    text = Path(path).read_text()
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
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
    lines = ["omega,re,im"]
    for om, v in zip(sig.grid.omegas, sig.values):
        lines.append(f"{float(om)!r},{float(v.real)!r},{float(v.imag)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_csv_rows(path, expected_fields: int, header: str):
    rows = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if lineno == 1 and line.lower().replace(" ", "") == header:
            continue
        parts = line.split(",")
        if len(parts) != expected_fields:
            raise FileFormatError(
                f"expected {expected_fields} comma-separated fields, got {len(parts)}",
                line=lineno,
            )
        rows.append(([_number(p, lineno) for p in parts], lineno))
    return rows


def read_grid_spectrum(path) -> GridSpectrum:
    rows = _parse_csv_rows(path, 3, "omega,re,im")
    if len(rows) < 4:
        raise FileFormatError("grid spectrum needs at least 4 rows", line=1)
    oms = np.array([r[0][0] for r in rows])
    vals = np.array([complex(r[0][1], r[0][2]) for r in rows])
    step = oms[1] - oms[0]
    if step <= 0 or np.max(np.abs(np.diff(oms) - step)) > 1e-9:
        raise FileFormatError("omega column must be uniformly increasing", line=rows[1][1])
    n = int(round(1.0 / step))
    k = int(round(-oms[0]))
    try:
        grid = FrequencyGrid(k, n)
    except ValueError as exc:
        raise FileFormatError(f"omegas do not form a power-of-two grid: {exc}", line=1) from exc
    if len(vals) != grid.size or abs(oms[0] + k) > 1e-9:
        raise FileFormatError(
            f"expected {grid.size} rows covering [-{k}, {k}), got {len(vals)}", line=1
        )
    return GridSpectrum(vals, grid)


def write_samples(samples: TimeSamples, path) -> None:
    lines = ["k,re,im"]
    for k, v in zip(samples.ks, samples.values):
        lines.append(f"{int(k)},{float(v.real)!r},{float(v.imag)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_samples(path, k_max: int | None = None) -> TimeSamples:
    rows = _parse_csv_rows(path, 3, "k,re,im")
    if not rows:
        raise FileFormatError("samples file is empty", line=1)
    ks = []
    vals = []
    for (fields, lineno) in rows:
        k = fields[0]
        if abs(k - round(k)) > 1e-9:
            raise FileFormatError(f"sample index {k} is not an integer", line=lineno)
        ks.append(int(round(k)))
        vals.append(complex(fields[1], fields[2]))
    ks = np.array(ks, dtype=int)
    vals = np.array(vals, dtype=complex)
    if len(np.unique(ks)) != len(ks):
        raise FileFormatError("duplicate sample indices", line=1)
    if k_max is None:
        k_max = int(np.max(np.abs(ks))) if ks.size else 0
    return TimeSamples(ks, vals, k_max)


def write_partition(groups, path) -> None:
    Path(path).write_text(json.dumps(groups, indent=2) + "\n")


def read_partition(path) -> list[list[tuple[float, float]]]:
    text = Path(path).read_text()
    try:
        groups = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
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
                raise FileFormatError(
                    f"mask {i} pair [{lo}, {hi}) must sit inside [0, 1]", line=1
                )
            intervals.append((lo, hi))
        out.append(intervals)
    return out


def write_mask_intervals(mask: SupportMask, path) -> None:
    """One mask as a single-group partition file (re-parses under
    read_partition and can be fed back as a partition)."""
    write_partition([[[lo, hi] for lo, hi in mask.intervals()]], path)


def write_periodic_csv(grid: FrequencyGrid, columns: dict[str, np.ndarray], path) -> None:
    """Unit-grid CSV with an omega column plus named value columns."""
    names = list(columns)
    lines = ["omega," + ",".join(names)]
    for i, om in enumerate(grid.unit_omegas):
        vals = ",".join(repr(float(np.real(columns[c][i]))) for c in names)
        lines.append(f"{float(om)!r},{vals}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_periodic_csv(path) -> dict[str, np.ndarray]:
    """Columns of a unit-grid CSV keyed by header name (omega included)."""
    text = Path(path).read_text().splitlines()
    if not text or not text[0].startswith("omega"):
        raise FileFormatError("expected an omega,... header", line=1)
    names = text[0].split(",")
    rows = []
    for lineno, raw in enumerate(text[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(names):
            raise FileFormatError(
                f"expected {len(names)} fields, got {len(parts)}", line=lineno)
        rows.append([_number(p, lineno) for p in parts])
    data = np.array(rows)
    return {name: data[:, i] for i, name in enumerate(names)}


def write_reconstruction_csv(xs, values, path) -> None:
    lines = ["x,re,im"]
    for x, v in zip(xs, values):
        lines.append(f"{float(x)!r},{float(complex(v).real)!r},{float(complex(v).imag)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_reconstruction_csv(path) -> tuple[np.ndarray, np.ndarray]:
    rows = _parse_csv_rows(path, 3, "x,re,im")
    xs = np.array([r[0][0] for r in rows])
    vals = np.array([complex(r[0][1], r[0][2]) for r in rows])
    return xs, vals
