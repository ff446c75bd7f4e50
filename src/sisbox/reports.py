"""Versioned report documents emitted by the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    value: float | None = None
    tolerance: float | None = None
    detail: str = ""


def _encode(obj):
    """The one JSON rule for what a report holds beyond plain JSON: a
    record's own ``to_dict`` where it keeps one, the shown (``repr``) fields of any other
    dataclass, numpy values as Python ones."""
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in fields(obj) if f.repr}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


@dataclass
class ReportDocument:
    command: str
    grid: dict
    params: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    tails: dict = field(default_factory=dict)
    timing_s: float = 0.0
    seed: int = 0
    verdict: str = "pass"
    schema: int = SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(vars(self), indent=2, sort_keys=True, default=_encode)

    @classmethod
    def from_json(cls, text: str) -> "ReportDocument":
        """The document of the fields the text holds; unknown keys are ignored."""
        data = json.loads(text)
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")
