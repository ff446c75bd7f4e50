"""Versioned report documents emitted by the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    value: float | None = None
    tolerance: float | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "value": self.value,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }


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

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "command": self.command,
            "grid": self.grid,
            "params": self.params,
            "results": self.results,
            "tails": self.tails,
            "timing_s": self.timing_s,
            "seed": self.seed,
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ReportDocument":
        return cls(
            command=data["command"],
            grid=data["grid"],
            params=data.get("params", {}),
            results=data.get("results", {}),
            tails=data.get("tails", {}),
            timing_s=data.get("timing_s", 0.0),
            seed=data.get("seed", 0),
            verdict=data.get("verdict", "pass"),
            schema=data.get("schema", SCHEMA_VERSION),
        )

    @classmethod
    def from_json(cls, text: str) -> "ReportDocument":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "ReportDocument":
        return cls.from_json(Path(path).read_text())
