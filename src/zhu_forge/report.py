"""Machine-readable results: check records, dimension tables, golden files.

Reports serialize to canonical JSON: keys sorted, compact separators and
rationals rendered as ``p/q`` strings. Records hold no volatile fields, so
the same run gives the same bytes; golden comparison and the determinism
checks operate on them. Every suite over a presentation starts its report
with :meth:`ReportDocument.for_suite`, the one place its header is built,
and records each check's verdict with :meth:`ReportDocument.record`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

SCHEMA_VERSION = "1"
TOOL_NAME = "zhu-forge"
TOOL_VERSION = "0.1.0"


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def canonical_json_bytes(obj: Any) -> bytes:
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":")).encode() + b"\n"


@dataclass
class CheckRecord:
    """Outcome of one verification check."""

    name: str
    params: dict[str, Any] = field(default_factory=dict)
    status: str = "pass"  # pass | fail | skipped
    witness: Any = None

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "params": _jsonable(self.params),
            "status": self.status,
            "witness": _jsonable(self.witness),
        }


@dataclass
class ReportDocument:
    """A suite run: configuration echo plus one record per check."""

    config: dict[str, Any] = field(default_factory=dict)
    checks: list[CheckRecord] = field(default_factory=list)

    @classmethod
    def for_suite(cls, suite: str, presentation, **params: Any) -> "ReportDocument":
        """An empty report whose config echoes the suite name, the
        presentation's name and central charge, and the run's parameters."""
        return cls(
            config={
                "suite": suite,
                "voa": presentation.name,
                "central_charge": presentation.central_charge,
                **params,
            }
        )

    def add(self, record: CheckRecord) -> None:
        self.checks.append(record)

    def record(self, name: str, params: dict[str, Any], failures: list) -> None:
        """Append a passing record, or a failing one witnessed by its first failure."""
        status, witness = ("fail", failures[0]) if failures else ("pass", None)
        self.add(CheckRecord(name, params, status, witness))

    @property
    def passed(self) -> bool:
        return all(rec.status != "fail" for rec in self.checks)

    def summary(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for rec in self.checks:
            out[rec.status] = out.get(rec.status, 0) + 1
        return out

    def sorted_checks(self) -> list[CheckRecord]:
        return sorted(
            self.checks,
            key=lambda rec: (rec.name, json.dumps(_jsonable(rec.params), sort_keys=True)),
        )

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool": TOOL_NAME,
            "tool_version": TOOL_VERSION,
            "config": _jsonable(self.config),
            "checks": [rec.to_jsonable() for rec in self.sorted_checks()],
            "summary": self.summary(),
        }

    def canonical_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_jsonable())


@dataclass
class DimensionTable:
    """Rows of (index, dimension), written as an ``index,dim`` CSV."""

    rows: list[tuple[int, int]] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["index,dim"]
        lines.extend(f"{idx},{dim}" for idx, dim in self.rows)
        return "\n".join(lines) + "\n"


def golden_compare(actual: bytes | str, golden_path: str | Path) -> tuple[bool, str]:
    """Byte-compare canonical output against a committed golden file.

    Returns (matches, human diff). A missing golden file raises with the
    command that regenerates it.
    """
    golden_path = Path(golden_path)
    if isinstance(actual, str):
        actual = actual.encode()
    if not golden_path.exists():
        raise FileNotFoundError(
            f"golden file {golden_path} is missing; regenerate it by writing the "
            f"current output there (e.g. rerun with --out {golden_path}) and review the diff"
        )
    expected = golden_path.read_bytes()
    if expected == actual:
        return True, ""
    a_lines = expected.decode(errors="replace").splitlines()
    b_lines = actual.decode(errors="replace").splitlines()
    diff: list[str] = []
    for i in range(max(len(a_lines), len(b_lines))):
        left = a_lines[i] if i < len(a_lines) else "<missing>"
        right = b_lines[i] if i < len(b_lines) else "<missing>"
        if left != right:
            diff.append(f"line {i + 1}: golden {left!r} != actual {right!r}")
        if len(diff) >= 5:
            break
    return False, "\n".join(diff)
