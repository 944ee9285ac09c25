"""Tabular pass/fail results for the bulk verification routines."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Report:
    """Outcome of one named check over many instances, one row each."""

    check: str
    rows: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(row.get("ok", False) for row in self.rows)

    def failures(self) -> tuple:
        return tuple(row for row in self.rows if not row.get("ok", False))
