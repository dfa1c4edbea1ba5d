"""Shared bound-row record used by all verification routines."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class BoundRow:
    """One verified inequality: lhs_bits <= rhs_bits + slack_used."""

    name: str
    lhs_bits: float
    rhs_bits: float
    passed: bool
    slack_used: float = 0.0
    detail: str = ""

    @classmethod
    def check(cls, name, lhs, rhs, slack=0.0, detail="") -> "BoundRow":
        return cls(name, float(lhs), float(rhs), float(lhs) <= float(rhs) + slack,
                   float(slack), detail)

    @classmethod
    def flag(cls, name, ok, detail="") -> "BoundRow":
        """A yes/no check: lhs, rhs and slack are 0, and it passes iff ok."""
        return cls(name, 0.0, 0.0, ok, 0.0, detail)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs_bits": self.lhs_bits,
            "rhs_bits": self.rhs_bits,
            "pass": self.passed,
            "slack_used": self.slack_used,
            "detail": self.detail,
        }


@dataclass
class CheckReport:
    """A named bundle of bound rows plus free-form measurements."""

    rows: list[BoundRow] = field(default_factory=list)
    measurements: dict = field(default_factory=dict)

    def add(self, row: BoundRow):
        self.rows.append(row)

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def row(self, name: str) -> BoundRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)
