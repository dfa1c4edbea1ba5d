"""Shared bound-row record used by all verification routines, and the stop
rows that Re-Pair and Greedy report at a threshold stop."""

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


def stop_report(trace, name: str, size_name: str, size_key: str, size: int,
                nonterminal_bound: float) -> CheckReport:
    """A compressor's threshold stop: ``size``, the figure its threshold
    reads (``size_name`` in the row detail, ``size_key`` in the
    measurements), strictly below trace.threshold, and its nonterminal
    count, one per step, at most ``nonterminal_bound``."""
    t = trace.threshold
    nonterminals = len(trace.steps)
    out = CheckReport()
    out.add(BoundRow(f"{name}_stop_exists", float(size), float(t), size < t, 0.0,
                     f"strict: {size_name} below threshold at stop"))
    out.add(BoundRow.check(f"{name}_stop_nonterminals", nonterminals, nonterminal_bound))
    out.measurements.update({"threshold": t, size_key: size, "nonterminals_at_stop": nonterminals,
                             "iterations": nonterminals, "stopped_by": trace.stopped_by})
    return out
