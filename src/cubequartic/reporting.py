"""Check and report records shared by the verification layers.

A Check stores one inequality or identity instance with the values that
were compared.  Hard checks decide the overall verdict of a report;
soft checks are informational (empirical constants, ratios the source
bounds only asymptotically) and never fail a report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

__all__ = ["Check", "BoundReport", "ConjectureRecord"]


@dataclass(frozen=True)
class Check:
    """One verified relation lhs <relation> rhs."""

    name: str
    lhs: object
    relation: str
    rhs: object
    passed: bool
    hard: bool = True
    provenance: str = ""
    detail: str = ""

    def describe(self) -> str:
        kind = "hard" if self.hard else "soft"
        status = "ok" if self.passed else "FAIL"
        return f"[{status}] ({kind}) {self.name}: {self.lhs} {self.relation} {self.rhs}"


def check_le(
    name: str,
    lhs,
    rhs,
    *,
    hard: bool = True,
    slack=0,
    provenance: str = "",
    detail: str = "",
) -> Check:
    """lhs <= rhs + slack; exact when both sides are exact types."""
    return Check(name, lhs, "<=", rhs, bool(lhs <= rhs + slack), hard, provenance, detail)


def check_ge(
    name: str,
    lhs,
    rhs,
    *,
    hard: bool = True,
    slack=0,
    provenance: str = "",
    detail: str = "",
) -> Check:
    return Check(name, lhs, ">=", rhs, bool(lhs >= rhs - slack), hard, provenance, detail)


def check_lt(name: str, lhs, rhs, *, hard: bool = True, provenance: str = "", detail: str = "") -> Check:
    return Check(name, lhs, "<", rhs, bool(lhs < rhs), hard, provenance, detail)


def check_close(
    name: str,
    lhs: float,
    rhs: float,
    *,
    tol: float,
    relative: bool = False,
    hard: bool = True,
    provenance: str = "",
    detail: str = "",
) -> Check:
    """|lhs - rhs| <= tol, optionally scaled by max(1, |lhs|, |rhs|)."""
    scale = max(1.0, abs(lhs), abs(rhs)) if relative else 1.0
    passed = abs(lhs - rhs) <= tol * scale
    return Check(name, lhs, "~=", rhs, bool(passed), hard, provenance, detail)


def soft_note(name: str, value, *, provenance: str = "", detail: str = "") -> Check:
    """A report-only observation; always 'passes'."""
    return Check(name, value, "reported", None, True, False, provenance, detail)


@dataclass
class BoundReport:
    """A named bundle of checks about one subject."""

    subject: str
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks if c.hard)

    def failed_checks(self) -> list[Check]:
        return [c for c in self.checks if c.hard and not c.passed]

    def describe(self) -> str:
        lines = [f"report: {self.subject} -> {'PASS' if self.overall else 'FAIL'}"]
        lines += ["  " + c.describe() for c in self.checks]
        lines += ["  note: " + n for n in self.notes]
        return "\n".join(lines)


@dataclass(frozen=True)
class ConjectureRecord:
    """One (n, k) cell of the sphere-maximiser scan.

    gap = mu_est - energy_ratio must stay >= -1e-8: the optimiser is
    seeded with the uniform vector whose value IS the energy ratio, so
    falling measurably below it indicates a broken estimator.  A large
    positive gap would be a counterexample candidate for the
    uniform-maximiser conjecture and keeps its certificate for audit.
    """

    n: int
    k: int
    mu_est: float
    energy_ratio: Fraction
    gap: float
    upper_gap: float
    status: str
    certificate: tuple[float, ...] | None = None

    CONSISTENT = "conjecture-consistent"
    CANDIDATE = "counterexample-candidate"
    INCONCLUSIVE = "inconclusive"

    def __post_init__(self) -> None:
        if self.status not in (self.CONSISTENT, self.CANDIDATE, self.INCONCLUSIVE):
            raise ValueError(f"unknown status {self.status!r}")
