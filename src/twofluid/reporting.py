"""Small shared result types for verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Check:
    """Outcome of a single named check.

    ``worst`` is the extremal residual or margin the check observed; its
    meaning (relative error, violation count, ...) is check-specific and
    spelled out in ``detail``.
    """

    name: str
    passed: bool
    worst: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status}  {self.name}  worst={self.worst:.3e}"
        if self.detail:
            out += f"  ({self.detail})"
        return out


@dataclass
class Report:
    """A batch of checks, printable one line per check."""

    title: str
    checks: list[Check] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(not c.passed for c in self.checks)

    @property
    def passed(self) -> bool:
        return not self.failed

    def add(self, name: str, passed: bool, worst: float, detail: str = "") -> None:
        self.checks.append(Check(name, bool(passed), float(worst), detail))

    def summary(self) -> str:
        head = f"== {self.title}: {'PASS' if self.passed else 'FAIL'} =="
        return "\n".join([head] + [c.line() for c in self.checks])
