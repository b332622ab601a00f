"""Pass/fail reports returned by the verification checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

MAX_FAILURES = 5


@dataclass
class CheckReport:
    """Outcome of one identity check: what ran, whether it held, and the
    first mismatching entries (word(s), input state, output state, expected,
    actual) for debugging."""

    name: str
    passed: bool = True
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, describe: Callable[[], str]) -> None:
        """Count one comparison; on failure, call ``describe`` at once for
        its line while fewer than MAX_FAILURES are kept."""
        self.checks += 1
        if not ok:
            self.passed = False
            if len(self.failures) < MAX_FAILURES:
                self.failures.append(describe())

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "failures": list(self.failures),
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"{status} {self.name} ({self.checks} comparisons)"]
        lines.extend(f"    {f}" for f in self.failures)
        return "\n".join(lines)

