"""Structured results for the machine-checked identity suites."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Case:
    """One checked instance: what was fed in, what was expected, what came out."""

    input: str
    expected: str
    actual: str
    passed: bool


@dataclass
class VerificationReport:
    suite: str
    parameters: dict
    cases: list[Case] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(case.passed for case in self.cases)

    def to_json_dict(self) -> dict:
        # Timing is deliberately excluded: reports must be byte-identical
        # across runs.  Wall time goes to stderr diagnostics instead.
        return {
            "suite": self.suite,
            "parameters": dict(self.parameters),
            "overall_pass": self.passed,
            "cases": [
                {"input": c.input, "expected": c.expected, "actual": c.actual, "pass": c.passed}
                for c in self.cases
            ],
        }
