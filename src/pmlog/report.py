"""Reports of the identity suites: each case is a base.Row, from its check to the JSON."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .base import Row, Value


class VerificationReport(Value):
    # Unlike the other values, a report is filled in place, so it is unhashable.
    __slots__ = ("suite", "parameters", "cases")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None
    _fields = property(lambda self: (self.suite, self.parameters, self.cases))

    def __init__(self, suite: str, parameters: dict, cases: list[Row] | None = None) -> None:
        self.suite = suite
        self.parameters = parameters
        self.cases = [] if cases is None else cases

    @property
    def passed(self) -> bool:
        return all(passed for _, _, _, passed in self.cases)

    def to_json_dict(self) -> dict:
        # Timing is deliberately excluded: reports must be byte-identical
        # across runs.  Wall time goes to stderr diagnostics instead.
        return {
            "suite": self.suite,
            "parameters": dict(self.parameters),
            "overall_pass": self.passed,
            "cases": [
                {"input": input, "expected": expected, "actual": actual, "pass": passed}
                for input, expected, actual, passed in self.cases
            ],
        }


# One case of a report as json.dumps(..., indent=2) lays it out.
_CASE = (
    '    {{\n      "input": {},\n      "expected": {},\n      "actual": {},\n'
    '      "pass": {}\n    }}'
)


def report_json(d: dict) -> str:
    """Exactly json.dumps(d, indent=2) for d = VerificationReport.to_json_dict().

    With an indent, json.dumps runs its pure-Python encoder.  Here only the
    small header goes through it; each case is written from a fixed
    template, its strings escaped by the C string encoder that json.dumps
    uses.  This relies on the shape to_json_dict() gives: string fields and
    a bool per case, and "cases" as the last key.
    """
    header = json.dumps({k: v for k, v in d.items() if k != "cases"}, indent=2)
    cases = ",\n".join(
        _CASE.format(
            encode_basestring_ascii(c["input"]),
            encode_basestring_ascii(c["expected"]),
            encode_basestring_ascii(c["actual"]),
            "true" if c["pass"] else "false",
        )
        for c in d["cases"]
    )
    body = f"[\n{cases}\n  ]" if cases else "[]"
    # The header ends in "\n}"; the cases go in before that brace.
    return f'{header[:-2]},\n  "cases": {body}\n}}'
