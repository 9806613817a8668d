"""Reports of the identity suites: each case is a base.Row, from its check to the JSON."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .base import Row, Value, store_fields


class VerificationReport(Value, fields=("suite", "parameters", "cases")):
    # Read-only like the other values; its parameters dict makes it unhashable.
    __slots__ = ()

    def __init__(self, suite: str, parameters: dict, cases: list[Row] | None = None) -> None:
        store_fields(self, (suite, parameters, [] if cases is None else cases))

    @property
    def passed(self) -> bool:
        return all(passed for _, _, _, passed in self.cases)

    def to_json_dict(self) -> dict:
        # Timing is deliberately excluded: reports must be byte-identical
        # across runs.  Wall time goes to stderr diagnostics instead.
        # write_report writes json.dumps of this dict without building it;
        # the tests compare the two.
        return {
            "suite": self.suite,
            "parameters": dict(self.parameters),
            "overall_pass": self.passed,
            "cases": [
                {"input": input, "expected": expected, "actual": actual, "pass": passed}
                for input, expected, actual, passed in self.cases
            ],
        }


# The cases written by one out.write.
WRITE_BLOCK = 4096

# A case as json.dumps(..., indent=2) lays it out: _OPEN, its escaped input,
# then the tail of its (expected, actual, passed) fields; cases are joined
# by a comma.
_OPEN = '\n    {\n      "input": '
_TAIL = ',\n      "expected": {},\n      "actual": {},\n      "pass": {}\n    }}'


def write_report(report: VerificationReport, out) -> None:
    """Write exactly json.dumps(report.to_json_dict(), indent=2) + "\\n" to out.

    It writes from report.cases, WRITE_BLOCK cases per out.write, and makes
    no per-case dict and no string of the whole report.  Only the header
    goes through json.dumps, whose encoder is pure Python with an indent.
    A report's cases share few (expected, actual, passed) tails, so each
    distinct tail is escaped and formatted once, and each input is escaped
    by the C string encoder that json.dumps uses.
    """
    cases = report.cases
    tails = dict.fromkeys(row[1:] for row in cases)
    for expected, actual, passed in tails:
        tails[expected, actual, passed] = _TAIL.format(
            encode_basestring_ascii(expected),
            encode_basestring_ascii(actual),
            "true" if passed else "false",
        )
    header = {"suite": report.suite, "parameters": report.parameters, "overall_pass": report.passed}
    # The header's text ends in "\n}"; the cases go in before that brace.
    out.write(json.dumps(header, indent=2)[:-2] + ',\n  "cases": [')
    comma = ""
    for start in range(0, len(cases), WRITE_BLOCK):
        texts = [
            f"{_OPEN}{encode_basestring_ascii(input)}{tails[expected, actual, passed]}"
            for input, expected, actual, passed in cases[start : start + WRITE_BLOCK]
        ]
        out.write(comma + ",".join(texts))
        comma = ","
    out.write("\n  ]\n}\n" if cases else "]\n}\n")
