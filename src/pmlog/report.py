"""Reports of the identity suites: base.Row cases in a block per suite, from check to JSON."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .base import Row, Value, store_fields

Block = tuple[str, list[Row]]


class VerificationReport(Value, fields=("suite", "parameters", "blocks")):
    """One verify run: a (suite name, rows) block per suite run, the rows as
    the suite yields them; a case's input is "<suite name>: " + its row's.
    Read-only like the other values; its parameters dict makes it unhashable."""

    __slots__ = ()

    def __init__(self, suite: str, parameters: dict, blocks: list[Block] | None = None) -> None:
        store_fields(self, (suite, parameters, [] if blocks is None else blocks))

    @property
    def passed(self) -> bool:
        return all(passed for _, rows in self.blocks for *_, passed in rows)

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
                {"input": f"{name}: {input}", "expected": expected, "actual": actual, "pass": ok}
                for name, rows in self.blocks
                for input, expected, actual, ok in rows
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

    It writes from report.blocks, at most WRITE_BLOCK cases per out.write,
    and makes no per-case dict and no string of the whole report.  Only the
    header goes through json.dumps, whose encoder is pure Python with an
    indent.  A report's cases share few (expected, actual, passed) tails,
    so each distinct tail is escaped and formatted once.  Escaping a
    concatenation gives the concatenation of the escaped parts, so each
    block's "<suite name>: " is escaped once, and each row's input by the C
    string encoder that json.dumps uses.
    """
    tails = dict.fromkeys(row[1:] for _, rows in report.blocks for row in rows)
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
    for name, rows in report.blocks:
        # The escaped prefix less its closing quote, each input less its opening one.
        opening = _OPEN + encode_basestring_ascii(f"{name}: ")[:-1]
        for start in range(0, len(rows), WRITE_BLOCK):
            texts = [
                f"{opening}{encode_basestring_ascii(input)[1:]}{tails[expected, actual, passed]}"
                for input, expected, actual, passed in rows[start : start + WRITE_BLOCK]
            ]
            out.write(comma + ",".join(texts))
            comma = ","
    out.write("\n  ]\n}\n" if comma else "]\n}\n")
