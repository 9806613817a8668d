"""Reports of the identity suites: base.Level cases in a block per suite, from check to JSON."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .base import Level, Value, store_fields

Block = tuple[str, list[Level]]


class VerificationReport(Value, fields=("suite", "parameters", "blocks")):
    """One verify run: a (suite name, levels) block per suite run, the levels as
    the suite yields them; a case's input is "<suite name>: " + its level's.
    Read-only like the other values; its parameters dict makes it unhashable."""

    __slots__ = ()

    def __init__(self, suite: str, parameters: dict, blocks: list[Block] | None = None) -> None:
        store_fields(self, (suite, parameters, [] if blocks is None else blocks))

    @property
    def passed(self) -> bool:
        # Every text of a level is some case's, so its texts hold every verdict.
        return all(ok for _, levels in self.blocks for *_, texts, _ in levels for *_, ok in texts)

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
                {"input": f"{name}: {pre}{label}{post}", "expected": e, "actual": a, "pass": ok}
                for name, levels in self.blocks
                for pre, labels, post, texts, index in levels
                for label, (e, a, ok) in zip(labels, map(texts.__getitem__, index))
            ],
        }


# The cases written by one out.write.
WRITE_BLOCK = 4096

# A case as json.dumps(..., indent=2) lays it out: _OPEN, its escaped input,
# then the tail of its (expected, actual, passed) fields, which starts with
# the rest of the input after its label; cases are joined by a comma.
_OPEN = '\n    {\n      "input": '
_TAIL = '{},\n      "expected": {},\n      "actual": {},\n      "pass": {}\n    }}'


def write_report(report: VerificationReport, out) -> None:
    """Write exactly json.dumps(report.to_json_dict(), indent=2) + "\\n" to out.

    It writes from report.blocks, at most WRITE_BLOCK cases per out.write,
    with no per-case dict and no string of the whole report; only the header
    goes through json.dumps, whose encoder is pure Python with an indent.
    Escaping a concatenation gives the concatenation of the escaped parts,
    and an integer label needs no escaping, so each level's "<suite name>: "
    + prefix and its suffix are escaped once, its few texts are escaped and
    formatted once into tails that start with the suffix, and a case is its
    label between the two.
    """
    escape = encode_basestring_ascii  # the C string encoder json.dumps uses
    header = {"suite": report.suite, "parameters": report.parameters, "overall_pass": report.passed}
    # The header's text ends in "\n}"; the cases go in before that brace.
    out.write(json.dumps(header, indent=2)[:-2] + ',\n  "cases": [')
    comma = ""
    for name, levels in report.blocks:
        for prefix, labels, suffix, texts, index in levels:
            # The escaped prefix less its closing quote, the suffix less its opening one.
            opening, closing = _OPEN + escape(f"{name}: {prefix}")[:-1], escape(suffix)[1:]
            tails = [
                _TAIL.format(closing, escape(e), escape(a), "true" if ok else "false")
                for e, a, ok in texts
            ]
            for start in range(0, len(index), WRITE_BLOCK):
                cases = zip(labels[start : start + WRITE_BLOCK], index[start : start + WRITE_BLOCK])
                out.write(comma + ",".join([f"{opening}{label}{tails[i]}" for label, i in cases]))
                comma = ","
    out.write("\n  ]\n}\n" if comma else "]\n}\n")
