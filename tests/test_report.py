"""The verify report writer: exactly json.dumps(report.to_json_dict(), indent=2) + "\\n"."""

import io
import json
import random
import sys
import tracemalloc

import pytest

import pmlog.cli as cli
import pmlog.report as report_module
from pmlog import Prime, SeriesPrecision
from pmlog.report import WRITE_BLOCK, VerificationReport, write_report
from pmlog.suites import run_suite

# Characters that JSON must escape or that ensure_ascii turns into \u
# escapes: quotes, backslashes, control characters, non-ASCII text, the
# line separator U+2028 and a character outside the Basic Multilingual
# Plane (a surrogate pair).
AWKWARD = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", "é", "ζ", "\u2028", "\U0001d54f"]
PLAIN = list("az09 =:^/|-+*")


def random_text(rng):
    return "".join(rng.choice(AWKWARD + PLAIN) for _ in range(rng.randrange(0, 12)))


def random_report(rng, cases):
    parameters = {
        "p": rng.choice([2, 3, 5]),
        "max_n": rng.randrange(1, 5),
        "sign": random_text(rng),
        random_text(rng) + "k": random_text(rng),
    }
    rows = [
        (random_text(rng), random_text(rng), random_text(rng), rng.random() < 0.8)
        for _ in range(cases)
    ]
    # The rows split into one to three blocks, each under its own suite name.
    cuts = sorted(rng.randrange(cases + 1) for _ in range(rng.randrange(3)))
    blocks = [(random_text(rng), rows[i:j]) for i, j in zip([0, *cuts], [*cuts, cases])]
    return VerificationReport(suite=random_text(rng), parameters=parameters, blocks=blocks)


class Recorder:
    """A text sink that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


class Discard:
    """A text sink that drops what it is given."""

    def write(self, text):
        return len(text)


def written(report):
    out = io.StringIO()
    write_report(report, out)
    return out.getvalue()


def reference(report):
    return json.dumps(report.to_json_dict(), indent=2) + "\n"


@pytest.mark.parametrize("seed", range(20))
def test_writer_matches_json_dumps_on_seeded_reports(seed):
    rng = random.Random(seed)
    report = random_report(rng, cases=rng.choice([0, 1, 2, 40]))
    assert written(report) == reference(report)


def test_writer_matches_json_dumps_on_failing_and_empty_reports():
    failing = VerificationReport("oracle", {"p": 3}, [("oracle", [('a"b', "1/9", "0", False)])])
    assert failing.to_json_dict()["overall_pass"] is False
    rows = [("a", "1", "1", True), ("b", "1", "0", False)]
    mixed = VerificationReport("oracle", {"p": 3}, [("oracle", rows)])
    empty = VerificationReport("additivity", {"p": 2, "max_n": 1}, [])
    bare = VerificationReport("all", {})
    for report in (failing, mixed, empty, bare):
        assert written(report) == reference(report)


ROWS = [("n=1 a=0", "1/4", "1/4", True), ("n=1 a=1", "0", "1/4", False)]


@pytest.mark.parametrize(
    "blocks",
    [
        [],
        [("oracle", []), ("amice", [])],
        [("oracle", ROWS), ("additivity", []), ("amice", ROWS[:1]), ("logproduct", ROWS)],
        [("".join(AWKWARD), ROWS), (AWKWARD[-1], ROWS[1:])],
    ],
    ids=["no-blocks", "empty-blocks", "all", "awkward-names"],
)
def test_writer_matches_json_dumps_on_blocks(blocks):
    # With no case at all, "cases" closes as "[]" however many blocks there are.
    report = VerificationReport("all", {"p": 2, "max_n": 1}, blocks)
    assert written(report) == reference(report)
    assert report.to_json_dict()["overall_pass"] is all(ok for _, rows in blocks for *_, ok in rows)


@pytest.mark.parametrize("extra", [-1, 0, 1, WRITE_BLOCK + 1])
def test_writer_writes_a_block_of_cases_at_a_time(extra):
    rng = random.Random(extra)
    header = random_report(rng, cases=0)
    cases = [(f"n={i} {random_text(rng)}", "1/4", "1/4", True) for i in range(WRITE_BLOCK + extra)]
    cases[extra] = (cases[extra][0], "1/4", "0", False)
    report = VerificationReport(header.suite, header.parameters, [(header.suite, cases)])
    sink = Recorder()
    write_report(report, sink)
    assert "".join(sink.writes) == reference(report)
    # The header, then each block of cases, and no write of the whole report.
    per_write = [text.count('"input": ') for text in sink.writes]
    assert sum(per_write) == len(cases)
    assert len(sink.writes) >= 3
    assert max(per_write) <= WRITE_BLOCK


def test_writer_escapes_each_distinct_tail_once(monkeypatch):
    tails = [("1/9", "1/9", True), ("0", "0", True), ("1/9", "0", False), ('"0"', "0", False)]
    rows = [(f"sign=+ n=9 a={a}", *tails[a % 7 % 4]) for a in range(3**9)]
    report = VerificationReport("oracle", {"p": 3, "max_n": 9}, [("oracle", rows)])
    calls = []
    real = report_module.encode_basestring_ascii
    monkeypatch.setattr(
        report_module, "encode_basestring_ascii", lambda text: calls.append(text) or real(text)
    )
    out = written(report)
    monkeypatch.undo()
    assert out == reference(report)
    # One escape per input, two per distinct tail and one per block's suite
    # name; the header goes through json.dumps.
    assert len(calls) == 3**9 + 2 * len(tails) + 1


@pytest.mark.parametrize("suite", ["all", "logproduct"])
def test_writer_matches_json_dumps_on_a_real_report(capsys, suite):
    code = cli.main(["verify", "--suite", suite, "--p", "3", "--max-n", "2", "--tprec", "8"])
    out = capsys.readouterr().out
    assert code == 0
    report = run_suite(suite, Prime(3), 2, SeriesPrecision(t_prec=8, p_prec=cli.DEFAULT_P_PREC))
    assert out == reference(report)


def test_verify_writes_its_report_in_bounded_memory(monkeypatch, capsys):
    # additivity at p = 2 up to n = 12 has 16,380 cases, whose rows hold
    # 2.9 MiB.  The tracemalloc peak of the whole run was 11.8-12.1 MiB when
    # the report was built as one dict per case and then one string, and is
    # 4.6-4.7 MiB written a block at a time (Python 3.11.7).
    monkeypatch.setattr(sys, "stdout", Discard())
    tracemalloc.start()
    try:
        code = cli.main(["verify", "--suite", "additivity", "--p", "2", "--max-n", "12"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 6 * 2**20, peak
