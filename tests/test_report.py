"""The verify report writer: exactly json.dumps(report.to_json_dict(), indent=2) + "\\n"."""

import io
import json
import os
import random
import sys
import tracemalloc

import pytest

import pmlog.cli as cli
import pmlog.report as report_module
from pmlog.base import level
from pmlog.digits import Prime
from pmlog.report import WRITE_BLOCK, VerificationReport, write_report
from pmlog.series import SeriesPrecision
from pmlog.suites import run_suite
from level_rows import rows

# Characters that JSON must escape or that ensure_ascii turns into \u
# escapes: quotes, backslashes, control characters, non-ASCII text, the
# line separator U+2028 and a character outside the Basic Multilingual
# Plane (a surrogate pair).
AWKWARD = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", "é", "ζ", "\u2028", "\U0001d54f"]
PLAIN = list("az09 =:^/|-+*")


def random_text(rng):
    return "".join(rng.choice(AWKWARD + PLAIN) for _ in range(rng.randrange(0, 12)))


def random_level(rng, cases):
    # A level of `cases` cases, labelled from 0, 1 or 2, over up to four texts.
    texts = [(random_text(rng), random_text(rng), rng.random() < 0.8) for _ in range(4)]
    keys = [rng.choice(texts) for _ in range(cases)]
    return level(random_text(rng), random_text(rng), keys, keys.__getitem__, rng.randrange(3))


def random_report(rng, cases):
    parameters = {
        "p": rng.choice([2, 3, 5]),
        "max_n": rng.randrange(1, 5),
        "sign": random_text(rng),
        random_text(rng) + "k": random_text(rng),
    }
    # The cases split into one to five levels, and those into one to three
    # blocks, each under its own suite name.
    cuts = sorted(rng.randrange(cases + 1) for _ in range(rng.randrange(5)))
    levels = [random_level(rng, j - i) for i, j in zip([0, *cuts], [*cuts, cases])]
    cuts = sorted(rng.randrange(len(levels) + 1) for _ in range(rng.randrange(3)))
    blocks = [(random_text(rng), levels[i:j]) for i, j in zip([0, *cuts], [*cuts, len(levels)])]
    return VerificationReport(suite=random_text(rng), parameters=parameters, blocks=blocks)


def cases_of(report):
    # The report's levels expanded to rows, without the suite names.
    return rows(*(level for _, levels in report.blocks for level in levels))


class Recorder:
    """A text sink that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


class Discard:
    """A text sink that drops what it is given, and flushes as stdout does."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def written(report):
    out = io.StringIO()
    write_report(report, out)
    return out.getvalue()


def reference(report):
    return json.dumps(report.to_json_dict(), indent=2) + "\n"


def assert_same_text(mine, expected):
    # A writer's text against its reference without pytest's diff of two
    # long strings, which can run for minutes: the lengths, then the first
    # offset where the two differ, with a short window around it.
    if len(mine) == len(expected) and mine == expected:
        return
    at = len(os.path.commonprefix([mine, expected]))
    window = slice(max(0, at - 40), at + 40)
    pytest.fail(
        f"lengths {len(mine)} and {len(expected)}, first difference at offset {at}:\n"
        f"written   {mine[window]!r}\nreference {expected[window]!r}"
    )


def assert_writes_reference(report):
    assert_same_text(written(report), reference(report))


@pytest.mark.parametrize("seed", range(20))
def test_writer_matches_json_dumps_on_seeded_reports(seed):
    rng = random.Random(seed)
    report = random_report(rng, cases=rng.choice([0, 1, 2, 40]))
    assert_writes_reference(report)
    assert report.passed is all(ok for *_, ok in cases_of(report))


def one_level(prefix, *texts):
    # A level of one case per text, labelled from 0.
    return level(prefix, "", list(texts), texts.__getitem__)


def test_writer_matches_json_dumps_on_failing_and_empty_reports():
    failing_level = one_level('a"b', ("1/9", "0", False))
    failing = VerificationReport("oracle", {"p": 3}, [("oracle", [failing_level])])
    assert failing.to_json_dict()["overall_pass"] is False
    mixed_level = one_level("a", ("1", "1", True), ("1", "0", False))
    mixed = VerificationReport("oracle", {"p": 3}, [("oracle", [mixed_level])])
    empty = VerificationReport("additivity", {"p": 2, "max_n": 1}, [])
    bare = VerificationReport("all", {})
    for report in (failing, mixed, empty, bare):
        assert_writes_reference(report)


TEXTS = [("1/4", "1/4", True), ("0", "1/4", False)]
LEVEL = ("n=1 a=", range(2), "", TEXTS, [0, 1])
FIRST = ("n=1 a=", range(1), "", TEXTS[:1], [0])
SECOND = ("n=1 a=", range(1, 2), "", TEXTS[1:], [0])


@pytest.mark.parametrize(
    "blocks",
    [
        [],
        [("oracle", []), ("amice", [])],
        [("oracle", [LEVEL]), ("additivity", []), ("amice", [FIRST]), ("logproduct", [LEVEL])],
        [("".join(AWKWARD), [LEVEL]), (AWKWARD[-1], [SECOND])],
        [("amice", [FIRST, ("k=", range(5, 5), " n=1", [], [])]), ("oracle", [SECOND, FIRST])],
    ],
    ids=["no-blocks", "empty-blocks", "all", "awkward-names", "levels"],
)
def test_writer_matches_json_dumps_on_blocks(blocks):
    # With no case at all, "cases" closes as "[]" however many blocks there are.
    report = VerificationReport("all", {"p": 2, "max_n": 1}, blocks)
    assert_writes_reference(report)
    assert report.to_json_dict()["overall_pass"] is all(ok for *_, ok in cases_of(report))


@pytest.mark.parametrize("extra", [-1, 0, 1, WRITE_BLOCK + 1])
def test_writer_writes_a_block_of_cases_at_a_time(extra):
    rng = random.Random(extra)
    header = random_report(rng, cases=0)
    # One level of AWKWARD text around its labels, whose case `extra` fails.
    index = [0] * (WRITE_BLOCK + extra)
    index[extra] = 1
    texts = [("1/4", "1/4", True), ("1/4", "0", False)]
    prefix, suffix = f"n={random_text(rng)} a=", random_text(rng)
    levels = [(prefix, range(len(index)), suffix, texts, index)]
    report = VerificationReport(header.suite, header.parameters, [(header.suite, levels)])
    sink = Recorder()
    write_report(report, sink)
    assert_same_text("".join(sink.writes), reference(report))
    # The header, then each block of cases, and no write of the whole report.
    per_write = [text.count('"input": ') for text in sink.writes]
    assert sum(per_write) == len(index)
    assert len(sink.writes) >= 3
    assert max(per_write) <= WRITE_BLOCK


def test_writer_escapes_each_distinct_tail_once(monkeypatch):
    texts = [("1/9", "1/9", True), ("0", "0", True), ("1/9", "0", False), ('"0"', "0", False)]
    levels = []
    for n in (7, 8, 9):
        keys = [texts[a % 7 % 4] for a in range(3**n)]
        levels.append(level(f"sign=+ n={n} a=", f" mod 3^{n}", keys, keys.__getitem__))
    report = VerificationReport("oracle", {"p": 3, "max_n": 9}, [("oracle", levels)])
    calls = []
    real = report_module.encode_basestring_ascii
    monkeypatch.setattr(
        report_module, "encode_basestring_ascii", lambda text: calls.append(text) or real(text)
    )
    out = written(report)
    monkeypatch.undo()
    assert_same_text(out, reference(report))
    # Two escapes per level (its suite name and prefix, and its suffix) and
    # two per distinct text of each level, none per case; the header goes
    # through json.dumps.
    assert len(calls) == len(levels) * (2 + 2 * len(texts))


@pytest.mark.parametrize("suite", ["all", "logproduct"])
def test_writer_matches_json_dumps_on_a_real_report(capsys, suite):
    code = cli.main(["verify", "--suite", suite, "--p", "3", "--max-n", "2", "--tprec", "8"])
    out = capsys.readouterr().out
    assert code == 0
    report = run_suite(suite, Prime(3), 2, SeriesPrecision(t_prec=8, p_prec=cli.DEFAULT_P_PREC))
    assert_same_text(out, reference(report))


def traced_peak(monkeypatch, argv):
    # The tracemalloc peak of one in-process pmlog call, stdout discarded.
    monkeypatch.setattr(sys, "stdout", Discard())
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_verify_writes_its_report_in_bounded_memory(monkeypatch, capsys):
    # additivity at p = 2 up to n = 12 has 16,380 cases.  The tracemalloc
    # peak of the whole run was 11.8-12.1 MiB when the report was built as
    # one dict per case and then one string, 4.3-4.7 MiB with one row per
    # case written a block at a time, and is 1.6 MiB with the cases held as
    # levels (Python 3.11.7).
    argv = ["verify", "--suite", "additivity", "--p", "2", "--max-n", "12"]
    peak = traced_peak(monkeypatch, argv)
    assert peak < 3 * 2**20, peak


def test_verify_holds_a_level_not_its_cases(monkeypatch, capsys):
    # additivity at p = 2 up to n = 14 has 65,532 cases, over 10 distinct
    # texts per sign.  Its tracemalloc peak was 11.6 MiB with one row per
    # case, and is 2.2 MiB with a label range and an index list per level,
    # whose largest level's keys are the most held at once (Python 3.11.7).
    argv = ["verify", "--suite", "additivity", "--p", "2", "--max-n", "14"]
    peak = traced_peak(monkeypatch, argv)
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("p,max_n", [(2, 5), (3, 4), (5, 3)])
def test_every_level_holds_one_text_per_distinct_case_and_each_is_used(p, max_n):
    # Every suite's levels, at a --max-n drawn per p, keep the level
    # invariants, and passed reads the same verdicts as the cases.
    max_n = random.Random(p).randint(1, max_n)
    report = run_suite("all", Prime(p), max_n, SeriesPrecision(t_prec=8, p_prec=6))
    levels = [level for _, levels in report.blocks for level in levels]
    assert [name for name, _ in report.blocks] == list(cli.SUITES)
    for prefix, labels, suffix, texts, index in levels:
        assert len(labels) == len(index)
        assert sorted(set(index)) == list(range(len(texts)))
        assert len(set(texts)) == len(texts)
    cases = report.to_json_dict()["cases"]
    assert len(cases) == sum(len(index) for *_, index in levels)
    assert report.passed == all(case["pass"] for case in cases)
