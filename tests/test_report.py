"""The verify report writer: the exact text of json.dumps(d, indent=2)."""

import json
import random

import pytest

import pmlog.cli as cli
from pmlog.report import VerificationReport, report_json

# Characters that JSON must escape or that ensure_ascii turns into \u
# escapes: quotes, backslashes, control characters, non-ASCII text and a
# character outside the Basic Multilingual Plane (a surrogate pair).
AWKWARD = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", "é", "ζ", " ", "\U0001d54f"]
PLAIN = list("az09 =:^/|-+*")


def random_text(rng):
    return "".join(rng.choice(AWKWARD + PLAIN) for _ in range(rng.randrange(0, 12)))


def random_report(rng, cases):
    parameters = {"p": rng.choice([2, 3, 5]), "max_n": rng.randrange(1, 5), "sign": random_text(rng)}
    return VerificationReport(
        suite=random_text(rng),
        parameters=parameters,
        cases=[
            (random_text(rng), random_text(rng), random_text(rng), rng.random() < 0.8)
            for _ in range(cases)
        ],
    )


@pytest.mark.parametrize("seed", range(20))
def test_writer_matches_json_dumps_on_seeded_reports(seed):
    rng = random.Random(seed)
    report = random_report(rng, cases=rng.choice([0, 1, 2, 40]))
    d = report.to_json_dict()
    assert report_json(d) == json.dumps(d, indent=2)


def test_writer_matches_json_dumps_on_failing_and_empty_reports():
    failing = VerificationReport("oracle", {"p": 3}, [('a"b', "1/9", "0", False)])
    assert failing.to_json_dict()["overall_pass"] is False
    empty = VerificationReport("additivity", {"p": 2, "max_n": 1}, [])
    for report in (failing, empty):
        d = report.to_json_dict()
        assert report_json(d) == json.dumps(d, indent=2)


@pytest.mark.parametrize("suite", ["all", "logproduct"])
def test_writer_matches_json_dumps_on_a_real_report(capsys, suite):
    code = cli.main(["verify", "--suite", suite, "--p", "3", "--max-n", "2", "--tprec", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
