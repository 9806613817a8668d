"""The command-line surface: output schemas, exit codes, determinism."""

import argparse
import ast
import contextlib
import csv
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from test_cli_fuzz import sloppy, well_formed

import pmlog.base as base
import pmlog.cli as cli
import pmlog.distribution as distribution
import pmlog.series as series
from pmlog.base import Sign, Value, pval
from pmlog.digits import Prime, residue_from_integer
from pmlog.distribution import DistValue, mu_level, mu_oracle, mu_value
from pmlog.series import SeriesPrecision, build_log_pm, dump_exponent, factor_count


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_value_example(capsys):
    code, out, _ = run(capsys, "value", "--sign", "+", "--p", "3", "--n", "3", "--a", "3")
    assert code == 0
    assert json.loads(out) == {"num": "1", "den": "9", "p_val": -2, "zero": False}


def test_value_zero_case(capsys):
    code, out, _ = run(capsys, "value", "--sign", "+", "--p", "3", "--n", "2", "--a", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["zero"] is True and payload["num"] == "0" and payload["p_val"] is None


def test_value_oracle_flag(capsys):
    code, out, _ = run(
        capsys, "value", "--sign", "-", "--p", "3", "--n", "1", "--a", "2", "--oracle"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["value"] == payload["oracle"]
    assert payload["value"]["den"] == "9"


def test_value_bivariate_double_minus(capsys):
    code, out, _ = run(
        capsys,
        "value", "--sign", "--", "--p", "2", "--n", "1", "--m", "1", "--a", "1", "--b", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"num": "1", "den": "16", "p_val": -4, "zero": False, "sign": "--"}


def test_bivalue_subcommand_matches_value(capsys):
    args = ["--sign", "+-", "--p", "3", "--n", "2", "--m", "1", "--a", "3", "--b", "0"]
    code1, out1, _ = run(capsys, "value", *args)
    code2, out2, _ = run(capsys, "bivalue", *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_the_sign_may_be_joined_to_its_flag(capsys):
    for rest in (["value", "--p", "3", "--n", "2", "--a", "3"], ["series", "--p", "3"]):
        for sign in ("+", "-"):
            joined = run(capsys, rest[0], f"--sign={sign}", *rest[1:])
            assert joined == run(capsys, rest[0], "--sign", sign, *rest[1:])
            assert joined[0] == 0
    code, out, err = run(capsys, "value", "--sign=-+", "--p", "3", "--n", "1", "--a", "0")
    assert (code, out) == (2, "") and "--m and --b" in err


def test_a_missing_sign_is_named_with_the_allowed_ones(capsys):
    code, out, err = run(capsys, "series", "--p", "3")
    assert (code, out, err) == (2, "", "error: --sign is required (one of +, -)\n")


def test_bivalue_rejects_univariate_sign(capsys):
    code, _, err = run(capsys, "bivalue", "--sign", "+", "--p", "3", "--n", "1", "--a", "0")
    assert code == 2
    assert "sign" in err


def test_value_usage_errors(capsys):
    # bivariate sign without --m/--b
    code, _, _ = run(capsys, "value", "--sign", "++", "--p", "3", "--n", "1", "--a", "0")
    assert code == 2
    # univariate sign with stray --b
    code, _, _ = run(
        capsys, "value", "--sign", "+", "--p", "3", "--n", "1", "--a", "0", "--b", "1"
    )
    assert code == 2
    # composite p
    code, _, _ = run(capsys, "value", "--sign", "+", "--p", "4", "--n", "1", "--a", "0")
    assert code == 2
    # missing required --a
    code, _, _ = run(capsys, "value", "--sign", "+", "--p", "3", "--n", "1")
    assert code == 2
    # missing sign entirely
    code, _, _ = run(capsys, "value", "--p", "3", "--n", "1", "--a", "0")
    assert code == 2


def test_value_resource_error_exit_code(capsys):
    # At n = 80 each of the oracle's half products has 2^20 terms.
    code, _, err = run(
        capsys, "value", "--sign", "+", "--p", "2", "--n", "80", "--a", "0", "--oracle"
    )
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("command,signs", [("value", ["+"]), ("bivalue", ["-+", "--m", "21"])])
def test_oracle_answers_past_the_level_cap(capsys, command, signs):
    # 2^21 cosets exceed the cap, but the point oracle expands two half
    # products of at most 2^6 terms.
    argv = [command, "--sign", *signs, "--p", "2", "--n", "21", "--a", "0", "--oracle"]
    code, out, _ = run(capsys, *argv, *(["--b", "2"] if command == "bivalue" else []))
    assert code == 0
    result = json.loads(out)
    assert result["agree"] is True and result["value"]["zero"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["value", "--sign", "+", "--p", "2", "--n", "200000", "--a", "0"],
        ["value", "--sign", "-", "--p", "7", "--n", "200000", "--a", "1", "--oracle"],
        ["bivalue", "--sign", "+-", "--p", "2", "--n", "1", "--m", "200000", "--a", "0", "--b", "0"],
        ["table", "--sign", "+", "--p", "2", "--n", "200000", "--force"],
        ["table", "--sign", "--", "--p", "3", "--n", "200000", "--m", "1", "--force"],
        # The dump's constant term 1/p puts p^(p_prec + 1) among its printed
        # integers, so this is refused before the series is built.
        ["series", "--sign", "+", "--p", "2", "--tprec", "1", "--pprec", "100000"],
        # From 309 digits on, n * log10(p) is past a float's range, so these
        # are refused from the integers alone.
        *(
            [*head, "9" * digits, *tail]
            for digits in (309, 4290)
            for head, tail in (
                (["value", "--sign", "+", "--p", "2", "--n"], ["--a", "0"]),
                (["bivalue", "--sign", "-+", "--p", "3", "--n", "1", "--m"], ["--a", "0", "--b", "0"]),
                (["table", "--sign", "-", "--p", "2", "--n"], ["--force"]),
            )
        ),
    ],
)
def test_unprintable_denominator_is_a_resource_error(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "exceeds the limit" in err and "decimal digits" in err


def test_print_limit_boundary_is_exact(capsys, monkeypatch):
    # Gate on a smaller limit than the interpreter's, so the answers just
    # past it can still be printed and measured here.
    limit = 300
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
    for p, sign, offset in ((2, "+", 2), (3, "-", 3), (7, "+", 2)):
        last_fit = max(e for e in range(4 * limit) if len(str(p**e)) <= limit)
        # (n + offset) // 2 runs over last_fit - 1 .. last_fit + 1
        for n in range(2 * last_fit - 2 - offset, 2 * last_fit + 4 - offset):
            exponent = (n + offset) // 2
            argv = ["value", "--sign", sign, "--p", str(p), "--n", str(n), "--a", "0"]
            code, out, _ = run(capsys, *argv)
            if exponent <= last_fit:
                assert code == 0, (p, n)
                assert json.loads(out)["den"] == str(p**exponent)
            else:
                assert code == 3, (p, n)


def test_value_accepts_a_large_prime(capsys):
    p = str(2**61 - 1)
    start = time.perf_counter()
    code, out, _ = run(capsys, "value", "--sign", "+", "--p", p, "--n", "1", "--a", "0")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out) == {"num": "1", "den": p, "p_val": -1, "zero": False}


def test_value_rejects_a_prime_past_the_certified_limit(capsys):
    code, _, err = run(capsys, "value", "--sign", "+", "--p", str(2**89 - 1), "--n", "1", "--a", "0")
    assert code == 2
    assert "too large" in err


def test_table_minus_level_one(capsys):
    code, out, _ = run(capsys, "table", "--sign", "-", "--p", "3", "--n", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    assert all(r["value_num"] == "1" and r["value_den"] == "9" for r in rows)
    assert all(r["in_S"] == "true" for r in rows)


def test_table_plus_support(capsys):
    code, out, _ = run(capsys, "table", "--sign", "+", "--p", "2", "--n", "2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["a"] for r in rows] == ["0", "1", "2", "3"]
    nonzero = [r["a"] for r in rows if r["value_num"] != "0"]
    assert nonzero == ["0", "2"]


def test_table_bivariate_row_count(capsys):
    code, out, _ = run(capsys, "table", "--sign", "-+", "--p", "2", "--n", "2", "--m", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2 ** (2 + 1)
    assert [(r["a"], r["b"]) for r in rows] == [
        (str(a), str(b)) for a in range(4) for b in range(2)
    ]


@pytest.mark.parametrize(
    "sizes", [["--n", "-1"], ["--n", "0"], ["--n", "-1", "--m", "2"], ["--n", "2", "--m", "-1"]]
)
def test_table_rejects_an_exponent_below_one(capsys, sizes):
    sign = "+" if "--m" not in sizes else "++"
    code, _, err = run(capsys, "table", "--sign", sign, "--p", "2", *sizes)
    assert code == 2
    assert "must be >= 1" in err


EXPONENT_ERRORS = [
    (["table", "--sign", "++", "--n", "0", "--m", "30"], "n"),
    (["table", "--sign", "++", "--n", "-5", "--m", "30"], "n"),
    (["table", "--sign", "+-", "--n", "30", "--m", "0"], "m"),
    (["table", "--sign", "-", "--n", "0"], "n"),
    (["value", "--sign", "++", "--n", "0", "--m", "100000", "--a", "0", "--b", "0"], "n"),
    (["value", "--sign", "-+", "--n", "100000", "--m", "0", "--a", "0", "--b", "0"], "m"),
    (["bivalue", "--sign", "--", "--n", "2", "--m", "-1", "--a", "0", "--b", "0"], "m"),
    (["value", "--sign", "+", "--n", "-3", "--a", "0"], "n"),
]


@pytest.mark.parametrize("argv, flag", EXPONENT_ERRORS)
def test_an_exponent_below_one_is_refused_before_any_cap(capsys, argv, flag):
    # Whatever the other coordinate's size: 2^30 rows would trip the row
    # cap, and 1/2^50001 the print gate, if the exponents came second.
    code, out, err = run(capsys, *argv[:3], "--p", "2", *argv[3:])
    assert (code, out, err) == (2, "", f"error: modulus exponent {flag} must be >= 1\n")


def test_table_row_cap_and_force(capsys):
    code, _, err = run(capsys, "table", "--sign", "+", "--p", "2", "--n", "17")
    assert code == 3
    assert "force" in err
    code, out, _ = run(capsys, "table", "--sign", "+", "--p", "2", "--n", "2", "--force")
    assert code == 0


def test_series_single_coefficient(capsys):
    code, out, _ = run(capsys, "series", "--sign", "+", "--p", "3", "--tprec", "1", "--pprec", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == [
        {"k": 0, "num": "1", "den": "3", "guaranteed_mod_p_pow": 4}
    ]


def test_series_record_count_and_determinism(capsys):
    argv = ["series", "--sign", "-", "--p", "2", "--tprec", "8", "--pprec", "6"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert len(payload["coeffs"]) == 8
    assert payload["sign"] == "-" and payload["p"] == 2


def test_series_rejects_bivariate_sign(capsys):
    code, _, _ = run(capsys, "series", "--sign", "++", "--p", "3")
    assert code == 2


def test_verify_oracle_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "oracle", "--p", "3", "--max-n", "4")
    assert code == 0
    report = json.loads(out)
    assert report["overall_pass"] is True
    assert report["suite"] == "oracle"
    assert len(report["cases"]) == 2 * (3 + 9 + 27 + 81)
    assert "ms" in err  # timing goes to stderr only


@pytest.mark.parametrize("suite", [*cli.SUITES, "all"])
def test_verify_counts_on_stderr_the_cases_it_writes(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--p", "3", "--max-n", "3")
    assert code == 0
    match = re.fullmatch(r"suite (\S+): (\d+) cases in [0-9]+\.[0-9] ms\n", err)
    assert match, err
    assert match[1] == suite
    assert int(match[2]) == len(json.loads(out)["cases"]) > 0


def test_verify_oracle_suite_refuses_past_the_cap_before_any_work(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--suite", "oracle", "--p", "2", "--max-n", "30")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "cap" in err


def test_verify_oracle_suite_cap_boundary_is_exact(capsys, monkeypatch):
    # p = 3 up to n = 2: 2 * (3 + 3) + 2 * (9 + 3) = 36 cosets folded and
    # product terms
    monkeypatch.setattr(base, "ENUMERATION_CAP", 36)
    code, _, _ = run(capsys, "verify", "--suite", "oracle", "--p", "3", "--max-n", "2")
    assert code == 0
    monkeypatch.setattr(base, "ENUMERATION_CAP", 35)
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--p", "3", "--max-n", "2")
    assert code == 3
    assert out == ""


def test_series_large_prime_in_bounded_time(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "series", "--sign", "+", "--p", "1000003", "--tprec", "8", "--pprec", "6")
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert json.loads(out)["coeffs"][0] == {
        "k": 0, "num": "1", "den": "1000003", "guaranteed_mod_p_pow": 6
    }


def test_series_at_a_large_prime_prints_each_residue_below_its_bound(capsys):
    # At 2^61 - 1 the dump prints each coefficient's residue below
    # p^(g + v), with v = v_p(den), and its denominator at most p^v.
    p = 2**61 - 1
    argv = ["series", "--sign", "-", "--p", str(p), "--tprec", "24", "--pprec", "24"]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 5.0
    assert (code, err) == (0, "")
    built = build_log_pm(Prime(p), Sign.MINUS, SeriesPrecision(24, 24))
    v = pval(built.den, p)
    coeffs = json.loads(out)["coeffs"]
    assert [c["guaranteed_mod_p_pow"] for c in coeffs] == [24] * 24
    for c in coeffs:
        assert 0 <= int(c["num"]) < p ** (c["guaranteed_mod_p_pow"] + v)
        assert 1 <= int(c["den"]) <= p**v


def test_series_print_limit_boundary_is_exact(capsys, monkeypatch):
    # The one gate admits p^(max g + v), which no printed integer exceeds,
    # and nothing longer; the limit is lowered so both sides print here.
    # In the first two runs the longest printed integer is as long as that
    # bound, so the gate sits at the largest printed integer.
    for p, sign, t_prec, p_prec, tight in (
        (5, "-", 24, 6, True),
        (2, "+", 8, 12, True),
        (3, "-", 24, 12, False),
    ):
        argv = ["series", "--sign", sign, "--p", str(p), "--tprec", str(t_prec)]
        argv += ["--pprec", str(p_prec)]
        monkeypatch.undo()
        code, out, _ = run(capsys, *argv)
        assert code == 0
        built = build_log_pm(Prime(p), Sign.from_str(sign), SeriesPrecision(t_prec, p_prec))
        bound = p ** dump_exponent(built)
        printed = [int(c[key]) for c in json.loads(out)["coeffs"] for key in ("num", "den")]
        assert max(printed) <= bound
        assert (len(str(max(printed))) == len(str(bound))) == tight
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: len(str(bound)))
        assert run(capsys, *argv) == (0, out, "")
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: len(str(bound)) - 1)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "exceeds the limit" in err and "decimal digits" in err


def test_print_limit_off_admits_any_exponent(monkeypatch):
    # A limit of 0 turns Python's check off, so the gate admits anything.
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    assert cli._require_printable(Prime(2), 10**6) is None


def test_verify_logproduct_suite(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "logproduct", "--p", "2", "--tprec", "10", "--pprec", "6"
    )
    assert code == 0
    report = json.loads(out)
    assert report["overall_pass"] is True
    assert len(report["cases"]) == 10


PAST_THE_OLD_FACTOR_CAP = [
    ["series", "--sign", "+", "--p", "3", "--tprec", "2", "--pprec", "3000"],
    ["series", "--sign", "-", "--p", "5", "--tprec", "3", "--pprec", "5000"],
    ["verify", "--suite", "logproduct", "--p", "3", "--tprec", "6", "--pprec", "130"],
]


@pytest.mark.parametrize(
    "argv", PAST_THE_OLD_FACTOR_CAP, ids=["series-3-2-3000", "series-5-3-5000", "logproduct-3-6-130"]
)
def test_series_past_64_factors_finish_at_their_precision(capsys, argv):
    # Each needs more than 64 factors, which a fixed factor cap once refused.
    p, t_prec, p_prec = (int(argv[argv.index(flag) + 1]) for flag in ("--p", "--tprec", "--pprec"))
    prec = SeriesPrecision(t_prec, p_prec)
    assert min(factor_count(Prime(p), sign, prec) for sign in Sign) > 64
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 5.0
    assert code == 0
    payload = json.loads(out)
    if argv[0] == "series":
        assert [c["guaranteed_mod_p_pow"] for c in payload["coeffs"]] == [p_prec] * t_prec
    else:
        assert payload["overall_pass"] is True and len(payload["cases"]) == t_prec


def test_series_cost_cap_boundary_is_exact(capsys, monkeypatch):
    # At (p, t_prec, p_prec) = (3, 6, 8), L = 1 and w = 1 for both signs, so
    # each logarithm takes (8 + 2 + 1 + 1 + parity) // 2 = 6 factors, and a
    # multiply is 6 * 7 / 2 = 21 coefficient products: 126 for one series,
    # and (6 + 6 + 1) * 21 = 273 for logproduct, alone or last in `all`.
    precision = ["--p", "3", "--tprec", "6", "--pprec", "8"]
    for argv, cost in (
        (["series", "--sign", "+", *precision], 126),
        (["series", "--sign", "-", *precision], 126),
        (["verify", "--suite", "logproduct", *precision], 273),
        (["verify", "--suite", "all", "--max-n", "1", *precision], 273),
    ):
        monkeypatch.undo()
        monkeypatch.setattr(base, "ENUMERATION_CAP", cost)
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setattr(base, "ENUMERATION_CAP", cost - 1)
        # refused before any factor is built, and before any suite of `all` runs
        monkeypatch.setattr(series, "phi_shifted", None)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err == (
            f"error: {cost} exceeds the enumeration cap of {cost - 1} coefficient products"
            " for the series at t_prec 6 and p_prec 8\n"
        )


def test_series_past_the_cost_cap_are_refused_at_once(capsys):
    # 20 multiplies of 2,001,000 coefficient products each, and a p_prec of
    # 4,000 digits: both are refused before any multiply.
    for argv in (
        ["verify", "--suite", "logproduct", "--p", "2", "--tprec", "2000", "--pprec", "1"],
        ["series", "--sign", "-", "--p", "2", "--tprec", "1", "--pprec", "10" * 2000],
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "") and "enumeration cap" in err


def test_verify_all_passes_and_is_deterministic(capsys):
    argv = ["verify", "--suite", "all", "--p", "2", "--max-n", "2"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["overall_pass"] is True
    assert "wall" not in out1  # no timing inside the report


def test_verify_failure_exit_code(capsys, monkeypatch):
    # force a disagreement to exercise the failing path
    def broken_oracle_level(sign, p, n):
        return [DistValue(Prime(int(p)), Fraction(1, int(p)))] * int(p) ** n

    monkeypatch.setattr(distribution, "mu_oracle_level", broken_oracle_level)
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--p", "3", "--max-n", "1")
    assert code == 1
    report = json.loads(out)
    assert report["overall_pass"] is False
    assert any(not c["pass"] for c in report["cases"])


def test_verify_rejects_sign_flag(capsys):
    code, _, err = run(capsys, "verify", "--suite", "oracle", "--p", "3", "--sign", "+")
    assert code == 2
    assert "sign" in err


def test_verify_refuses_a_max_n_below_one(capsys):
    for max_n in ("0", "-1"):
        argv = ["verify", "--suite", "oracle", "--p", "3", "--max-n", max_n]
        assert run(capsys, *argv) == (2, "", "error: --max-n must be >= 1\n")


def test_verify_rejects_unknown_suite(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "bogus", "--p", "3")
    assert code == 2


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert "pmlog" in out and "format" in out


def test_verify_additivity_suite_refuses_past_the_cap_before_any_work(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--suite", "additivity", "--p", "2", "--max-n", "18")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "cap" in err


def test_verify_additivity_suite_cap_boundary_is_exact(capsys, monkeypatch):
    # p = 3 up to n = 2: 2 * ((3 + 9) + (9 + 27)) = 96 valued cosets
    monkeypatch.setattr(base, "ENUMERATION_CAP", 96)
    code, _, _ = run(capsys, "verify", "--suite", "additivity", "--p", "3", "--max-n", "2")
    assert code == 0
    monkeypatch.setattr(base, "ENUMERATION_CAP", 95)
    code, out, _ = run(capsys, "verify", "--suite", "additivity", "--p", "3", "--max-n", "2")
    assert code == 3
    assert out == ""


@pytest.mark.parametrize("max_n,cases", [(6, 2 * 1092), (8, 2 * 9840)])
def test_verify_additivity_suite_runs_below_the_cap(capsys, max_n, cases):
    # 8,736 and 78,720 valued cosets
    code, out, _ = run(capsys, "verify", "--suite", "additivity", "--p", "3", "--max-n", str(max_n))
    assert code == 0
    assert len(json.loads(out)["cases"]) == cases


@pytest.mark.parametrize("suite", ["amice", "biamice"])
def test_verify_interpolation_suites_refuse_past_the_cap_before_any_work(capsys, suite):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--suite", suite, "--p", "2", "--max-n", "19")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "cap" in err


@pytest.mark.parametrize(
    "suite,cost",
    [
        # p = 3 up to n = 2, ring dimensions 2 and 6, supports p^f and p^c
        # with f = floor(n/2), c = ceil(n/2), 1 and 3 at n = 1, 3 and 3 at n = 2:
        # amice 8 n dim + (2n + 1)(p^f + p^c): (16 + 12) + (96 + 30)
        ("amice", 154),
        # biamice 4 (4n^2 + 2n) dim + (n + 1)^2 (p^f + p^c)^2 + (p^c + p^(f+1))^2:
        # (48 + 64 + 36) + (480 + 324 + 144)
        ("biamice", 1096),
    ],
)
def test_verify_interpolation_suite_cap_boundary_is_exact(capsys, monkeypatch, suite, cost):
    argv = ["verify", "--suite", suite, "--p", "3", "--max-n", "2"]
    monkeypatch.setattr(base, "ENUMERATION_CAP", cost)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(base, "ENUMERATION_CAP", cost - 1)
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert out == ""


@pytest.mark.parametrize(
    "suite,p,max_n,cases",
    [
        ("amice", 2, 6, 2 * 21),
        ("amice", 3, 4, 2 * 10),
        ("amice", 5, 3, 2 * 6),
        ("biamice", 2, 4, 4 * 30),
        ("biamice", 3, 3, 4 * 14),
        ("biamice", 2, 6, 4 * 91),
        # within the declared cost, so no cap of biamice_check's own refuses it
        ("biamice", 11, 3, 4 * 14),
    ],
)
def test_verify_interpolation_suites_run_below_the_cap(capsys, suite, p, max_n, cases):
    code, out, _ = run(capsys, "verify", "--suite", suite, "--p", str(p), "--max-n", str(max_n))
    assert code == 0
    report = json.loads(out)
    assert report["overall_pass"] is True
    assert len(report["cases"]) == cases


def test_forced_table_is_held_to_the_enumeration_cap(capsys):
    # --force lifts the row cap, but one level is valued at once, so its
    # coset count stays within the enumeration cap.
    code, out, err = run(capsys, "table", "--sign", "+", "--p", "2", "--n", "21", "--force")
    assert code == 3
    assert out == ""
    assert "cap" in err


def test_forced_two_variable_table_is_held_to_the_enumeration_cap(capsys):
    # Each coordinate has 2^19 cosets, within the cap; the 2^38 pairs are not.
    start = time.perf_counter()
    argv = ["table", "--sign", "++", "--p", "2", "--n", "19", "--m", "19", "--force"]
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == "error: 2^38 exceeds the enumeration cap of 1000000 rows\n"


@pytest.mark.parametrize(
    "sizes, rows",
    [
        (["--sign", "+", "--n", "16000"], 16000),
        (["--sign", "++", "--n", "7000", "--m", "7000"], 14000),
    ],
)
def test_table_cap_names_the_row_count_by_its_exponent(capsys, sizes, rows):
    # 2^16000 has more decimal digits than Python prints; the message names
    # the count by its exponent instead, and the cap that --force cannot lift.
    start = time.perf_counter()
    code, out, err = run(capsys, "table", "--p", "2", *sizes)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == f"error: 2^{rows} exceeds the enumeration cap of 1000000 rows\n"


def test_table_caps_are_exact(capsys, monkeypatch):
    # With caps of 100 and 10 rows, 3^3 = 27 rows need --force and 3^5 = 243
    # are refused even with it, for one variable and for two (m = 1).
    monkeypatch.setattr(base, "ENUMERATION_CAP", 100)
    monkeypatch.setattr(cli, "TABLE_ROW_CAP", 10)
    refused = {3: "table cap of 10 rows without --force", 5: "enumeration cap of 100 rows"}
    for sign, second in (("+", []), ("-+", ["--m", "1"])):
        for k, force in ((2, []), (3, []), (4, ["--force"]), (5, []), (5, ["--force"])):
            n = str(k - len(second) // 2)
            argv = ["table", "--sign", sign, "--p", "3", "--n", n, *second, *force]
            code, out, err = run(capsys, *argv)
            if k in refused:
                assert (code, out, err) == (3, "", f"error: 3^{k} exceeds the {refused[k]}\n")
            else:
                assert code == 0 and len(out.splitlines()) == 3**k + 1


COORDINATE_ERRORS = [
    (["value", "--sign", "+", "--m", "1"], "--m and --b require a two-character sign"),
    (["value", "--sign", "-", "--b", "0"], "--m and --b require a two-character sign"),
    (["value", "--sign", "+", "--m", "1", "--b", "0"], "--m and --b require a two-character sign"),
    (["value", "--sign", "++", "--m", "1"], "bivariate signs require --m and --b"),
    (["value", "--sign", "-+", "--b", "0"], "bivariate signs require --m and --b"),
    (["value", "--sign", "--"], "bivariate signs require --m and --b"),
    (["bivalue", "--sign", "+-", "--m", "1"], "bivariate signs require --m and --b"),
    (["bivalue", "--sign", "--", "--b", "0"], "bivariate signs require --m and --b"),
    (["table", "--sign", "-", "--m", "1"], "--m requires a two-character sign"),
    (["table", "--sign", "+-"], "bivariate signs require --m"),
]


@pytest.mark.parametrize("argv, message", COORDINATE_ERRORS)
def test_coordinate_flags_are_checked_with_their_messages(capsys, argv, message):
    rest = ["--p", "3", "--n", "1"] + (["--a", "0"] if argv[0] != "table" else [])
    assert run(capsys, *argv, *rest) == (2, "", f"error: {message}\n")


def reference_table(sign, p, n, m=None):
    """The table a per-coset scan writes: the csv module over each coset's
    digits and its mu_value, or for two variables the product of the
    coordinates' values, as bimu_value takes it."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")

    def cells(v):
        return ["true" if v else "false", v.numerator, v.denominator]

    def digits(r):
        return "|".join(map(str, r.digits))

    if m is None:
        sign = Sign.from_str(sign)
        writer.writerow(["a", "digits", "in_S", "value_num", "value_den"])
        for a in range(p**n):
            r = residue_from_integer(a, p, n)
            writer.writerow([a, digits(r), *cells(mu_value(sign, r).value)])
    else:
        sign = tuple(map(Sign.from_str, sign))
        writer.writerow(["a", "b", "digits", "in_S", "value_num", "value_den"])
        # bimu_value is the product of the coordinates' mu_value; each
        # coordinate's coset is valued once, and each pair multiplied.
        second = []
        for b in range(p**m):
            rb = residue_from_integer(b, p, m)
            second.append((digits(rb), mu_value(sign[1], rb).value))
        for a in range(p**n):
            ra = residue_from_integer(a, p, n)
            va, digits_a = mu_value(sign[0], ra).value, digits(ra)
            for b, (digits_b, vb) in enumerate(second):
                writer.writerow([a, b, f"{digits_a}/{digits_b}", *cells(va * vb)])
    return out.getvalue()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_table_matches_a_per_coset_scan(capsys, p):
    # Every sign, and every n (and m) with p^(n+m) <= 5000: odd and even n,
    # n below, at and above m, and a one-digit level, whose upper half of
    # digits is empty.
    shapes = [(sign, n, None) for sign in "+-" for n in range(1, 13) if p**n <= 5000]
    shapes += [
        (sign, n, m)
        for sign in ("++", "+-", "-+", "--")
        for n in range(1, 13)
        for m in range(1, 13)
        if p ** (n + m) <= 5000
    ]
    for sign, n, m in shapes:
        argv = ["table", "--sign", sign, "--p", str(p), "--n", str(n)]
        code, out, _ = run(capsys, *argv, *(["--m", str(m)] if m else []))
        assert code == 0
        assert out == reference_table(sign, Prime(p), n, m), (sign, n, m)


@pytest.mark.parametrize("p,max_n", [(2, 6), (3, 4), (5, 3), (7, 2)])
def test_level_suites_match_per_coset_references(capsys, p, max_n):
    # The oracle and additivity rows against the same rows built coset by
    # coset from mu_oracle and mu_value.
    argv = ["verify", "--p", str(p), "--max-n", str(max_n)]
    prime, oracle, additivity = Prime(p), [], []
    for sign in Sign:
        for n in range(1, max_n + 1):
            for a in range(p**n):
                r = residue_from_integer(a, prime, n)
                expected, actual = mu_oracle(sign, r).value, mu_value(sign, r).value
                oracle.append([f"oracle: sign={sign} n={n} a={a}", expected, actual])
                children = [residue_from_integer(a + j * p**n, prime, n + 1) for j in range(p)]
                total = sum((mu_value(sign, c).value for c in children), Fraction(0))
                label = f"additivity: n={n} sign={sign} a={a} mod {p}^{n}"
                additivity.append([label, actual, total])
    for suite, reference in (("oracle", oracle), ("additivity", additivity)):
        code, out, _ = run(capsys, *argv, "--suite", suite)
        assert code == 0
        assert [list(c.values()) for c in json.loads(out)["cases"]] == [
            [label, str(x), str(y), x == y] for label, x, y in reference
        ]


def test_forced_table_streams_its_rows():
    # A forced table is written a block of rows at a time: its allocation
    # peak stays within twice that of the level's values alone, where one
    # string of the whole table would be several times the size.
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    argv = ["table", "--sign", "+", "--p", "3", "--n", "10", "--force"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        table = peak(lambda: cli.main(argv))
    level = peak(lambda: mu_level(Sign.PLUS, Prime(3), 10))
    assert table <= 2 * level, (table, level)


VALID_CALLS = {
    "value": ["--sign", "-", "--p", "3", "--n", "2", "--a", "2", "--oracle"],
    "bivalue": ["--sign", "+-", "--p", "3", "--n", "2", "--m", "1", "--a", "3", "--b", "0"],
    "table": ["--sign", "+", "--p", "2", "--n", "3"],
    "series": ["--sign", "+", "--p", "3", "--tprec", "4", "--pprec", "3"],
    "verify": ["--suite", "additivity", "--p", "2", "--max-n", "2"],
}


def without(argv, flag):
    i = argv.index(flag)
    return argv[:i] + argv[i + 2 :]


def parity_argvs(command):
    """-h, a valid call, then calls that fail: a missing required flag, a bad
    int, an unknown option, --version after the command, --sign without a
    value, an ambiguous option; last, --sign moved before the command."""
    valid = VALID_CALLS[command]
    sign = valid[valid.index("--sign") + 1] if "--sign" in valid else "+"
    return [
        [command, "-h"],
        [command, *valid],
        [command, *without(valid, "--p")],
        [command, *without(valid, "--p"), "--p", "x"],
        [command, *valid, "--bogus"],
        [command, *valid, "--version"],
        [command, "--version"],
        [command, *valid, "--sign"],
        [command, "--=x", *valid],
        ["--sign", sign, command, *(without(valid, "--sign") if "--sign" in valid else valid)],
    ]


def run_untimed(capsys, argv):
    # run(), with verify's wall time on stderr masked
    code, out, err = run(capsys, *argv)
    return code, out, re.sub(r"in [0-9.]+ ms", "in T ms", err)


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_command_parser_matches_the_full_parser(capsys, monkeypatch, command):
    # Each call runs twice: through main()'s own parsing (the scanner, then
    # the full parser), then with the full build_parser() tree for every call.
    argvs = parity_argvs(command)
    calls = []
    real_build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or real_build_parser())
    per_command = [run_untimed(capsys, argvs[0])]
    calls.clear()
    per_command.append(run_untimed(capsys, argvs[1]))
    assert not calls  # a valid call never builds the full tree
    per_command += [run_untimed(capsys, argv) for argv in argvs[2:]]
    monkeypatch.setattr(cli, "_parse", lambda rest: real_build_parser().parse_args(rest))
    full = [run_untimed(capsys, argv) for argv in argvs]
    for argv, mine, theirs in zip(argvs, per_command, full):
        assert mine == theirs, argv
    codes = [code for code, _, _ in full]
    assert codes == [0, 0] + [2] * 7 + [2 if command == "verify" else 0]


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_command_help_follows_the_terminal_width(capsys, monkeypatch, command, columns):
    monkeypatch.setenv("COLUMNS", columns)
    mine = run(capsys, command, "-h")
    full_parser = cli.build_parser()
    monkeypatch.setattr(cli, "_parse", lambda rest: full_parser.parse_args(rest))
    assert mine == run(capsys, command, "-h")


def scan(argv):
    """The scanner's namespace for a `pmlog` argv, or None when it is unsure."""
    rest, _ = cli._extract_sign(list(argv))
    command = cli.COMMANDS.get(rest[0]) if rest else None
    return None if command is None else cli._scan(rest[0], command, rest[1:])


def load_perfbench(name):
    # A module of the benchmark harness, loaded by path and only read.
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def workload_argvs():
    # The benchmark's invocations, from its workload module.
    workloads = load_perfbench("workloads")
    return [
        argv
        for workload in workloads.WORKLOADS
        for seed in (1, 2, 3)
        for argv in workloads.invocations(workload, seed)
    ]


def test_benchmark_traces_every_layer_it_names():
    # A renamed or removed function would leave its layer's metrics at 0.
    layertrace = load_perfbench("layertrace")
    patches, missing = layertrace.install(layertrace.Tracer())
    try:
        assert missing == []
    finally:
        layertrace.restore(patches)


def test_no_source_line_is_longer_than_100_characters():
    # Keeps a line-count budget for src/ from being met by joining lines.
    long = [
        f"{path.name}:{number}"
        for path in sorted(Path(cli.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 100
    ]
    assert long == []


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module


def test_no_source_module_imports_dataclasses():
    # Importing dataclasses (and with it inspect, ast, dis and tokenize)
    # took longer than all of pmlog's own modules; the value classes are
    # slotted classes instead.
    importers = [
        path.name
        for path in sorted(Path(cli.__file__).parent.glob("*.py"))
        if any(
            name.split(".")[0] == "dataclasses"
            for name in imported_modules(ast.parse(path.read_text()))
        )
    ]
    assert importers == []


def test_value_classes_name_and_store_each_field_once():
    # Each value class names its fields in its class statement and has
    # __slots__ = (): its fields are read-only properties over Value's one
    # field tuple, and its instances have no __dict__.  Only base.py stores
    # past Value.__setattr__.
    declared, setters = {}, []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        source = path.read_text()
        if path.name != "base.py" and "object.__setattr__" in source:
            setters.append(path.name)
        for node in ast.walk(ast.parse(source)):
            bases = [getattr(base, "id", "") for base in getattr(node, "bases", ())]
            if isinstance(node, ast.ClassDef) and "Value" in bases:
                keywords = {k.arg: ast.literal_eval(k.value) for k in node.keywords}
                declared[node.name] = keywords.get("fields", ())
    assert setters == []
    classes = {c.__name__: c for c in Value.__subclasses__() if c.__module__.startswith("pmlog.")}
    assert len(classes) == 7 and set(declared) == set(classes)
    for name, cls in classes.items():
        assert declared[name], name
        assert vars(cls).get("__slots__") == () and cls.__dictoffset__ == 0, name
        assert all(isinstance(vars(cls).get(field), property) for field in declared[name]), name


def test_setup_loads_every_module_but_not_dataclasses_or_inspect():
    # What `import pmlog.cli` and one build_parser() add to sys.modules in a
    # fresh isolated interpreter: every pmlog module, none of them deferred,
    # and neither dataclasses nor inspect.
    package = Path(cli.__file__).resolve().parent
    code = (
        "import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
        "import pmlog.cli; pmlog.cli.build_parser(); "
        "print(*sorted(set(sys.modules) - before))"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-c", code, str(package.parent)],
        capture_output=True,
        text=True,
        check=True,
    )
    added = set(run.stdout.split())
    modules = {path.stem for path in package.glob("*.py")} - {"__init__", "__main__"}
    assert {"pmlog"} | {f"pmlog.{name}" for name in modules} <= added
    assert added & {"dataclasses", "inspect"} == set()


def fuzz_argvs(count):
    rng = random.Random("scanner differential")
    draws = [well_formed(rng) for _ in range(count)]
    return draws + [sloppy(rng, argv) for argv in draws]


def test_scanner_matches_the_full_parser():
    full_parser = cli.build_parser()
    workloads = workload_argvs()
    accepted = 0
    for argv in workloads + fuzz_argvs(1500):
        try:
            args = scan(argv)
        except ValueError:  # --sign without a value: main() reports it first
            continue
        if args is None:
            continue
        accepted += 1
        rest, _ = cli._extract_sign(list(argv))
        try:
            expected = full_parser.parse_args(rest)
        except SystemExit:
            pytest.fail(f"the scanner accepted {argv}, which argparse refuses")
        assert vars(args) == vars(expected), argv
    assert all(scan(argv) is not None for argv in workloads)
    assert accepted > len(workloads) + 1000


VALUE_CALL = ["value", "--sign", "-", "--p", "3", "--n", "2", "--a", "5"]


def with_a(value):
    return [*VALUE_CALL[:-1], value]


REFUSED = [
    ["value", "--sign", "-", "--p=3", "--n", "2", "--a", "5"],
    [*VALUE_CALL, "--orac"],
    [*VALUE_CALL, "--oracle", "--oracle"],
    ["value", "--sign", "-", "--p", "2", "--p", "3", "--n", "2", "--a", "5"],
    with_a("-1"),
    with_a("+5"),
    with_a(" 5"),
    with_a("5_0"),
    with_a("\u0663"),
    with_a("7" * 5000),
    with_a(""),
    ["verify", "--suite", "bogus", "--p", "2"],
    [*VALUE_CALL, "--"],
    ["value", "-h"],
    VALUE_CALL[:-2],
]


@pytest.mark.parametrize("argv", REFUSED, ids=range(len(REFUSED)))
def test_scanner_refuses_what_it_does_not_know(capsys, monkeypatch, argv):
    assert scan(argv) is None
    mine = run_untimed(capsys, argv)
    monkeypatch.setattr(cli, "_parse", lambda rest: cli.build_parser().parse_args(rest))
    assert mine == run_untimed(capsys, argv)


def test_well_formed_calls_build_no_parser(capsys, monkeypatch):
    calls = []
    real_add_argument = argparse.ArgumentParser.add_argument

    def add_argument(*args, **kwargs):
        calls.append(args)
        return real_add_argument(*args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", add_argument)
    for command, argv in VALID_CALLS.items():
        assert cli.main([command, *argv]) == 0
    assert calls == []
    cli.main(["value", "-h"])  # a call the scanner leaves to argparse
    assert calls
    capsys.readouterr()


def closed_pipe_run(argv, env, read_first_line):
    # `pmlog argv` with its stdout a pipe that the reader closes, after one
    # line or before the program starts; (exit code, stderr lines).
    src = str(Path(cli.__file__).resolve().parents[1])
    command = [sys.executable, "-m", "pmlog", *argv]
    env = {**env, "PYTHONPATH": src}
    if read_first_line:
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline()
        proc.stdout.close()
    else:
        # The read end is closed before the program starts, so no write
        # can reach a reader, however early it comes.
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.Popen(command, stdout=write, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write)
    _, err = proc.communicate(timeout=60)
    return proc.returncode, err.decode().splitlines()


CLOSED = ["error: standard output was closed before all output was written"]


def test_a_closed_stdout_in_process_leaves_no_descriptor_open(capsys, monkeypatch):
    # main points stdout's descriptor at os.devnull and closes the one it
    # opened for that, so the lowest free descriptor is the same after.
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

        def fileno(self):
            return target

    target = os.open(os.devnull, os.O_WRONLY)
    try:
        probe = os.open(os.devnull, os.O_RDONLY)
        os.close(probe)
        monkeypatch.setattr(sys, "stdout", Closed())
        assert cli.main(["value", "--sign", "+", "--p", "3", "--n", "2", "--a", "0"]) == 3
        monkeypatch.undo()
        after = os.open(os.devnull, os.O_RDONLY)
        os.close(after)
        assert after == probe
    finally:
        os.close(target)
    assert capsys.readouterr().err.splitlines() == CLOSED


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--sign", "+", "--p", "3", "--n", "8"],
        ["verify", "--suite", "oracle", "--p", "3", "--max-n", "6"],
    ],
)
def test_closed_stdout_is_reported_without_a_traceback(argv):
    # Read one line and close the pipe, as `pmlog ... | head -1` does; the
    # output is far larger than the pipe holds.
    assert closed_pipe_run(argv, os.environ, read_first_line=True) == (3, CLOSED)


@pytest.mark.parametrize(
    "argv",
    [
        ["value", "--sign", "+", "--p", "3", "--n", "4", "--a", "0"],
        ["table", "--sign", "+", "--p", "3", "--n", "2"],
        ["series", "--sign", "-", "--p", "3", "--tprec", "4"],
    ],
)
@pytest.mark.parametrize("buffered", [True, False])
def test_a_small_output_to_a_closed_pipe_is_reported_without_a_traceback(argv, buffered):
    # With stdout buffered the whole output fits in the buffer, so only a
    # flush meets the closed pipe: main's own, which it reports, and not
    # the one at exit, which would print "Exception ignored" and exit 120.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    assert closed_pipe_run(argv, env, read_first_line=False) == (3, CLOSED)
