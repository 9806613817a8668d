"""Output checks for the benchmark's invocations.

The checks read what an invocation means, not its bytes, so a declared
output-format change that keeps the meaning still passes:

* verify reports exit 0, pass overall and case by case, and hold the
  number of cases their parameters imply;
* series dumps guarantee no fewer p-adic digits than the seed program did,
  and every digit they guarantee agrees with the seed program's run at
  higher precision;
* tables and point queries match the closed-form digit rule, recomputed
  here without the program.

``check(argv, exit_code, stdout)`` returns None for a correct output and a
reason otherwise.  Run ``python3 perfbench/checks.py record`` from the
repository root to re-record the series reference from ``src/``.
"""

from __future__ import annotations

import csv
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SERIES_REFERENCE = HERE / "series_reference.json"
# The reference also holds each series at this many more p-adic digits, so
# a dump that claims more digits than the seed program did is checked too.
TRUTH_MARGIN = 16


def _options(argv: list[str]) -> dict[str, str]:
    opts = {}
    for key, value in zip(argv[1:], argv[2:]):
        if key.startswith("--"):
            opts[key[2:]] = value
    return opts


def _digits(a: int, p: int, n: int) -> list[int]:
    a %= p**n
    out = []
    for _ in range(n):
        a, d = divmod(a, p)
        out.append(d)
    return out


def closed_form(sign: str, p: int, n: int, a: int) -> Fraction:
    """The distribution value of a + p^n Z_p by the paper's digit rule.

    Plus: p^-floor((n+2)/2) when every even-position digit of a vanishes.
    Minus: p^-floor((n+3)/2) when every odd-position digit vanishes.
    """
    tested = 0 if sign == "+" else 1
    if any(d for pos, d in enumerate(_digits(a, p, n)) if pos % 2 == tested):
        return Fraction(0)
    exponent = (n + 2) // 2 if sign == "+" else (n + 3) // 2
    return Fraction(1, p**exponent)


def _pval(q: Fraction, p: int) -> int:
    num, den, v = q.numerator, q.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _dist_value_error(got: dict, want: Fraction, p: int) -> str | None:
    value = Fraction(int(got["num"]), int(got["den"]))
    if value != want:
        return f"value {value} != {want}"
    if got["zero"] != (want == 0):
        return "zero flag disagrees with the value"
    if got["p_val"] != (None if want == 0 else _pval(want, p)):
        return f"p_val {got['p_val']} is wrong"
    return None


def _check_point(argv: list[str], out: dict) -> str | None:
    opts = _options(argv)
    p, sign = int(opts["p"]), opts["sign"]
    want = closed_form(sign[0], p, int(opts["n"]), int(opts["a"]))
    if argv[0] == "bivalue":
        want *= closed_form(sign[1], p, int(opts["m"]), int(opts["b"]))
    if out.get("agree") is not True:
        return "oracle and digit rule disagree"
    for route in ("value", "oracle"):
        if argv[0] == "bivalue" and out[route].get("sign") != sign:
            return f"{route} carries the wrong sign"
        error = _dist_value_error(out[route], want, p)
        if error:
            return f"{route}: {error}"
    return None


def _check_table(argv: list[str], stdout: str) -> str | None:
    opts = _options(argv)
    sign, p, n = opts["sign"], int(opts["p"]), int(opts["n"])
    rows = list(csv.reader(stdout.splitlines()))
    if len(sign) == 1:
        cosets = [(a,) for a in range(p**n)]
        exps = (n,)
        header = ["a", "digits", "in_S", "value_num", "value_den"]
    else:
        m = int(opts["m"])
        cosets = [(a, b) for a in range(p**n) for b in range(p**m)]
        exps = (n, m)
        header = ["a", "b", "digits", "in_S", "value_num", "value_den"]
    if not rows or rows[0] != header:
        return "unexpected table header"
    if len(rows) - 1 != len(cosets):
        return f"{len(rows) - 1} rows, expected {len(cosets)}"
    for row, coset in zip(rows[1:], cosets):
        k = len(coset)
        if tuple(int(x) for x in row[:k]) != coset:
            return f"row {row[:k]} out of order"
        want = Fraction(1)
        for s, e, a in zip(sign, exps, coset):
            want *= closed_form(s, p, e, a)
        digits = "/".join("|".join(map(str, _digits(a, p, e))) for e, a in zip(exps, coset))
        got = (row[k], row[k + 1], Fraction(int(row[k + 2]), int(row[k + 3])))
        if got != (digits, str(want != 0).lower(), want):
            return f"row {coset}: {row[k:]} disagrees with the digit rule"
    return None


def expected_case_count(suite: str, opts: dict[str, str]) -> int:
    p, max_n = int(opts["p"]), int(opts.get("max-n", 3))
    levels = range(1, max_n + 1)
    if suite in ("oracle", "additivity"):
        return 2 * sum(p**n for n in levels)
    if suite == "amice":
        return 2 * sum(levels)
    if suite == "biamice":
        return 4 * sum(n * n for n in levels)
    if suite == "logproduct":
        return int(opts["tprec"])
    raise ValueError(f"no case count for suite {suite!r}")


_BOUND = re.compile(r"v_p\(residual\) >= (-?\d+)")
_RESIDUAL = re.compile(r"v_p\(residual\) = (exact|-?\d+)")


def _case_holds(suite: str, case: dict) -> bool:
    if suite != "logproduct":
        return case["expected"] == case["actual"]
    bound = _BOUND.fullmatch(case["expected"])
    residual = _RESIDUAL.fullmatch(case["actual"])
    if not bound or not residual:
        return False
    return residual.group(1) == "exact" or int(residual.group(1)) >= int(bound.group(1))


def _check_report(argv: list[str], report: dict) -> str | None:
    opts = _options(argv)
    suite = opts["suite"]
    if report.get("suite") != suite or report["parameters"].get("p") != int(opts["p"]):
        return "report is for another suite or prime"
    if report.get("overall_pass") is not True:
        return "overall_pass is not true"
    cases = report["cases"]
    if len(cases) != expected_case_count(suite, opts):
        return f"{len(cases)} cases, expected {expected_case_count(suite, opts)}"
    for case in cases:
        if case["pass"] is not True or not _case_holds(suite, case):
            return f"case {case['input']!r} fails"
    return None


def series_dump_error(dump: dict, reference: dict) -> str | None:
    """None when ``dump`` guarantees at least the digits the reference
    program guaranteed at the same precision, and every digit it guarantees
    agrees with the reference's higher-precision run (as far as that run's
    own guarantees reach)."""
    for key in ("p", "sign", "t_prec", "p_prec"):
        if dump.get(key) != reference[key]:
            return f"{key} is {dump.get(key)!r}, expected {reference[key]!r}"
    p = reference["p"]
    coeffs = sorted(dump["coeffs"], key=lambda c: c["k"])
    if [c["k"] for c in coeffs] != list(range(reference["t_prec"])):
        return "coefficient indices are not 0 .. t_prec - 1"
    for c, floor, truth in zip(coeffs, reference["guarantees"], reference["truth"]):
        claimed = c["guaranteed_mod_p_pow"]
        if claimed < floor:
            return f"T^{c['k']}: guarantees {claimed} digits, the reference {floor}"
        checked = min(claimed, truth["guaranteed_mod_p_pow"])
        diff = Fraction(int(c["num"]), int(c["den"])) - Fraction(int(truth["num"]), int(truth["den"]))
        if diff != 0 and _pval(diff, p) < checked:
            return f"T^{c['k']}: wrong below p^{checked}"
    return None


def load_series_reference() -> dict:
    return json.loads(SERIES_REFERENCE.read_text())


def _check_series(argv: list[str], dump: dict) -> str | None:
    references = load_series_reference()
    key = " ".join(argv)
    if key not in references:
        return "no recorded reference for this series"
    return series_dump_error(dump, references[key])


def check(argv: list[str], exit_code: int, stdout: str) -> str | None:
    """None when the invocation's output is correct, else the reason it is not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        if argv[0] == "table":
            return _check_table(argv, stdout)
        out = json.loads(stdout)
        if argv[0] == "verify":
            return _check_report(argv, out)
        if argv[0] == "series":
            return _check_series(argv, out)
        return _check_point(argv, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def record_series_reference(root: Path) -> None:
    """Run every series dump the workloads use, at its own precision and at
    TRUTH_MARGIN more p-adic digits, and store what the checks need."""
    import contextlib
    import io

    from workloads import FIXED

    sys.path.insert(0, str(root / "src"))
    from pmlog import cli

    def dump(argv: list[str]) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if cli.main(argv) != 0:
                raise SystemExit(f"{' '.join(argv)} failed")
        return json.loads(out.getvalue())

    references = {}
    for argvs in FIXED.values():
        for argv in argvs:
            if argv[0] != "series":
                continue
            same = dump(argv)
            pprec = argv.index("--pprec") + 1
            finer = argv[:pprec] + [str(int(argv[pprec]) + TRUTH_MARGIN)] + argv[pprec + 1 :]
            references[" ".join(argv)] = {
                **{key: same[key] for key in ("p", "sign", "t_prec", "p_prec")},
                "guarantees": [c["guaranteed_mod_p_pow"] for c in same["coeffs"]],
                "truth": [
                    {key: c[key] for key in ("num", "den", "guaranteed_mod_p_pow")}
                    for c in dump(finer)["coeffs"]
                ],
            }
    SERIES_REFERENCE.write_text(json.dumps(references, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        raise SystemExit("usage: python3 perfbench/checks.py record")
    record_series_reference(HERE.parent)
