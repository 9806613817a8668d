"""Command-line front end: value queries, coset tables, series dumps, and
the identity verification suites.

JSON and CSV go to standard output; diagnostics and timings go to standard
error.  Exit codes: 0 success, 1 verification failure, 2 usage error,
3 resource cap hit, or standard output closed early.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import __version__
from .base import ResourceCapError, Sign, check_cap
from .bivariate import bimu_oracle, bimu_value
from .digits import Prime, digit_strings, residue_from_integer
from .distribution import digit_test_level, mass_exponent, mu_oracle, mu_value
# VerificationReport is also read from this module by the benchmark's self-test.
from .report import VerificationReport, write_report  # noqa: F401
from .series import DEFAULT_P_PREC, DEFAULT_T_PREC, SeriesPrecision, build_log_pm
from .series import dump_dict, dump_exponent, require_within_cap
from .suites import SUITES, run_suite

FORMAT_VERSION = "4"
TABLE_ROW_CAP = 10**5

UNIVARIATE_SIGNS = ("+", "-")
BIVARIATE_SIGNS = ("++", "+-", "-+", "--")
ALL_SIGNS = UNIVARIATE_SIGNS + BIVARIATE_SIGNS


def _extract_sign(argv: list[str]) -> tuple[list[str], str | None]:
    # argparse mangles option values that look like "--" or "-+", so the
    # sign flag is pulled out before parsing and validated per command.
    rest: list[str] = []
    sign: str | None = None
    tokens = iter(argv)
    for tok in tokens:
        if tok == "--sign":
            sign = next(tokens, None)
            if sign is None:
                raise ValueError("--sign requires a value")
        elif tok.startswith("--sign="):
            sign = tok[len("--sign=") :]
        else:
            rest.append(tok)
    return rest, sign


def _require_sign(token: str | None, allowed: tuple[str, ...]) -> str:
    if token is None:
        raise ValueError(f"--sign is required (one of {', '.join(allowed)})")
    if token not in allowed:
        raise ValueError(f"unknown sign {token!r} (expected one of {', '.join(allowed)})")
    return token


# Each command's flags, in the order its help lists them, as (flag, dest,
# kind, required, default, help): kind is int, a tuple of choices, or bool
# for a store_true switch.  build_parser() and _scan() both read these.
_P = ("--p", "p", int, True, None, None)
_N = ("--n", "n", int, True, None, None)
_M = ("--m", "m", int, False, None, "second modulus exponent (bivariate signs)")
_TPREC = ("--tprec", "tprec", int, False, DEFAULT_T_PREC, None)
_PPREC = ("--pprec", "pprec", int, False, DEFAULT_P_PREC, None)
_VALUE_FLAGS = (
    _P,
    _N,
    _M,
    ("--a", "a", int, True, None, None),
    ("--b", "b", int, False, None, "second coordinate (bivariate signs)"),
    ("--oracle", "oracle", bool, False, False, "also run the character-sum oracle"),
)
_TABLE_FLAGS = (_P, _N, _M, ("--force", "force", bool, False, False, "override the row cap"))
_SERIES_FLAGS = (_P, _TPREC, _PPREC)
_VERIFY_FLAGS = (
    ("--suite", "suite", (*SUITES, "all"), True, None, None),
    _P,
    ("--max-n", "max_n", int, False, 3, None),
    _TPREC,
    _PPREC,
)


def _require_printable(p: Prime, exponent: int) -> None:
    # Printed integers are at most p^exponent: refuse one past the int-to-str limit.
    limit = sys.get_int_max_str_digits()
    # Its decimal length, up to rounding; past 4 limit, p^e >= 2^e > 10^limit.
    digits = exponent * math.log10(p) if exponent <= 4 * limit else math.inf
    if limit == 0 or digits < limit - 1:
        return
    if digits > limit + 1 or p**exponent >= 10**limit:
        raise ResourceCapError(
            f"{p}^{exponent} exceeds the limit of {limit} decimal digits"
            " for printing an integer"
        )


def _coordinates(args, p: Prime, flags: tuple[str, ...]) -> tuple[tuple[Sign, ...], int]:
    # A query's signs, one per coordinate, and the exponent e of its mass
    # 1/p^e.  The flags of a second coordinate (--m, and --b for a value)
    # are given with a two-character sign and only then, each coordinate's
    # exponent is at least 1, and 1/p^e must be printable: the exponents
    # are checked before any cap or gate that their sizes could trip.
    signs = tuple(map(Sign.from_str, args.sign))
    given = [getattr(args, flag) is not None for flag in flags]
    named = " and ".join(f"--{flag}" for flag in flags)
    if len(signs) == 1 and any(given):
        verb = "requires" if len(flags) == 1 else "require"
        raise ValueError(f"{named} {verb} a two-character sign")
    if len(signs) == 2 and not all(given):
        raise ValueError(f"bivariate signs require {named}")
    exponents = (args.n, args.m)[: len(signs)]
    for flag, exponent in zip("nm", exponents):
        if exponent < 1:
            raise ValueError(f"modulus exponent {flag} must be >= 1")
    e = sum(map(mass_exponent, signs, exponents))
    _require_printable(p, e)
    return signs, e


def cmd_value(args) -> int:
    p = Prime(args.p)
    signs, _ = _coordinates(args, p, ("m", "b"))
    if len(signs) == 1:
        sign, r = signs[0], residue_from_integer(args.a, p, args.n)
        value_of, oracle_of, labels = mu_value, mu_oracle, {}
    else:
        sign = signs
        r = residue_from_integer(args.a, p, args.n), residue_from_integer(args.b, p, args.m)
        value_of, oracle_of, labels = bimu_value, bimu_oracle, {"sign": args.sign}
    value = value_of(sign, r)
    out = {**value.to_json_dict(), **labels}
    if args.oracle:
        oracle = oracle_of(sign, r)
        out = {
            "value": out,
            "oracle": {**oracle.to_json_dict(), **labels},
            "agree": value.value == oracle.value,
        }
    print(json.dumps(out))
    return 0


def cmd_table(args) -> int:
    p = Prime(args.p)
    signs, e = _coordinates(args, p, ("m",))
    # p^k rows: --force lifts the table cap, never the enumeration cap.
    k = args.n if len(signs) == 1 else args.n + args.m
    check_cap(p, k, "rows")
    if not args.force:
        check_cap(p, k, "rows without --force", TABLE_ROW_CAP, "table cap")
    out = sys.stdout
    # The in_S, value_num and value_den fields and the line end of a coset
    # without mass; a coset with mass has in_S true and value 1/p^e.  Each
    # text is built once and placed at every coset by the digit test.
    zero = "false,0,1\n"
    if len(signs) == 1:
        texts = digit_test_level(signs[0], p, args.n, f"true,1,{p**e}\n", zero)
        # a = lo + p^h hi, so its digits are lo's, then hi's: one block of
        # rows per hi, written as it is built.
        h = (args.n + 1) // 2
        low, width = digit_strings(p, h), p**h
        out.write("a,digits,in_S,value_num,value_den\n")
        for hi, high in enumerate(digit_strings(p, args.n - h)):
            start, high = hi * width, f"|{high}" if high else ""
            block = zip(range(start, start + width), low, texts[start : start + width])
            out.writelines([f"{a},{lo}{high},{text}" for a, lo, text in block])
    else:
        # A pair carries mass when both coordinates do.  A row is "a,b,<a's
        # digits>/" then an end, "<b's digits>,in_S,value_num,value_den",
        # that depends on b and on whether a carries mass: one list of ends
        # for each case, placed at every a by the digit test.
        inside = digit_test_level(signs[1], p, args.m, f"true,1,{p**e}\n", zero)
        b_digits = digit_strings(p, args.m)
        with_mass = [f"{digits},{text}" for digits, text in zip(b_digits, inside)]
        without = [f"{digits},{zero}" for digits in b_digits]
        ends = digit_test_level(signs[0], p, args.n, with_mass, without)
        out.write("a,b,digits,in_S,value_num,value_den\n")
        for a, (digits, end) in enumerate(zip(digit_strings(p, args.n), ends, strict=True)):
            out.writelines([f"{a},{b},{digits}/{text}" for b, text in enumerate(end)])
    return 0


def cmd_series(args) -> int:
    p = Prime(args.p)
    sign = Sign.from_str(args.sign)
    prec = SeriesPrecision(t_prec=args.tprec, p_prec=args.pprec)
    require_within_cap(p, (sign,), prec)
    # Every dump prints p^(p_prec + 1) or more: its constant term is 1/p.
    _require_printable(p, prec.p_prec + 1)
    series = build_log_pm(p, sign, prec)
    _require_printable(p, dump_exponent(series))
    print(json.dumps(dump_dict(series, sign), indent=2))
    return 0


def cmd_verify(args) -> int:
    p = Prime(args.p)
    if args.max_n < 1:
        raise ValueError("--max-n must be >= 1")
    prec = SeriesPrecision(t_prec=args.tprec, p_prec=args.pprec)
    started = time.perf_counter()
    report = run_suite(args.suite, p, args.max_n, prec)
    wall_time_ms = (time.perf_counter() - started) * 1000.0
    write_report(report, sys.stdout)
    cases = sum(len(index) for _, levels in report.blocks for *_, index in levels)
    print(f"suite {args.suite}: {cases} cases in {wall_time_ms:.1f} ms", file=sys.stderr)
    return 0 if report.passed else 1


_SIGN_EPILOG = "each of these commands also requires --sign {+,-,++,+-,-+,--}"

# Each command as (help, epilog, flags, func, signs), where signs is None for
# a command that takes no --sign.  Plain tuples: importing dataclasses costs
# more than all of pmlog does, and a NamedTuple class is compiled at import.
COMMANDS = {
    "value": (
        "distribution value of one coset (JSON)",
        _SIGN_EPILOG,
        _VALUE_FLAGS,
        cmd_value,
        ALL_SIGNS,
    ),
    "bivalue": (
        "two-variable value of one coset pair (JSON)",
        _SIGN_EPILOG,
        _VALUE_FLAGS,
        cmd_value,
        BIVARIATE_SIGNS,
    ),
    "table": ("one CSV row per coset", _SIGN_EPILOG, _TABLE_FLAGS, cmd_table, ALL_SIGNS),
    "series": (
        "dump a plus/minus logarithm series (JSON)",
        "requires --sign {+,-}",
        _SERIES_FLAGS,
        cmd_series,
        UNIVARIATE_SIGNS,
    ),
    "verify": (
        "run an identity verification suite (JSON report)", None, _VERIFY_FLAGS, cmd_verify, None
    ),
}


def _add_command(parser: argparse.ArgumentParser, command: tuple) -> None:
    _, _, flags, func, signs = command
    for flag, dest, kind, required, default, help in flags:
        if kind is bool:
            typed = {"action": "store_true"}
        else:
            typed = {"type": int} if kind is int else {"choices": kind}
        parser.add_argument(flag, dest=dest, required=required, default=default, help=help, **typed)
    parser.set_defaults(func=func, signs=signs)


def build_parser() -> argparse.ArgumentParser:
    """The full `pmlog` parser, with one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="pmlog",
        description="Exact plus/minus p-adic logarithms and their distributions.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"pmlog {__version__} (output format {FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        help, epilog, *_ = command
        _add_command(sub.add_parser(name, help=help, epilog=epilog), command)
    return parser


def _scan(name: str, command: tuple, tokens: list[str]) -> argparse.Namespace | None:
    # build_parser()'s namespace for a well-formed `pmlog <name> <tokens>`,
    # read from the command's flags without building a parser, or None when
    # unsure.  It reads exact `--flag value` pairs and switches, each at most
    # once, ints of ASCII digits and listed choices, and needs every required
    # flag; anything else is left to argparse, with its meaning and messages.
    _, _, flags, func, signs = command
    declared = {flag[0]: flag for flag in flags}
    values = {}
    stream = iter(tokens)
    for token in stream:
        flag = declared.get(token)
        if flag is None or flag[1] in values:
            return None
        _, dest, kind, _, _, _ = flag
        value = True if kind is bool else next(stream, "")
        if kind is int:
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # past the int-to-str digit limit
                return None
        elif kind is not bool and value not in kind:
            return None
        values[dest] = value
    for _, dest, _, required, default, _ in flags:
        if dest not in values:
            if required:
                return None
            values[dest] = default
    return argparse.Namespace(command=name, func=func, signs=signs, **values)


def _parse(rest: list[str]) -> argparse.Namespace:
    # A well-formed `pmlog <command> ...` is scanned without building a
    # parser; anything else goes to the full parser, so help, usage errors
    # and exit codes stay argparse's own.
    command = COMMANDS.get(rest[0]) if rest else None
    if command is not None:
        args = _scan(rest[0], command, rest[1:])
        if args is not None:
            return args
    return build_parser().parse_args(rest)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        rest, sign_token = _extract_sign(list(argv))
        try:
            args = _parse(rest)
        except SystemExit as exc:
            return int(exc.code or 0)
        if args.signs is None:
            if sign_token is not None:
                raise ValueError(f"{args.command} takes no --sign flag")
        else:
            args.sign = _require_sign(sign_token, args.signs)
        code = args.func(args)
        # An output that fits in a buffered stdout meets a closed pipe only
        # here, where the handler below can still report it.
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does.  The rest of its
        # buffer goes to os.devnull, so that the flush at exit stays quiet:
        # else a failed flush leaves its bytes to fail again at exit, which
        # prints "Exception ignored" and exits 120.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):  # no stdout, or no file behind it
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        print("error: standard output was closed before all output was written", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
