"""A bounded, seeded fuzz of the command line.

Random argv lists go through ``cli.main`` in this process, no subprocess.
Half of them are well-formed calls of the five commands with values from
small valid pools; the other half are the same calls with bad values,
dropped or stray tokens, or shuffled.  Every call must return an exit code
in 0-3, let no exception escape, and finish within CALL_LIMIT_S.

The sizes drawn stay small: p up to 13 (or 2^61 - 1), n and m up to 13
or of 309 or 4,290 digits, which the print gate refuses before any work,
--max-n up to 3, --tprec and --pprec up to 24, or 10^7, which the series
cost cap refuses at any p before any work.  Half the table calls add
`--force`, which lifts the table's row cap but not the enumeration cap on
its p^n or p^(n+m) rows, so a forced table stays bounded too.  Larger
sizes are the business of the cap tests in test_cli.py.
"""

import contextlib
import io
import random
import time

import pytest

import pmlog.cli as cli

SEED = 20171018
CALLS = 200
CALL_LIMIT_S = 10.0

PRIMES = ["2", "3", "5", "7", "13", "2305843009213693951"]
# Past 13, an n past a float's range and one near int()'s digit limit.
SIZES = ["1", "2", "3", "5", "13", "9" * 309, "9" * 4290]
RESIDUES = ["0", "1", "5", "100", "-1", "10000000000000000000000"]
PRECISIONS = ["1", "8", "24", "10000000"]
SUITES = ["oracle", "additivity", "amice", "biamice", "logproduct", "all"]
# What a sloppy draw puts in place of a value: out-of-range numbers, bad
# tokens, flags or signs where a value belongs, and ints that int() reads
# but plain ASCII digits do not spell, or that pass its digit limit.
BAD_VALUES = ["0", "-1", "-3", "4", "1", "x", "", "2.5", "1e3", "0x10", "bogus",
              "--", "-", "+", "+++", "--p", "-h", "+5", " 5", "5_0", "\u0663", "7" * 5000]
# What it inserts; an entry with a space goes in as that many tokens, so
# that a flag the call already has comes twice.
STRAY_TOKENS = ["--oracle", "-h", "--version", "--bogus", "--=x", "--", "--ora", "--max",
                "--sign", "--sign=+", "--sign=-+", "--m", "--b", "3", "valu", "verify",
                "--p=3", "--n=2", "--p 2", "--n 3", "--a 1", "--m 2", "--max-n 2"]


def well_formed(rng: random.Random) -> list[str]:
    """A call with every flag its command needs, each from its valid pool."""
    command = rng.choice(["value", "bivalue", "table", "series", "verify"])
    p = ["--p", rng.choice(PRIMES)]
    if command == "verify":
        return ["verify", "--suite", rng.choice(SUITES), *p, "--max-n", rng.choice("123"),
                "--tprec", rng.choice(PRECISIONS), "--pprec", rng.choice(PRECISIONS)]
    if command == "series":
        return ["series", "--sign", rng.choice("+-"), *p,
                "--tprec", rng.choice(PRECISIONS), "--pprec", rng.choice(PRECISIONS)]
    bivariate = command == "bivalue" or rng.random() < 0.4
    sign = rng.choice(["++", "+-", "-+", "--"] if bivariate else ["+", "-"])
    argv = [command, "--sign", sign, *p, "--n", rng.choice(SIZES)]
    if bivariate:
        argv += ["--m", rng.choice(SIZES)]
    if command == "table":
        if rng.random() < 0.5:
            argv.append("--force")
    else:
        argv += ["--a", rng.choice(RESIDUES)]
        if bivariate:
            argv += ["--b", rng.choice(RESIDUES)]
        if rng.random() < 0.5:
            argv.append("--oracle")
    return argv


def sloppy(rng: random.Random, argv: list[str]) -> list[str]:
    """The same call with bad values, dropped or stray tokens, or shuffled."""
    argv = list(argv)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(argv))
        kind = rng.random()
        if kind < 0.5:
            argv[i] = rng.choice(BAD_VALUES)
        elif kind < 0.75:
            del argv[i]
        else:
            argv[i:i] = rng.choice(STRAY_TOKENS).split(" ")
        if not argv:
            break
    if rng.random() < 0.1:
        rng.shuffle(argv)
    return argv


def random_argv(rng: random.Random) -> list[str]:
    argv = well_formed(rng)
    return sloppy(rng, argv) if rng.random() < 0.5 else argv


def test_cli_fuzz_exits_cleanly_in_bounded_time():
    rng = random.Random(SEED)
    codes = set()
    for _ in range(CALLS):
        argv = random_argv(rng)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(argv))
            except Exception as exc:
                pytest.fail(f"{argv} raised {exc!r}")
        elapsed = time.perf_counter() - start
        assert code in (0, 1, 2, 3), argv
        assert elapsed < CALL_LIMIT_S, (argv, elapsed)
        codes.add(code)
    assert {0, 2, 3} <= codes  # the draw reaches successes and both error kinds
