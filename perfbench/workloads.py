"""The benchmark's workloads: fixed pmlog invocation lists plus seeded extras.

A workload is the list of argv vectors one pass hands to ``pmlog.cli.main``.
The seed decides the point-query mix of ``scan`` and the order of the
invocations within a pass; the same (workload, seed) always gives the same
list.  Every invocation here is one the program should answer with exit 0.
"""

from __future__ import annotations

import random


def _verify(suite: str, p: int, **opts: int) -> list[str]:
    argv = ["verify", "--suite", suite, "--p", str(p)]
    for key, value in opts.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


# Why each workload exists is recorded in BENCHMARK.json and README.md.
FIXED: dict[str, list[list[str]]] = {
    # The coset-pair scan: bivariate, distribution.integrate/StepFunction
    # and the cyclotomic ring operations; the series layer is idle.
    "interp": [
        _verify("amice", 2, max_n=6),
        _verify("amice", 3, max_n=4),
        _verify("amice", 5, max_n=3),
        _verify("biamice", 2, max_n=4),
        _verify("biamice", 3, max_n=3),
    ],
    # TruncatedSeries multiplication and p-adic valuations; the coset
    # layers are idle.
    "series": [
        _verify("logproduct", 2, tprec=40, pprec=24),
        _verify("logproduct", 3, tprec=32, pprec=16),
        _verify("logproduct", 7, tprec=24, pprec=10),
        ["series", "--sign", "+", "--p", "2", "--tprec", "48", "--pprec", "32"],
    ],
    # Per-coset evaluation and the character-sum oracle, which must keep
    # scanning every coset; the point queries add per-call CLI overhead.
    "scan": [
        _verify("oracle", 3, max_n=6),
        _verify("oracle", 5, max_n=4),
        _verify("additivity", 3, max_n=6),
        ["table", "--sign", "+", "--p", "3", "--n", "8"],
        ["table", "--sign", "-+", "--p", "3", "--n", "3", "--m", "3"],
    ],
}

WORKLOADS = tuple(FIXED)

POINT_QUERIES = 300
POINT_PRIMES = (2, 3, 5, 7)
POINT_MAX_EXP = 6


def _support_member(rng: random.Random, sign: str, p: int, n: int) -> int:
    # A residue in the support of the sign's distribution: the digits at the
    # positions the digit rule tests are zero, the others are random.
    zero_parity = 0 if sign == "+" else 1
    a = 0
    for pos in range(n):
        if pos % 2 != zero_parity:
            a += rng.randrange(p) * p**pos
    return a


def _coset(rng: random.Random, sign: str, p: int, n: int) -> int:
    # Half the queries hit the support, so both value branches are exercised.
    if rng.random() < 0.5:
        return _support_member(rng, sign, p, n)
    return rng.randrange(p**n)


def point_queries(rng: random.Random, count: int) -> list[list[str]]:
    """``value --oracle`` and ``bivalue --oracle`` queries with small p, n, m.

    The oracle's cost depends on (command, sign, p, n, m) but not on the
    residue, so those shapes come from a fixed stream and only the residues
    come from ``rng``: every seed then asks for the same amount of work.
    """
    shapes = random.Random("point-query shapes")
    queries = []
    for _ in range(count):
        p = shapes.choice(POINT_PRIMES)
        n = shapes.randint(1, POINT_MAX_EXP)
        if shapes.random() < 0.5:
            sign = shapes.choice("+-")
            a = _coset(rng, sign, p, n)
            queries.append(
                ["value", "--sign", sign, "--p", str(p), "--n", str(n), "--a", str(a), "--oracle"]
            )
        else:
            sign = shapes.choice(("++", "+-", "-+", "--"))
            m = shapes.randint(1, POINT_MAX_EXP)
            a = _coset(rng, sign[0], p, n)
            b = _coset(rng, sign[1], p, m)
            queries.append(
                ["bivalue", "--sign", sign, "--p", str(p), "--n", str(n), "--m", str(m),
                 "--a", str(a), "--b", str(b), "--oracle"]
            )
    return queries


def invocations(workload: str, seed: int) -> list[list[str]]:
    """The argv list one pass of ``workload`` runs, in order, for ``seed``."""
    if workload not in FIXED:
        raise ValueError(f"unknown workload {workload!r} (expected one of {', '.join(WORKLOADS)})")
    # A string seed is hashed with SHA-512, so the stream does not depend
    # on PYTHONHASHSEED.
    rng = random.Random(f"{workload}:{seed}")
    argvs = [list(argv) for argv in FIXED[workload]]
    if workload == "scan":
        argvs += point_queries(rng, POINT_QUERIES)
    rng.shuffle(argvs)
    return argvs
