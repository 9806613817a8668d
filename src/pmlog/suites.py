"""The identity verification suites, as one registry.

A suite yields its cases as levels (base.Level): a prefix, integer labels and
a suffix make each case's input, and each case indexes one of its level's few
(expected, actual, passed) texts.  The library checks behind the suites
(verify_additivity, amice_level, biamice_check, verify_product_identity)
return levels too, the Amice checks a list per sign tuple.  run_suite checks
every chosen suite's cost against the enumeration cap before any work, then
makes the one VerificationReport, which holds each suite's levels under the
suite's name; the report writer puts that name before each input.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterator

from .base import Level, Sign, check_cap, level
from .bivariate import biamice_check
from .cyclotomic import _ring_dim
from .digits import Prime
from .distribution import amice_level, mu_level, mu_oracle_level, verify_additivity
from .report import VerificationReport
from .series import SeriesPrecision, require_within_cap, verify_product_identity

Levels = Iterator[Level]


def _oracle(p: Prime, max_n: int, prec: SeriesPrecision) -> Levels:
    for sign in Sign:
        for n in range(1, max_n + 1):
            oracle, values = mu_oracle_level(sign, p, n), mu_level(sign, p, n)
            # Both levels share one object per distinct value, so each pair
            # of objects, keyed by their ids, is printed and compared once.
            yield level(
                f"sign={sign.value} n={n} a=",
                "",
                list(zip(map(id, oracle), map(id, values), strict=True)),
                lambda a: (str(oracle[a].value), str(values[a]), oracle[a].value == values[a]),
            )


def _additivity(p: Prime, max_n: int, prec: SeriesPrecision) -> Levels:
    for sign in Sign:
        for n in range(1, max_n + 1):
            yield verify_additivity(sign, p, n)


def _amice(p: Prime, max_n: int, prec: SeriesPrecision, d: int = 1) -> Levels:
    # amice (d = 1) and biamice (d = 2): each level n is built once, for every
    # sign tuple, and goes out sign tuple by sign tuple, then n by n.  Two
    # variables go through biamice_check, the span the benchmark times.
    built = [amice_level(1, p, n) if d == 1 else biamice_check(p, n) for n in range(1, max_n + 1)]
    for signs in itertools.product(Sign, repeat=d):
        for levels in built:
            yield from levels[signs]


def _logproduct(p: Prime, max_n: int, prec: SeriesPrecision) -> Levels:
    yield verify_product_identity(p, prec)


# Each suite, in the order `all` runs them, as (cost, unit, levels): cost(p,
# n) is the work of level n in the unit named, or None for logproduct, whose
# one level's cost series.require_within_cap checks; levels(p, max_n, prec)
# yields the suite's cases.
SUITES: dict[str, tuple[Callable[[int, int], int] | None, str | None, Callable[..., Levels]]] = {
    # Per level n and sign, mu_oracle_level folds a product of p^floor(n/2)
    # or p^ceil(n/2) terms into the classes of the p^n cosets.
    "oracle": (
        lambda p, n: 2 * (p**n + p ** ((n + 1) // 2)),
        "cosets folded and product terms",
        _oracle,
    ),
    # Level n values p^n parents and p^(n+1) children, for both signs.
    "additivity": (lambda p, n: 2 * (p**n + p ** (n + 1)), "valued cosets", _additivity),
    # The Amice checks count, per level n, the dimension of each ring element
    # built, each term a left or right side's fold reads, each nonzero
    # coefficient product and each support tuple.  With f = floor(n/2) and
    # c = ceil(n/2), the plus and minus supports have p^f and p^c cosets.
    # amice builds 4n elements over both signs, half of 8n dim; its left
    # sides fold at most n(p^f + p^c) support counts, and its right sides'
    # terms (p^(k//2) <= p^f at k) and support tuples fit in (n + 1)(p^f + p^c).
    "amice": (
        lambda p, n: 8 * n * _ring_dim(p, n) + (2 * n + 1) * (p ** (n // 2) + p ** ((n + 1) // 2)),
        "ring coefficients, terms, products and support tuples",
        _amice,
    ),
    # biamice builds each sign's n right sides once, then per sign pair and
    # (k1, k2) a left side and at most one right-side product: at most
    # 8n^2 + 2n elements, half of the dim term.  Its left sides fold at most
    # n^2 (p^f + p^c)^2 pairs of support counts, under the second term with
    # the support tuples and right-side terms; a coordinate's right sides
    # have under p^c (plus) or p^(f+1) (minus) nonzero coefficients summed
    # over k, so the right-side products stay under the third.
    "biamice": (
        lambda p, n: 4 * (4 * n * n + 2 * n) * _ring_dim(p, n)
        + (n + 1) ** 2 * (p ** (n // 2) + p ** ((n + 1) // 2)) ** 2
        + (p ** ((n + 1) // 2) + p ** (n // 2 + 1)) ** 2,
        "ring coefficients, terms, products and support tuples",
        functools.partial(_amice, d=2),
    ),
    "logproduct": (None, None, _logproduct),
}


def run_suite(name: str, p: Prime, max_n: int, prec: SeriesPrecision) -> VerificationReport:
    """Run the suite `name`, or every suite in registry order for "all", a block each.

    Every chosen suite's cost is checked before any suite runs, so a run
    past the cap raises ResourceCapError having done no work.
    """
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r} (expected one of {', '.join(SUITES)}, all)")
    chosen = list(SUITES) if name == "all" else [name]
    for suite in chosen:
        cost, unit, _ = SUITES[suite]
        if cost is None:  # both logarithms and their product
            require_within_cap(p, tuple(Sign), prec)
        work = 0
        for n in range(1, max_n + 1) if cost else ():  # refused at the first level past the cap
            work += cost(p, n)
            check_cap(work, 1, f"{unit} for the {suite} suite up to n={n}")
    blocks = [(suite, list(SUITES[suite][2](p, max_n, prec))) for suite in chosen]
    parameters = {"p": int(p), "max_n": max_n, "t_prec": prec.t_prec, "p_prec": prec.p_prec}
    return VerificationReport(suite=name, parameters=parameters, blocks=blocks)
