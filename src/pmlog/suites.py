"""The identity verification suites, as one registry.

A suite's cases come as levels (base.Level): a prefix, integer labels and a
suffix make each case's input, and each case indexes one of its level's few
(expected, actual, passed) texts.  The library checks behind the suites
(verify_oracle, verify_additivity, amice_level, biamice_check,
verify_product_identity) return levels.  run_suite checks every chosen
suite's cost against the enumeration cap before any work, then builds each
level n once and puts its levels out by one rule, sign tuple by sign tuple
in itertools.product order, then n by n, into the one VerificationReport
under the suite's name; the report writer puts that name before each input.
"""

from __future__ import annotations

from typing import Callable

from .base import Sign, check_cap
from .bivariate import biamice_check
from .cyclotomic import _ring_dim
from .digits import Prime
from .distribution import amice_level, verify_additivity, verify_oracle
from .report import VerificationReport
from .series import SeriesPrecision, require_within_cap, verify_product_identity

# Each suite, in the order `all` runs them, as (cost, unit, build): cost(p,
# n) is the work of level n in the unit named, or None for logproduct, whose
# one level, built at n = 1, has its cost checked by series.require_within_cap;
# build(p, n, prec) maps each sign tuple to its list of level-n levels.
SUITES: dict[str, tuple[Callable[[int, int], int] | None, str | None, Callable[..., dict]]] = {
    # Per level n and sign, mu_oracle_level folds a product of p^floor(n/2)
    # or p^ceil(n/2) terms into the classes of the p^n cosets.
    "oracle": (
        lambda p, n: 2 * (p**n + p ** ((n + 1) // 2)),
        "cosets folded and product terms",
        lambda p, n, prec: {(sign,): [verify_oracle(sign, p, n)] for sign in Sign},
    ),
    # Level n values p^n parents and p^(n+1) children, for both signs.
    "additivity": (
        lambda p, n: 2 * (p**n + p ** (n + 1)),
        "valued cosets",
        lambda p, n, prec: {(sign,): [verify_additivity(sign, p, n)] for sign in Sign},
    ),
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
        lambda p, n, prec: amice_level(1, p, n),
    ),
    # biamice builds each sign's n right sides once, then per sign pair and
    # (k1, k2) a left side and at most one right-side product: at most
    # 8n^2 + 2n elements, half of the dim term.  Its left sides fold at most
    # n^2 (p^f + p^c)^2 pairs of support counts, under the second term with
    # the support tuples and right-side terms; a coordinate's right sides
    # have under p^c (plus) or p^(f+1) (minus) nonzero coefficients summed
    # over k, so the right-side products stay under the third.  Two
    # variables go through biamice_check, the span the benchmark times.
    "biamice": (
        lambda p, n: 4 * (4 * n * n + 2 * n) * _ring_dim(p, n)
        + (n + 1) ** 2 * (p ** (n // 2) + p ** ((n + 1) // 2)) ** 2
        + (p ** ((n + 1) // 2) + p ** (n // 2 + 1)) ** 2,
        "ring coefficients, terms, products and support tuples",
        lambda p, n, prec: biamice_check(p, n),
    ),
    "logproduct": (None, None, lambda p, n, prec: {(): [verify_product_identity(p, prec)]}),
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
    blocks = []
    for suite in chosen:
        cost, _, build = SUITES[suite]
        built = [build(p, n, prec) for n in range(1, max_n + 1 if cost else 2)]
        blocks.append((suite, [lv for signs in built[0] for by_n in built for lv in by_n[signs]]))
    parameters = {"p": int(p), "max_n": max_n, "t_prec": prec.t_prec, "p_prec": prec.p_prec}
    return VerificationReport(suite=name, parameters=parameters, blocks=blocks)
