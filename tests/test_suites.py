"""The verify-suite registry: its order, its caps, and what `all` means."""

import argparse
import collections
import itertools
import json
import math
import re
from fractions import Fraction

import pytest

import pmlog.base as base
import pmlog.bivariate as bivariate
import pmlog.cli as cli
import pmlog.cyclotomic as cyclotomic
import pmlog.digits as digits
import pmlog.distribution as distribution
import pmlog.series as series
import pmlog.suites as suites
from pmlog.base import ENUMERATION_CAP, ResourceCapError, Sign
from pmlog.bivariate import biamice_check
from pmlog.cyclotomic import CyclotomicElement
from pmlog.digits import Prime
from pmlog.distribution import DistValue, amice_level, verify_additivity, verify_oracle
from pmlog.report import VerificationReport
from pmlog.series import SeriesPrecision, verify_product_identity
from level_rows import rows


def verify(capsys, suite, p, max_n):
    code = cli.main(["verify", "--suite", suite, "--p", str(p), "--max-n", str(max_n)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_suite_choices_are_the_registry_then_all():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in commands.choices["verify"]._actions if a.dest == "suite")
    assert tuple(suite.choices) == (*suites.SUITES, "all")


@pytest.mark.parametrize("max_n", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_all_is_the_suites_joined_in_registry_order(capsys, p, max_n):
    code, out, _ = verify(capsys, "all", p, max_n)
    assert code == 0
    joined = []
    for suite in ("oracle", "additivity", "amice", "biamice", "logproduct"):
        code, suite_out, _ = verify(capsys, suite, p, max_n)
        assert code == 0
        joined += json.loads(suite_out)["cases"]
    assert json.loads(out)["cases"] == joined
    assert all(case["input"].split(": ", 1)[0] in suites.SUITES for case in joined)


def refuse_any_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a suite ran before every cap was checked")

    for name in (
        "verify_oracle",
        "verify_additivity",
        "amice_level",
        "biamice_check",
        "verify_product_identity",
    ):
        monkeypatch.setattr(suites, name, fail)


@pytest.mark.parametrize(
    "p,max_n,n,work",
    [pytest.param(2, 11, 10, 2317200, id="2-11"), pytest.param(7, 4, 4, 1104496, id="7-4")],
)
def test_all_checks_every_cap_before_any_suite_runs(capsys, monkeypatch, p, max_n, n, work):
    # oracle, additivity and amice are within the cap here; biamice is not,
    # and is refused with its work up to the first level n past the cap.
    refuse_any_work(monkeypatch)
    code, out, err = verify(capsys, "all", p, max_n)
    assert code == 3
    assert out == ""
    assert err == (
        f"error: {work} exceeds the enumeration cap of 1000000 ring coefficients, terms,"
        f" products and support tuples for the biamice suite up to n={n}\n"
    )


@pytest.mark.parametrize("name", ["logproduct", "all"])
def test_the_series_cost_is_checked_before_any_suite_runs(monkeypatch, name):
    # logproduct at (p, t_prec, p_prec) = (3, 6, 8) is 273 coefficient
    # products (tests/test_series.py); the other suites are far below the cap.
    refuse_any_work(monkeypatch)
    monkeypatch.setattr(base, "ENUMERATION_CAP", 272)
    refusal = "^273 exceeds .* for the series at t_prec 6 and p_prec 8$"
    with pytest.raises(ResourceCapError, match=refusal):
        suites.run_suite(name, Prime(3), 1, SeriesPrecision(t_prec=6, p_prec=8))


def test_a_cap_is_reported_for_the_first_suite_past_it(monkeypatch):
    refuse_any_work(monkeypatch)
    # p = 3 up to n = 2 costs oracle 36, additivity 96, amice 154, biamice 1096
    monkeypatch.setattr(base, "ENUMERATION_CAP", 95)
    refusal = "^96 exceeds .* for the additivity suite up to n=2$"
    with pytest.raises(ResourceCapError, match=refusal):
        suites.run_suite("all", Prime(3), 2, SeriesPrecision(t_prec=8, p_prec=6))


def test_run_suite_rejects_an_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        suites.run_suite("bogus", Prime(3), 2, SeriesPrecision(t_prec=8, p_prec=6))


def library_levels(name, p, max_n, prec):
    # The library check behind each suite, called in the registry's order.
    if name in ("oracle", "additivity"):
        check = verify_oracle if name == "oracle" else verify_additivity
        for sign in Sign:
            for n in range(1, max_n + 1):
                yield check(sign, p, n)
    elif name == "amice":
        for sign in Sign:
            for n in range(1, max_n + 1):
                yield from amice_level(1, p, n)[sign,]
    elif name == "biamice":
        for first in Sign:
            for second in Sign:
                for n in range(1, max_n + 1):
                    yield from biamice_check(p, n)[first, second]
    else:
        yield verify_product_identity(p, prec)


@pytest.mark.parametrize("max_n", [1, 3])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["oracle", "additivity", "amice", "biamice", "logproduct"])
def test_the_registry_adds_only_the_suite_prefix(name, p, max_n):
    prec = SeriesPrecision(t_prec=6, p_prec=4)
    report = suites.run_suite(name, Prime(p), max_n, prec)
    levels = list(library_levels(name, Prime(p), max_n, prec))
    assert rows(*levels)
    assert report.blocks == [(name, levels)]
    inputs = [case["input"] for case in report.to_json_dict()["cases"]]
    assert inputs == [f"{name}: {i}" for i, *_ in rows(*levels)]


def signs_and_level(case_input):
    # The sign tuple and level n of a case's input: () for no sign, as in
    # logproduct's T^<k>, whose one level is built at n = 1.
    signs = re.search(r"\bsign=([+-]+) ", case_input)
    n = re.search(r"\bn=(\d+)\b", case_input)
    return (
        tuple(map(Sign.from_str, signs[1])) if signs else (),
        int(n[1]) if n else 1,
    )


@pytest.mark.parametrize("p,max_n", [(2, 3), (3, 2), (5, 2)])
@pytest.mark.parametrize("name", list(suites.SUITES))
def test_every_suite_puts_out_its_levels_sign_tuple_by_sign_tuple_then_n_by_n(name, p, max_n):
    report = suites.run_suite(name, Prime(p), max_n, SeriesPrecision(t_prec=6, p_prec=4))
    inputs = [case["input"] for case in report.to_json_dict()["cases"]]
    assert all(i.startswith(f"{name}: ") for i in inputs)
    groups = [key for key, _ in itertools.groupby(map(signs_and_level, inputs))]
    d = len(groups[0][0])
    levels = range(1, max_n + 1) if suites.SUITES[name][0] else [1]
    assert groups == [(s, n) for s in itertools.product(Sign, repeat=d) for n in levels]


@pytest.mark.parametrize("module", [distribution, bivariate, series])
def test_only_the_registry_builds_cases(module):
    held = [name for name, value in vars(module).items() if value is VerificationReport]
    assert held == []


def count_calls(monkeypatch, name):
    # Count the calls of distribution.<name> by arguments, wherever pmlog holds it.
    real, calls = getattr(distribution, name), collections.Counter()

    def counted(*args):
        calls[args] += 1
        return real(*args)

    for module in (distribution, bivariate, suites):
        if vars(module).get(name) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("name,d,p,total", [("biamice", 2, 2, (6, 12)), ("amice", 1, 3, (6, 12))])
def test_amice_suites_build_each_support_and_right_side_once_per_level(
    monkeypatch, name, d, p, total
):
    supports = count_calls(monkeypatch, "support_masses")
    rights = count_calls(monkeypatch, "interpolation_rhs")
    report = suites.run_suite(name, Prime(p), 3, SeriesPrecision(t_prec=8, p_prec=6))
    # every sign tuple's n^d rows per level, all passing
    [(_, levels)] = report.blocks
    assert report.passed and len(rows(*levels)) == 2**d * sum(n**d for n in range(1, 4))
    # one support per (sign, n) and one right side per (sign, k, n), shared
    # by all 2^d sign tuples
    assert supports == collections.Counter((s, p, n) for s in Sign for n in range(1, 4))
    assert rights == collections.Counter(
        (s, k, p, n) for s in Sign for n in range(1, 4) for k in range(1, n + 1)
    )
    assert (supports.total(), rights.total()) == total


@pytest.mark.parametrize("name", ["oracle", "additivity"])
def test_sign_suites_build_each_sign_and_level_once(monkeypatch, name):
    calls = count_calls(monkeypatch, f"verify_{name}")
    assert suites.run_suite(name, Prime(3), 3, SeriesPrecision(t_prec=8, p_prec=6)).passed
    assert calls == collections.Counter((s, 3, n) for s in Sign for n in range(1, 4))


def count_amice_work(monkeypatch):
    # The Amice checks' work per level n, in the units their declared costs
    # count: the ring dimension of each element built, each term a left or
    # right side's fold reads (and each nonzero term eval_at_zeta folds),
    # each nonzero coefficient product of a multiply (a scalar times an
    # element's nonzero coefficients), and each tuple of the support product
    # of every sign tuple.
    work, running = collections.Counter(), []
    real_level, real_eval = distribution.amice_level, cyclotomic.eval_at_zeta
    real_fold = distribution._fold
    real_mul, real_init = CyclotomicElement.__mul__, CyclotomicElement.__init__

    def nonzero(x):
        return sum(1 for c in x.nums if c)

    def level(d, p, n):
        running.append(n)
        for signs in itertools.product(Sign, repeat=d):
            work[n] += math.prod(len(distribution.support_masses(s, p, n)) for s in signs)
        try:
            return real_level(d, p, n)
        finally:
            running.pop()

    def evaluate(poly, p, n):
        work[running[-1]] += sum(1 for c in poly.values() if c)
        return real_eval(poly, p, n)

    def fold(terms, p, n, den):
        terms = list(terms)
        work[running[-1]] += len(terms)
        return real_fold(terms, p, n, den)

    def multiply(self, other):
        is_element = isinstance(other, CyclotomicElement)
        work[running[-1]] += nonzero(self) * (nonzero(other) if is_element else 1)
        return real_mul(self, other)

    def build(self, p, level, nums, den=1):
        work[running[-1]] += len(nums)
        real_init(self, p, level, nums, den)

    fakes = {"amice_level": (real_level, level), "eval_at_zeta": (real_eval, evaluate)}
    for module in (cyclotomic, distribution, bivariate, suites):
        for name, (real, fake) in fakes.items():
            if vars(module).get(name) is real:
                monkeypatch.setattr(module, name, fake)
    # The left and right sides fold from distribution and are counted here;
    # ring products and eval_at_zeta fold inside cyclotomic and are counted
    # above, so no term is counted twice.
    monkeypatch.setattr(distribution, "_fold", fold)
    monkeypatch.setattr(CyclotomicElement, "__mul__", multiply)
    monkeypatch.setattr(CyclotomicElement, "__init__", build)
    return work


def largest_max_n(cost, p):
    # The largest max_n whose levels' costs add up to no more than the cap.
    top, total = 0, 0
    while total + cost(p, top + 1) <= ENUMERATION_CAP:
        top, total = top + 1, total + cost(p, top + 1)
    return top


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("name", ["amice", "biamice"])
def test_amice_suites_do_no_more_work_per_level_than_they_declare(monkeypatch, name, p):
    cost, prec = suites.SUITES[name][0], SeriesPrecision(t_prec=8, p_prec=6)
    top = largest_max_n(cost, p)
    work = count_amice_work(monkeypatch)
    assert suites.run_suite(name, Prime(p), top, prec).passed
    assert sorted(work) == list(range(1, top + 1))
    assert all(work[n] <= cost(p, n) for n in work), (dict(work), [cost(p, n) for n in work])
    with pytest.raises(ResourceCapError):
        suites.run_suite(name, Prime(p), top + 1, prec)


def count_declared_work(monkeypatch, name):
    # The oracle and additivity suites' work per level n over both signs, in
    # the units their declared costs count: for oracle, the p^n cosets
    # mu_oracle_level folds and the terms of the product it reads; for
    # additivity, the p^n parents and p^(n+1) children verify_additivity
    # values with the digit test.  verify_oracle calls mu_oracle_level in
    # distribution, and the suite calls verify_additivity in suites.
    work, running = collections.Counter(), []
    check = {"oracle": "mu_oracle_level", "additivity": "verify_additivity"}[name]
    holder = {"oracle": distribution, "additivity": suites}[name]
    inner = {"oracle": "_indexed_product", "additivity": "digit_test_level"}[name]
    real_check, real_inner = getattr(distribution, check), getattr(distribution, inner)

    def level(sign, p, n):
        running.append(n)
        try:
            result = real_check(sign, p, n)
        finally:
            running.pop()
        if name == "oracle":
            work[n] += len(result)  # one folded class per coset
        return result

    def counted(*args):
        result = real_inner(*args)
        work[running[-1]] += len(result)
        return result

    monkeypatch.setattr(holder, check, level)
    monkeypatch.setattr(distribution, inner, counted)
    return work


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("name", ["oracle", "additivity"])
def test_level_suites_do_no_more_work_per_level_than_they_declare(monkeypatch, name, p):
    cost, prec = suites.SUITES[name][0], SeriesPrecision(t_prec=8, p_prec=6)
    top = largest_max_n(cost, p)
    work = count_declared_work(monkeypatch, name)
    assert suites.run_suite(name, Prime(p), top, prec).passed
    assert sorted(work) == list(range(1, top + 1))
    # The declared cost bounds the counted work from both sides.
    assert all(work[n] <= cost(p, n) <= 2 * work[n] for n in work), (
        dict(work),
        [cost(p, n) for n in work],
    )
    with pytest.raises(ResourceCapError):
        suites.run_suite(name, Prime(p), top + 1, prec)


@pytest.mark.parametrize("name,p", [("amice", 5), ("biamice", 3)])
def test_amice_work_counts_each_right_side_term_once(monkeypatch, name, p):
    # A right side builds one element and, at its sign's parity, folds one
    # term per exponent of its level product: the work counted during an
    # interpolation_rhs call is the ring dimension plus that many terms.
    work, real_rhs, seen = count_amice_work(monkeypatch), distribution.interpolation_rhs, []

    def rhs(sign, k, p, n):
        before = work[n]
        result = real_rhs(sign, k, p, n)
        product = (cyclotomic.even_product, cyclotomic.odd_product)[sign.parity](p, k // 2)
        terms = len(product) if k % 2 != sign.parity else 0
        assert work[n] - before == cyclotomic._ring_dim(p, n) + terms
        seen.append(terms)
        return result

    monkeypatch.setattr(distribution, "interpolation_rhs", rhs)
    suites.run_suite(name, Prime(p), 3, SeriesPrecision(t_prec=8, p_prec=6))
    assert len(seen) == 12 and sum(seen) > 0


def count_level_work(monkeypatch):
    # The per-coset work a level-at-once suite could fall back to: calls of
    # the digit test in_S, DistValues built per mu_oracle_level level (with
    # the distinct values each level holds), and Fraction.__str__ calls.
    work, distinct, running = collections.Counter(), {}, []
    real_level, real_in_s = distribution.mu_oracle_level, digits.in_S
    real_init, real_str = DistValue.__init__, Fraction.__str__

    def oracle_level(sign, p, n):
        running.append((sign, n))
        try:
            level = real_level(sign, p, n)
        finally:
            running.pop()
        distinct[sign, n] = len({v.value for v in level})
        return level

    def in_s(sign, digits):
        work["in_S"] += 1
        return real_in_s(sign, digits)

    def build(self, p, value):
        work[running[-1] if running else "DistValue"] += 1
        real_init(self, p, value)

    def text(self):
        work["str"] += 1
        return real_str(self)

    fakes = {"mu_oracle_level": (real_level, oracle_level), "in_S": (real_in_s, in_s)}
    for module in (digits, distribution, suites):
        for name, (real, fake) in fakes.items():
            if vars(module).get(name) is real:
                monkeypatch.setattr(module, name, fake)
    monkeypatch.setattr(DistValue, "__init__", build)
    monkeypatch.setattr(Fraction, "__str__", text)
    return work, distinct


@pytest.mark.parametrize("name", ["oracle", "additivity"])
def test_level_suites_value_and_print_a_level_at_once(monkeypatch, name):
    # At p = 3 up to n = 6 each suite values 2184 cosets over both signs
    # (additivity also their 6552 children); the work counted here must not
    # grow with them.
    work, distinct = count_level_work(monkeypatch)
    report = suites.run_suite(name, Prime(3), 6, SeriesPrecision(t_prec=8, p_prec=6))
    assert report.passed
    levels = [(sign, n) for sign in Sign for n in range(1, 7)]
    # mu_level and verify_additivity apply the digit test by position, not per coset.
    assert work["in_S"] == 0
    # One DistValue per distinct folded sum of each oracle level, none elsewhere.
    if name == "oracle":
        assert set(distinct) == set(levels)
        assert all(work[level] <= distinct[level] for level in levels), (work, distinct)
    assert work["DistValue"] == 0
    # Each level prints its few distinct (expected, actual) pairs once.
    assert work["str"] <= 4 * len(levels), work["str"]
