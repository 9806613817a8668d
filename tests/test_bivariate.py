"""Two-variable distributions: product values, oracle agreement, and the
two-dimensional interpolation identity."""

from fractions import Fraction

import pytest

import pmlog.bivariate as bivariate
import pmlog.suites as suites
from pmlog.base import ResourceCapError, Sign
from pmlog.bivariate import biamice_check, bimu_oracle, bimu_value
from pmlog.cyclotomic import eval_at_zeta
from pmlog.digits import Prime, in_S_minus, in_S_plus, residue_from_integer
from pmlog.distribution import StepFunction, integrate, interpolation_rhs, mu_value
from pmlog.series import SeriesPrecision
from level_rows import rows

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


def bisign(token):
    return tuple(map(Sign.from_str, token))


ALL_BISIGNS = [bisign(t) for t in ("++", "+-", "-+", "--")]


def bires(p, n, m, a, b):
    return residue_from_integer(a, p, n), residue_from_integer(b, p, m)


def test_bimu_requires_common_prime():
    cosets = (residue_from_integer(0, P2, 1), residue_from_integer(0, P3, 1))
    for fn in (bimu_value, bimu_oracle):
        for pair in (cosets, cosets[::-1]):
            with pytest.raises(ValueError, match="different primes"):
                fn(bisign("++"), pair)


def test_bimu_value_examples():
    assert bimu_value(bisign("++"), bires(P3, 1, 1, 0, 0)).value == Fraction(1, 9)
    assert bimu_value(bisign("+-"), bires(P3, 2, 1, 1, 0)).value == 0
    assert bimu_value(bisign("--"), bires(P2, 1, 1, 1, 1)).value == Fraction(1, 16)


def test_bimu_oracle_examples():
    assert bimu_oracle(bisign("++"), bires(P2, 2, 2, 2, 2)).value == Fraction(1, 16)
    assert bimu_oracle(bisign("-+"), bires(P3, 1, 3, 2, 3)).value == Fraction(1, 81)
    # one vanishing coordinate kills the product
    assert bimu_oracle(bisign("+-"), bires(P3, 2, 1, 1, 0)).value == 0


@pytest.mark.parametrize("p", [P2, P3])
def test_bimu_matches_oracle(p):
    for s in ALL_BISIGNS:
        for n in range(1, 4):
            for m in range(1, 4):
                for a in range(p**n):
                    for b in range(p**m):
                        r = bires(p, n, m, a, b)
                        assert bimu_value(s, r).value == bimu_oracle(s, r).value


@pytest.mark.parametrize("p", [P2, P3])
def test_support_and_value_shape(p):
    for s in ALL_BISIGNS:
        c1 = 2 if s[0] is Sign.PLUS else 3
        c2 = 2 if s[1] is Sign.PLUS else 3
        member1 = in_S_plus if s[0] is Sign.PLUS else in_S_minus
        member2 = in_S_plus if s[1] is Sign.PLUS else in_S_minus
        for n in range(1, 4):
            for m in range(1, 4):
                for a in range(p**n):
                    for b in range(p**m):
                        r = bires(p, n, m, a, b)
                        v = bimu_value(s, r)
                        inside = member1(r[0]) and member2(r[1])
                        assert (not v.is_zero) == inside
                        if inside:
                            expected = Fraction(1, p ** ((n + c1) // 2 + (m + c2) // 2))
                            assert v.value == expected


@pytest.mark.parametrize("p", [P2, P3])
def test_additivity_in_each_coordinate(p):
    for s in ALL_BISIGNS:
        for n in range(1, 3):
            for m in range(1, 3):
                for a in range(p**n):
                    for b in range(p**m):
                        base = bimu_value(s, bires(p, n, m, a, b)).value
                        refine_first = sum(
                            bimu_value(s, bires(p, n + 1, m, a + j * p**n, b)).value
                            for j in range(p)
                        )
                        refine_second = sum(
                            bimu_value(s, bires(p, n, m + 1, a, b + j * p**m)).value
                            for j in range(p)
                        )
                        assert refine_first == base
                        assert refine_second == base


@pytest.mark.parametrize("p", [P2, P3])
def test_fubini_for_product_step_functions(p):
    f = lambda a: Fraction(a + 1)
    g = lambda b: Fraction(b * b - 2 * b + 3)
    for s in ALL_BISIGNS:
        for n in range(1, 3):
            for m in range(1, 3):
                double = sum(
                    (
                        f(a) * g(b) * bimu_value(s, bires(p, n, m, a, b)).value
                        for a in range(p**n)
                        for b in range(p**m)
                    ),
                    Fraction(0),
                )
                left = integrate(s[0], StepFunction.from_function(p, n, f))
                right = integrate(s[1], StepFunction.from_function(p, m, g))
                assert double == left * right


def pairs(n):
    return [(k1, k2) for k1 in range(1, n + 1) for k2 in range(1, n + 1)]


@pytest.mark.parametrize("p", [P2, P3])
def test_biamice_passes(p):
    for s in ALL_BISIGNS:
        for n in range(1, 3):
            cases = rows(*biamice_check(p, n)[s])
            token = "".join(map(str, s))
            labels = [f"sign={token} k1={k1} k2={k2} n={n}" for k1, k2 in pairs(n)]
            assert [label for label, *_ in cases] == labels
            for label, _, _, passed in cases:
                assert passed, label


@pytest.mark.parametrize("p,max_n", [(P2, 3), (P3, 2), (P5, 2)])
def test_biamice_lhs_matches_coset_pair_scan(p, max_n):
    # the support-product sum must equal the sum over every coset pair
    for s in ALL_BISIGNS:
        for n in range(1, max_n + 1):
            cases = rows(*biamice_check(p, n)[s])
            for (k1, k2), (_, _, actual, _) in zip(pairs(n), cases, strict=True):
                weights = {}
                for a in range(p**n):
                    for b in range(p**n):
                        e = p ** (n - k1) * a + p ** (n - k2) * b
                        v = bimu_value(s, bires(p, n, n, a, b)).value
                        weights[e] = weights.get(e, Fraction(0)) + v
                assert actual == str(eval_at_zeta(weights, p, n))


def test_biamice_parity_mismatch_is_zero_on_both_sides():
    # plus paired with an even k vanishes; so does the whole product
    s = bisign("+-")
    p, n, k1, k2 = P3, 2, 2, 2
    cases = {label: row for label, *row in rows(*biamice_check(p, n)[s])}
    expected, actual, passed = cases[f"sign=+- k1={k1} k2={k2} n={n}"]
    assert passed
    rhs = interpolation_rhs(s[0], k1, p, n) * interpolation_rhs(s[1], k2, p, n)
    assert rhs.is_zero()
    assert expected == "0" and actual == "0"


def test_biamice_validates_arguments(monkeypatch):
    with pytest.raises(ValueError):
        biamice_check(P3, 0)
    # The registry's declared cost is the one cap: past it, run_suite raises
    # before biamice_check builds any level.
    levels, real = [], bivariate.amice_level
    monkeypatch.setattr(bivariate, "amice_level", lambda *args: levels.append(args) or real(*args))
    prec = SeriesPrecision(t_prec=8, p_prec=6)
    assert suites.run_suite("biamice", P2, 1, prec).passed
    assert levels == [(2, P2, 1)]
    with pytest.raises(ResourceCapError):
        suites.run_suite("biamice", P2, 10, prec)
    assert levels == [(2, P2, 1)]
