"""Closed-form distribution values, the character-sum oracle, integration,
and the interpolation identities."""

import collections
import functools
import itertools
import operator
import random
import sys
import time
from fractions import Fraction

import pytest

import pmlog.base as base
import pmlog.cli as cli
import pmlog.distribution as distribution
from pmlog.base import ENUMERATION_CAP, ResourceCapError, Sign
from pmlog.bivariate import bimu_oracle
from pmlog.cyclotomic import (
    CyclotomicElement,
    character_sum,
    cyclo_poly,
    eval_at_zeta,
    even_product,
    odd_product,
    zeta_power,
)
from pmlog.digits import Prime, Residue, in_S, in_S_minus, in_S_plus, residue_from_integer
from pmlog.distribution import (
    DistValue,
    StepFunction,
    amice_level,
    digit_test_level,
    integrate,
    interpolation_rhs,
    mu_level,
    mu_oracle,
    mu_oracle_level,
    mu_value,
    support_masses,
    total_mass,
    verify_additivity,
)
from level_rows import rows

P2, P3, P5 = Prime(2), Prime(3), Prime(5)
SIGNS = [Sign.PLUS, Sign.MINUS]


def coset_scan_integral(sign, f):
    """Integration by the plain sum over every coset, zeros included."""
    masses = (mu_value(sign, residue_from_integer(a, f.p, f.n)).value for a in range(f.p**f.n))
    return functools.reduce(operator.add, map(operator.mul, f.values, masses))


def test_mu_value_examples():
    assert mu_value(Sign.PLUS, residue_from_integer(3, P3, 3)).value == Fraction(1, 9)
    assert mu_value(Sign.PLUS, residue_from_integer(1, P3, 2)).value == 0
    assert mu_value(Sign.MINUS, residue_from_integer(2, P3, 1)).value == Fraction(1, 9)


@pytest.mark.parametrize("p", [P2, P3, P5, Prime(7), Prime(11), Prime(13)])
def test_mu_level_matches_mu_value(p):
    for sign in SIGNS:
        n = 1
        while p**n <= 20000:
            level = mu_level(sign, p, n)
            assert len(level) == p**n
            for a, value in enumerate(level):
                assert value == mu_value(sign, residue_from_integer(a, p, n)).value, (sign, n, a)
            n += 1


@pytest.mark.parametrize("p", [P2, P3, P5, Prime(7)])
def test_digit_test_level_places_by_the_digit_test(p):
    # Any two objects land where each coset's own digits put them.
    for sign in SIGNS:
        n = 1
        while p**n <= 20000:
            expected = [
                "in" if in_S(sign, residue_from_integer(a, p, n).digits) else "out"
                for a in range(p**n)
            ]
            assert digit_test_level(sign, p, n, "in", "out") == expected, (sign, n)
            n += 1


def test_mu_level_cap_and_exponent(monkeypatch):
    for sign in SIGNS:
        for n in (0, -1):
            with pytest.raises(ValueError, match="must be >= 1"):
                mu_level(sign, P3, n)
    with pytest.raises(ResourceCapError):
        mu_level(Sign.PLUS, P2, 20)
    monkeypatch.setattr(base, "ENUMERATION_CAP", 3**4)
    for sign in SIGNS:
        assert len(mu_level(sign, P3, 4)) == 3**4
        with pytest.raises(ResourceCapError):
            mu_level(sign, P3, 5)


def test_mu_oracle_examples():
    assert mu_oracle(Sign.PLUS, residue_from_integer(3, P3, 3)).value == Fraction(1, 9)
    assert mu_oracle(Sign.PLUS, residue_from_integer(2, P2, 2)).value == Fraction(1, 4)
    assert mu_oracle(Sign.MINUS, residue_from_integer(7, P5, 2)).value == 0


@pytest.mark.parametrize("p,max_n", [(P2, 4), (P3, 4), (P5, 2)])
def test_oracle_equivalence(p, max_n):
    for sign in SIGNS:
        for n in range(1, max_n + 1):
            for a in range(p**n):
                r = residue_from_integer(a, p, n)
                assert mu_value(sign, r).value == mu_oracle(sign, r).value


def test_mu_oracle_cap():
    # At n = 80 each half product has 2^20 > ENUMERATION_CAP terms.
    refusal = "^2\\^20 exceeds the enumeration cap of 1000000 product terms$"
    with pytest.raises(ResourceCapError, match=refusal):
        mu_oracle(Sign.PLUS, residue_from_integer(0, P2, 80))


@pytest.mark.parametrize("p,n", [(P2, 21), (P2, 30), (P3, 20), (P5, 16)])
def test_mu_oracle_past_the_level_cap(p, n):
    # p^n cosets exceed the cap, but the point oracle only expands half
    # products of p^floor(K/2) and p^ceil(K/2) terms.
    assert p**n > ENUMERATION_CAP
    rng = random.Random(f"oracle {p} {n}")
    for sign in SIGNS:
        for a in [0, 1, p**n - 1, *(rng.randrange(p**n) for _ in range(6))]:
            r = residue_from_integer(a, p, n)
            assert mu_oracle(sign, r) == mu_value(sign, r), (sign, a)


def test_mu_oracle_level_keeps_the_level_cap(monkeypatch):
    refuse(monkeypatch, ["cyclo_poly"])
    refusal = "^2\\^21 exceeds the enumeration cap of 1000000 cosets$"
    with pytest.raises(ResourceCapError, match=refusal):
        mu_oracle_level(Sign.PLUS, P2, 21)


def patch_everywhere(monkeypatch, name, fake):
    # Rebind `name` to `fake` in every pmlog module namespace that holds it.
    patched = 0
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "pmlog" and name in vars(module):
            monkeypatch.setattr(module, name, fake)
            patched += 1
    assert patched, f"no pmlog module holds {name}"


def refuse(monkeypatch, names):
    for name in names:

        def fail(*args, name=name, **kwargs):
            raise AssertionError(f"{name} was called")

        patch_everywhere(monkeypatch, name, fail)


def full_product_oracle(sign, r):
    """The point oracle as it was first written: expand the whole even
    (plus) or odd (minus) product, shift its exponents by -a, and take the
    full character sum over p^(floor(3n/2) + 1 + parity)."""
    p, n, a = r.p, r.n, r.value
    product = (even_product, odd_product)[sign.parity](p, (n + sign.parity) // 2)
    shifted = collections.Counter(e - a for e in product)
    return DistValue(p, character_sum(p, n, shifted) / p ** ((3 * n + 2 + sign.parity) // 2))


@pytest.mark.parametrize("p", [P2, P3, P5, Prime(7)])
def test_mu_oracle_matches_the_full_product_character_sum(p):
    for sign in SIGNS:
        n = 1
        while p**n <= 3000:
            for a in range(p**n):
                r = residue_from_integer(a, p, n)
                new, old = mu_oracle(sign, r), full_product_oracle(sign, r)
                assert new == old and type(new.value) is type(old.value), (sign, n, a)
            n += 1


@pytest.mark.parametrize("p,max_n", [(P2, 3), (P3, 3), (P5, 2)])
def test_bimu_oracle_matches_the_full_product_character_sum(p, max_n):
    cosets = [
        residue_from_integer(a, p, n) for n in range(1, max_n + 1) for a in range(p**n)
    ]
    for signs in itertools.product(SIGNS, repeat=2):
        for r in itertools.product(cosets, repeat=2):
            expected = full_product_oracle(signs[0], r[0]) * full_product_oracle(signs[1], r[1])
            assert bimu_oracle(signs, r) == expected, (signs, r)


# The names of each route: the digit test and the closed form built on it,
# and the cyclotomic products and character sums the oracles are built on.
DIGIT_ROUTE = (
    "in_S", "digit_test_level", "mass_exponent", "enumerate_R", "support_masses",
    "mu_value", "mu_level",
)
ORACLE_ROUTE = (
    "_indexed_product", "even_product", "odd_product", "character_sum", "mu_oracle",
    "mu_oracle_level",
)


def test_the_oracle_route_runs_without_the_digit_route(monkeypatch):
    refuse(monkeypatch, DIGIT_ROUTE)
    for p, sign in itertools.product((P2, P3, P5), SIGNS):
        for n in range(1, 4):
            level = mu_oracle_level(sign, p, n)
            for a in range(p**n):
                r = residue_from_integer(a, p, n)
                assert mu_oracle(sign, r) == level[a]
                assert bimu_oracle((sign, Sign.PLUS), (r, r)) == level[a] * mu_oracle(Sign.PLUS, r)
            for k in range(1, n + 1):
                interpolation_rhs(sign, k, p, n)


def test_the_digit_route_runs_without_the_oracle_route(monkeypatch):
    refuse(monkeypatch, ORACLE_ROUTE)
    for p, sign in itertools.product((P2, P3, P5), SIGNS):
        for n in range(1, 4):
            mu_level(sign, p, n)
            support_masses(sign, p, n)
            assert all(row[3] for row in rows(verify_additivity(sign, p, n)))


def test_mu_oracle_refuses_past_the_cap_before_expanding(monkeypatch, capsys):
    refuse(monkeypatch, ["cyclo_poly"])
    assert P2**20 > ENUMERATION_CAP
    for sign in SIGNS:
        with pytest.raises(ResourceCapError):
            mu_oracle(sign, residue_from_integer(0, P2, 80))
    argv = ["value", "--oracle", "--sign", "+", "--p", "2", "--n", "80", "--a", "0"]
    assert cli.main(argv) == 3
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("p,max_n", [(P2, 14), (P3, 9), (P5, 6), (Prime(7), 5)])
def test_mu_oracle_builds_two_half_products_not_the_whole(monkeypatch, p, max_n):
    # The terms of every product the point oracle expands, against the two
    # halves' p^floor(K/2) + p^ceil(K/2) plus one per factor level; the
    # whole product alone has p^K.
    real, built = distribution._indexed_product, []

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        built.append(len(result))
        return result

    patch_everywhere(monkeypatch, "_indexed_product", counted)
    rng = random.Random(int(p))
    for sign, n in itertools.product(SIGNS, range(1, max_n + 1)):
        built.clear()
        mu_oracle(sign, residue_from_integer(rng.randrange(p**n), p, n))
        levels = (n + sign.parity) // 2
        assert sum(built) <= p ** (levels // 2) + p ** (levels - levels // 2) + levels, (sign, n)


@pytest.mark.parametrize("p", [P2, P3, P5, Prime(7), Prime(11), Prime(13)])
def test_mu_oracle_level_matches_point_oracle(p):
    # Every coset up to p^n = 2000; above that, up to 20000, a seeded
    # sample plus both ends, since each point query expands the product.
    rng = random.Random(int(p))
    for sign in SIGNS:
        n = 1
        while p**n <= 20000:
            level = mu_oracle_level(sign, p, n)
            assert len(level) == p**n
            if p**n <= 2000:
                points = range(p**n)
            else:
                points = [0, p**n - 1] + rng.sample(range(1, p**n - 1), 100)
            for a in points:
                assert level[a] == mu_oracle(sign, residue_from_integer(a, p, n)), (sign, n, a)
            n += 1


def test_mu_oracle_level_cap(monkeypatch):
    with pytest.raises(ResourceCapError):
        mu_oracle_level(Sign.PLUS, P2, 20)
    monkeypatch.setattr(base, "ENUMERATION_CAP", 3**4)
    for sign in SIGNS:
        assert len(mu_oracle_level(sign, P3, 4)) == 3**4
        with pytest.raises(ResourceCapError):
            mu_oracle_level(sign, P3, 5)


@pytest.mark.parametrize("p", [P2, P3, P5, Prime(7)])
def test_total_mass(p):
    assert total_mass(Sign.PLUS, p) == Fraction(1, p)
    assert total_mass(Sign.MINUS, p) == Fraction(1, p)


def test_integrate_indicator_recovers_value():
    for sign in SIGNS:
        for a in range(9):
            r = residue_from_integer(a, P3, 2)
            indicator = StepFunction.from_function(P3, 2, lambda x: Fraction(1 if x == a else 0))
            assert integrate(sign, indicator) == mu_value(sign, r).value


def test_integrate_constant_one_gives_total_mass():
    for sign in SIGNS:
        for n in (1, 2, 3):
            f = StepFunction.from_function(P3, n, lambda a: Fraction(1))
            assert integrate(sign, f) == Fraction(1, 3)


def test_integrate_is_linear():
    f = StepFunction.from_function(P3, 2, lambda a: Fraction(a))
    g = StepFunction.from_function(P3, 2, lambda a: Fraction(a * a + 1))
    combined = StepFunction.from_function(P3, 2, lambda a: Fraction(a) + 2 * Fraction(a * a + 1))
    for sign in SIGNS:
        assert integrate(sign, combined) == integrate(sign, f) + 2 * integrate(sign, g)


@pytest.mark.parametrize("p", [P2, P3, P5, Prime(7), Prime(11), Prime(13)])
def test_support_masses_match_coset_scan(p):
    for sign in SIGNS:
        n = 1
        while p**n <= 20000:
            scan = {}
            for a in range(p**n):
                value = mu_value(sign, residue_from_integer(a, p, n)).value
                if value != 0:
                    scan[a] = value
            masses = support_masses(sign, p, n)
            assert masses == scan
            assert list(masses) == sorted(masses)
            n += 1


def test_support_masses_refuse_a_coset_without_mass(monkeypatch):
    # 1 mod 9 has a nonzero units digit, so the plus distribution gives it 0
    monkeypatch.setattr(distribution, "enumerate_R", lambda p, count, sign: {0, 1, 3, 6})
    with pytest.raises(RuntimeError, match="outside the support"):
        support_masses(Sign.PLUS, P3, 2)


def test_support_masses_refuse_a_coset_failing_only_its_top_digit(monkeypatch):
    # 9 = 1 * 3^2 mod 27: its digits (0, 0, 1) fail the plus test only at
    # position 2, the last of n = 3; {0, 3, 9} still adds up to 3/9 = 1/3
    monkeypatch.setattr(distribution, "enumerate_R", lambda p, count, sign: {0, 3, 9})
    with pytest.raises(RuntimeError, match=r"enumerated coset 9 mod 3\^3 lies outside"):
        support_masses(Sign.PLUS, P3, 3)


def test_support_masses_refuse_a_coset_past_the_modulus(monkeypatch):
    # 9 reduces to the zero coset mod 9 but is not a representative in [0, 9)
    monkeypatch.setattr(distribution, "enumerate_R", lambda p, count, sign: {9, 3, 6})
    with pytest.raises(RuntimeError, match="outside the support"):
        support_masses(Sign.PLUS, P3, 2)


def test_support_masses_refuse_a_dropped_coset(monkeypatch):
    real = distribution.enumerate_R
    monkeypatch.setattr(distribution, "enumerate_R", lambda *args: real(*args) - {3})
    with pytest.raises(RuntimeError, match="add up"):
        support_masses(Sign.PLUS, P3, 2)


@pytest.mark.parametrize("p,max_n", [(P2, 5), (P3, 3), (P5, 2), (Prime(7), 2)])
def test_interpolation_lhs_matches_step_function_integral(p, max_n):
    # the left sides of the one-variable amice_level rows
    for sign in SIGNS:
        for n in range(1, max_n + 1):
            cases = rows(*amice_level(1, p, n)[sign,])
            assert len(cases) == n
            for k, (label, _, lhs, _) in enumerate(cases, start=1):
                assert label == f"sign={sign} k={k} n={n}"
                zeta_exp = p ** (n - k)
                f = StepFunction.from_function(p, n, lambda a: zeta_power(p, n, zeta_exp * a))
                assert lhs == str(integrate(sign, f)) == str(coset_scan_integral(sign, f))


def test_amice_level_validates_arguments():
    for d, n in ((0, 2), (3, 2), (1, 0)):
        with pytest.raises(ValueError):
            amice_level(d, P3, n)


@pytest.mark.parametrize("p", [P2, P3, P5])
def test_amice_interpolation_identity(p):
    # integrating a -> zeta_k^a against the distribution lands on the
    # closed-form series value at zeta_k - 1, inside the level-n ring
    for sign in SIGNS:
        for n in range(1, 4):
            for k in range(1, n + 1):
                zeta_exp = p ** (n - k)
                f = StepFunction.from_function(
                    p, n, lambda a, e=zeta_exp: zeta_power(p, n, e * a)
                )
                lhs = integrate(sign, f)
                rhs = interpolation_rhs(sign, k, p, n)
                assert lhs == rhs, (str(sign), k, n)


def test_interpolation_rhs_parity_zero():
    assert interpolation_rhs(Sign.PLUS, 2, P3, 2).is_zero()
    assert interpolation_rhs(Sign.PLUS, 2, P3, 3).is_zero()
    assert interpolation_rhs(Sign.MINUS, 1, P3, 2).is_zero()
    assert interpolation_rhs(Sign.MINUS, 3, P5, 3).is_zero()


def test_interpolation_rhs_refuses_a_ring_past_the_cap():
    # k = 1 is a closed form for plus and k = 2 a zero of the wrong parity;
    # either would be an element of 2^39 coefficients.
    for k in (1, 2):
        with pytest.raises(ResourceCapError, match="^2\\^40 exceeds the enumeration cap of 1000000 "):
            interpolation_rhs(Sign.PLUS, k, P2, 40)


def test_interpolation_rhs_examples():
    # at k = 1 the plus product is empty, leaving the bare prefactor 1/p
    for p in (P2, P3, P5):
        assert interpolation_rhs(Sign.PLUS, 1, p, 1) == eval_at_zeta({0: Fraction(1, p)}, p, 1)
    # minus at k = n = 2, p = 2: (1 + i) / 4 on the basis (1, i)
    value = interpolation_rhs(Sign.MINUS, 2, P2, 2)
    assert value.coeffs == (Fraction(1, 4), Fraction(1, 4))


def test_interpolation_rhs_validates_range():
    with pytest.raises(ValueError):
        interpolation_rhs(Sign.PLUS, 3, P3, 2)
    with pytest.raises(ValueError):
        interpolation_rhs(Sign.PLUS, 0, P3, 2)


def interpolation_rhs_by_every_level(sign, k, p, n):
    """The right side as the prefactor times the value at zeta_k of every
    cyclotomic factor up to n rounded up to the sign's parity, one ring
    multiply per factor: the levels past k, each the rational p, included."""
    q = sign.parity
    if k % 2 == q:
        return CyclotomicElement.zero(p, n)
    level = n if n % 2 != q else n + 1
    count, first = (level - 1 + q) // 2, 2 - q
    acc = zeta_power(p, n, 0)
    for m in range(first, first + 2 * count, 2):
        phi = cyclo_poly(p, m)
        acc = acc * eval_at_zeta({e * p ** (n - k): c for e, c in phi.items()}, p, n)
    return acc * Fraction(1, p ** ((level + 1 + q) // 2))


@pytest.mark.parametrize("p", [P2, P3, P5, Prime(7)])
def test_interpolation_rhs_matches_the_product_over_every_level(p):
    for sign in SIGNS:
        for n in range(1, 6):
            for k in range(1, n + 1):
                expected = interpolation_rhs_by_every_level(sign, k, p, n)
                actual = interpolation_rhs(sign, k, p, n)
                assert actual == expected, (str(sign), k, n)
                assert (actual.coeffs, str(actual)) == (expected.coeffs, str(expected))


@pytest.mark.parametrize(
    "sign,p,n",
    [
        (Sign.PLUS, P3, 1),
        (Sign.MINUS, P2, 3),
        (Sign.PLUS, P5, 2),
        (Sign.MINUS, P3, 2),
    ],
)
def test_additivity_reports_pass(sign, p, n):
    cases = rows(verify_additivity(sign, p, n))
    assert all(passed for *_, passed in cases)
    assert len(cases) == p**n


@pytest.mark.parametrize("p,n", [(P2, 5), (P3, 3), (P5, 2), (Prime(7), 2)])
def test_additivity_sums_each_cosets_own_children(p, n):
    # The rows against a per-coset sum over a + j p^n, j < p.
    for sign in SIGNS:
        cases = rows(verify_additivity(sign, p, n))
        for a, (input, expected, actual, _) in enumerate(cases):
            children = sum(
                (mu_value(sign, residue_from_integer(a + j * p**n, p, n + 1)).value for j in range(p)),
                Fraction(0),
            )
            assert input == f"n={n} sign={sign} a={a} mod {p}^{n}"
            assert expected == str(mu_value(sign, residue_from_integer(a, p, n)).value)
            assert actual == str(children)


def test_additivity_cap():
    with pytest.raises(ResourceCapError):
        verify_additivity(Sign.PLUS, P2, 20)


@pytest.mark.parametrize("p", [P2, P3])
def test_valuation_law(p):
    for sign in SIGNS:
        offset = 2 if sign is Sign.PLUS else 3
        for n in range(1, 7):
            for a in range(p**n):
                v = mu_value(sign, residue_from_integer(a, p, n))
                if not v.is_zero:
                    assert v.p_valuation == -((n + offset) // 2)


def test_support_structure():
    for n in range(1, 5):
        nonzero_plus = set()
        nonzero_minus = set()
        for a in range(3**n):
            r = residue_from_integer(a, P3, n)
            vp = mu_value(Sign.PLUS, r)
            vm = mu_value(Sign.MINUS, r)
            assert (not vp.is_zero) == in_S_plus(r)
            assert (not vm.is_zero) == in_S_minus(r)
            if not vp.is_zero:
                nonzero_plus.add(vp.value)
            if not vm.is_zero:
                nonzero_minus.add(vm.value)
        # the nonzero value depends only on n
        assert len(nonzero_plus) == 1 and len(nonzero_minus) == 1


@pytest.mark.parametrize("p", [P2, P3])
def test_minus_rescaling_law(p):
    # p times a minus value is 0 or p^(-floor((n+1)/2))
    for n in range(1, 6):
        for a in range(p**n):
            v = mu_value(Sign.MINUS, residue_from_integer(a, p, n))
            scaled = p * v.value
            assert scaled == 0 or scaled == Fraction(1, p ** ((n + 1) // 2))


def test_dist_value_invariant():
    assert DistValue(P3, Fraction(0)).is_zero
    assert DistValue(P3, Fraction(1, 27)).p_valuation == -3
    for bad in (Fraction(3, 4), Fraction(2), Fraction(1), Fraction(2, 9), Fraction(1, 6)):
        with pytest.raises(ValueError):
            DistValue(P3, bad)


def test_dist_value_products():
    a = DistValue(P3, Fraction(1, 9))
    b = DistValue(P3, Fraction(1, 3))
    assert (a * b).value == Fraction(1, 27)
    assert (a * DistValue(P3, Fraction(0))).is_zero
    with pytest.raises(ValueError):
        _ = a * DistValue(P2, Fraction(1, 2))


def test_dist_value_json():
    d = mu_value(Sign.PLUS, residue_from_integer(3, P3, 3)).to_json_dict()
    assert d == {"num": "1", "den": "9", "p_val": -2, "zero": False}
    z = mu_value(Sign.PLUS, residue_from_integer(1, P3, 2)).to_json_dict()
    assert z == {"num": "0", "den": "1", "p_val": None, "zero": True}


def test_step_function_validation():
    for values in [(), (Fraction(1),), (Fraction(1),) * 4]:
        with pytest.raises(ValueError, match=f"expected 3 coset values, got {len(values)}$"):
            StepFunction(P3, 1, values)
    for n in (0, -1):
        with pytest.raises(ValueError, match="modulus exponent n must be >= 1"):
            StepFunction(P3, n, (Fraction(1),))
    # The level is checked before the values are read.
    unread = iter([Fraction(1)])
    refusal = "^2\\^20 exceeds the enumeration cap of 1000000 cosets$"
    with pytest.raises(ResourceCapError, match=refusal):
        StepFunction(P2, 20, unread)
    assert next(unread) == Fraction(1)
    assert StepFunction(P3, 1, iter([Fraction(1)] * 3)).values == (Fraction(1),) * 3


def test_step_function_level_is_checked_before_any_value():
    # 2^20 cosets exceed the enumeration cap: refused at once, fn never called.
    calls = []
    start = time.perf_counter()
    with pytest.raises(ResourceCapError):
        StepFunction.from_function(P2, 20, calls.append)
    assert time.perf_counter() - start < 0.1 and calls == []
    for n in (0, -1):
        with pytest.raises(ValueError, match="modulus exponent n must be >= 1"):
            StepFunction.from_function(P3, n, calls.append)
    assert calls == []


def test_step_function_builds_each_coset_once(monkeypatch):
    # 3^8 cosets: from_function calls fn once per representative a, in
    # increasing order, and builds no Residue.
    calls, built, real = [], [], Residue.__init__
    monkeypatch.setattr(Residue, "__init__", lambda *args, **kw: built.append(kw) or real(*args, **kw))
    f = StepFunction.from_function(P3, 8, lambda a: calls.append(a) or Fraction(a % 3))
    assert calls == list(range(3**8)) and built == []
    assert f.values[5] == Fraction(2) and len(f.values) == 3**8
    residue_from_integer(5, P3, 8)
    assert len(built) == 1  # the patch does see a Residue being built


@pytest.mark.parametrize("sign", list(Sign))
def test_a_level_below_one_is_a_value_error(sign):
    # Checked before the mass 1/p^e is built, where n = -10 would give a
    # float power of p and a TypeError.
    for n in (0, -1, -10):
        with pytest.raises(ValueError, match="modulus exponent n must be >= 1"):
            mu_level(sign, Prime(3), n)


def test_values_of_different_primes_do_not_multiply():
    with pytest.raises(ValueError, match="different primes"):
        DistValue(P3, Fraction(1, 3)) * DistValue(P5, Fraction(1, 5))
