"""The p-power cyclotomic quotient rings, level products, and character sums."""

import math
import random
from fractions import Fraction
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmlog.base import ENUMERATION_CAP, ResourceCapError, Sign
from pmlog.cyclotomic import (
    CyclotomicElement,
    _fold,
    _ring_dim,
    character_sum,
    cyclo_poly,
    eval_at_zeta,
    even_product,
    odd_product,
    zeta_power,
)
from pmlog.digits import Prime, enumerate_R

PRIMES = [Prime(2), Prime(3), Prime(5)]


def test_cyclo_poly_examples():
    assert cyclo_poly(Prime(3), 1) == {0: 1, 1: 1, 2: 1}
    assert cyclo_poly(Prime(2), 3) == {0: 1, 4: 1}
    # evaluating at 1 sums the coefficients
    assert sum(cyclo_poly(Prime(5), 1).values()) == 5


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cyclo_poly_structure(p, n):
    poly = cyclo_poly(p, n)
    assert len(poly) == p
    assert set(poly.values()) == {1}
    assert set(poly) == {t * p ** (n - 1) for t in range(p)}
    # the degree, p^(n-1) (p - 1), is the ring's dimension
    assert max(poly) == p ** (n - 1) * (p - 1) == _ring_dim(p, n)


def test_even_product_examples():
    assert sorted(even_product(Prime(2), 1)) == [0, 2]
    assert sorted(even_product(Prime(3), 1)) == [0, 3, 6]
    assert sorted(even_product(Prime(2), 0)) == [0]


def test_odd_product_examples():
    assert sorted(odd_product(Prime(3), 1)) == [0, 1, 2]
    # (1 + x)(1 + x^4) multiplied by hand
    assert sorted(odd_product(Prime(2), 2)) == [0, 1, 4, 5]
    assert sorted(odd_product(Prime(5), 0)) == [0]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("count", [0, 1, 2, 3])
def test_product_support_matches_R(p, count):
    even = even_product(p, count)
    odd = odd_product(p, count)
    assert set(even) == enumerate_R(p, count, Sign.PLUS)
    assert set(odd) == enumerate_R(p, count, Sign.MINUS)
    # No repeated exponent: every term of the list form has coefficient 1.
    assert len(set(even)) == len(even) == p**count
    assert len(set(odd)) == len(odd) == p**count


@pytest.mark.parametrize("p", [Prime(2), Prime(3), Prime(5), Prime(7)])
@pytest.mark.parametrize("count", [0, 1, 2, 3])
def test_products_of_distinct_levels_keep_every_term(p, count):
    # No two terms of a product of Phi's at distinct levels share an
    # exponent, so none merges or cancels: p^count distinct exponents.
    for product in (even_product(p, count), odd_product(p, count)):
        assert len(set(product)) == len(product) == p**count


def test_product_cap():
    with pytest.raises(ResourceCapError):
        even_product(Prime(3), 14)


def test_zeta_power_examples():
    assert zeta_power(Prime(3), 1, 3) == zeta_power(Prime(3), 1, 0)
    assert zeta_power(Prime(2), 2, 1).coeffs == (Fraction(0), Fraction(1))
    assert zeta_power(Prime(3), 1, 2).coeffs == (Fraction(-1), Fraction(-1))


def test_zeta_power_negative_exponent():
    for p in PRIMES:
        for n in (1, 2):
            assert zeta_power(p, n, -1) == zeta_power(p, n, p**n - 1)
            assert zeta_power(p, n, -1) * zeta_power(p, n, 1) == zeta_power(p, n, 0)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_zeta_has_exact_order(p, n):
    one = zeta_power(p, n, 0)
    assert zeta_power(p, n, p**n) == one
    assert zeta_power(p, n, p ** (n - 1)) != one


@pytest.mark.parametrize("p", PRIMES)
def test_eval_at_zeta_stabilization(p):
    # a cyclotomic polynomial of higher level collapses to the scalar p
    for n in (1, 2):
        for m in (n + 1, n + 2):
            value = eval_at_zeta(cyclo_poly(p, m), p, n)
            assert value == eval_at_zeta({0: p}, p, n)


def test_eval_at_zeta_basics():
    assert eval_at_zeta({0: 1}, Prime(3), 2) == zeta_power(Prime(3), 2, 0)
    # x mod (1 + x) is -1
    assert eval_at_zeta({1: 1}, Prime(2), 1) == eval_at_zeta({0: -1}, Prime(2), 1)


def from_coeffs(p, n, coeffs):
    """The element with these rational coefficients on the power basis."""
    return eval_at_zeta(dict(enumerate(coeffs)), p, n)


def _monomial_terms(p: int, n: int, e: int) -> Iterator[tuple[int, int]]:
    # Canonical reduction of x^e: yields (basis index, +-1) pairs.
    h = p ** (n - 1)
    d = h * (p - 1)
    e %= p**n
    if e < d:
        yield (e, 1)
    else:
        r = e - d  # 0 <= r < h
        for t in range(p - 1):
            yield (r + t * h, -1)


def character_sum_bruteforce(p: Prime, n: int, weights) -> Fraction:
    """character_sum evaluated root by root in the cyclotomic ring: the
    independent reference the collapse law is checked against."""
    order = p**n
    if order > ENUMERATION_CAP:
        raise ResourceCapError(f"{order} roots exceed the enumeration cap")
    acc = [Fraction(0)] * _ring_dim(p, n)
    for k in range(order):
        for e, w in weights.items():
            if w == 0:
                continue
            for idx, s in _monomial_terms(p, n, k * e):
                acc[idx] += s * w
    elem = from_coeffs(p, n, acc)
    if any(elem.nums[1:]):
        raise ValueError("character sum did not collapse to a rational")
    return Fraction(elem.nums[0], elem.den)


def test_character_sum_examples():
    assert character_sum(Prime(3), 1, {0: 1}) == 3
    assert character_sum(Prime(3), 1, {1: 1}) == 0
    assert character_sum(Prime(2), 2, {4: 1}) == 4


@pytest.mark.parametrize("p,max_n", [(Prime(2), 3), (Prime(3), 3), (Prime(5), 2)])
def test_character_sum_divisibility_law(p, max_n):
    for n in range(1, max_n + 1):
        order = p**n
        for m in range(-(p ** (n + 1)) + 1, p ** (n + 1)):
            expected = order if m % order == 0 else 0
            assert character_sum(p, n, {m: 1}) == expected
            assert character_sum_bruteforce(p, n, {m: 1}) == expected


@settings(max_examples=50, deadline=None)
@given(
    p=st.sampled_from([2, 3]),
    n=st.integers(min_value=1, max_value=2),
    weights=st.dictionaries(
        st.integers(min_value=-50, max_value=50),
        st.fractions(min_value=-5, max_value=5, max_denominator=12),
        max_size=6,
    ),
)
def test_character_sum_matches_bruteforce(p, n, weights):
    p = Prime(p)
    assert character_sum(p, n, weights) == character_sum_bruteforce(p, n, weights)


def test_bruteforce_collapses_to_rational():
    # summing over the whole root group always lands in Q, whatever the weights;
    # only the exponent divisible by 3 (here e = 0) survives
    value = character_sum_bruteforce(Prime(3), 1, {1: Fraction(1, 3), 0: 1, -2: 2})
    assert value == 3


def test_ring_axioms_spot_checks():
    p = Prime(3)
    n = 2
    a = zeta_power(p, n, 1) + 2 * zeta_power(p, n, 4)
    b = zeta_power(p, n, 5) * Fraction(1, 3)
    c = zeta_power(p, n, 7) - zeta_power(p, n, 0)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * zeta_power(p, n, 0) == a
    assert a + CyclotomicElement.zero(p, n) == a


@pytest.mark.parametrize("p", PRIMES)
def test_reduction_is_canonical(p):
    # the representative of x^e depends only on e mod p^n
    n = 2
    for e in range(p**n):
        assert zeta_power(p, n, e + p**n) == zeta_power(p, n, e)
        assert zeta_power(p, n, e - p**n) == zeta_power(p, n, e)


def reduce_mod_phi(poly, p, n):
    """Remainder of a dense polynomial (low degree first) on long division by
    Phi(p, n)(x) = sum_{t < p} x^(p^(n-1) t): the textbook reduction, built
    without _monomial_terms, to check the ring's one reduction against."""
    h, d = p ** (n - 1), _ring_dim(p, n)
    rem = list(poly) + [Fraction(0)] * max(0, d - len(poly))
    for top in range(len(rem) - 1, d - 1, -1):
        q = rem[top]  # Phi is monic of degree d: subtract q x^(top-d) Phi
        for t in range(p):
            rem[top - d + t * h] -= q
    return tuple(rem[:d])


def random_element(rng, p, n):
    coeffs = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.7 else Fraction(0)
        for _ in range(_ring_dim(p, n))
    ]
    return from_coeffs(p, n, coeffs)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_ring_product_matches_schoolbook_product_reduced_by_long_division(p, n):
    rng = random.Random(f"ring product {p} {n}")
    for _ in range(6):
        a, b = random_element(rng, p, n), random_element(rng, p, n)
        schoolbook = [Fraction(0)] * (2 * _ring_dim(p, n) - 1)
        for i, ai in enumerate(a.coeffs):
            for j, bj in enumerate(b.coeffs):
                schoolbook[i + j] += ai * bj
        assert (a * b).coeffs == reduce_mod_phi(schoolbook, p, n)
    q = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    assert eval_at_zeta({0: q}, p, n).coeffs == reduce_mod_phi([q], p, n)
    for e in range(2 * p**n):
        monomial = [Fraction(0)] * e + [Fraction(1)]
        assert zeta_power(p, n, e).coeffs == reduce_mod_phi(monomial, p, n)


def fraction_str(coeffs):
    """An element's printed form, built from its Fraction coefficients."""
    terms = []
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        var = "z" if e == 1 else f"z^{e}"
        terms.append(str(c) if e == 0 else var if c == 1 else f"{c}*{var}")
    return " + ".join(terms) if terms else "0"


def fraction_product(a, b, p, n):
    schoolbook = [Fraction(0)] * (2 * _ring_dim(p, n) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            schoolbook[i + j] += ai * bj
    return reduce_mod_phi(schoolbook, p, n)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_ring_elements_are_integers_over_one_reduced_denominator(p, n):
    p = Prime(p)
    # Each operation against the same operation on Fraction coefficients:
    # the stored denominator is positive and in lowest terms, coeffs is the
    # Fraction result, str prints it, and == and hash follow coeffs.
    rng = random.Random(f"ring form {p} {n}")
    zero = CyclotomicElement.zero(p, n)
    built = [(zero, zero.coeffs)]
    for _ in range(8):
        a = random_element(rng, p, n)
        built.append((a, a.coeffs))
    for _ in range(40):
        (x, fx), (y, fy) = rng.choice(built), rng.choice(built)
        q = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        e = rng.randint(-2 * p**n, 2 * p**n)
        results = [
            (x + y, tuple(a + b for a, b in zip(fx, fy))),
            (x - y, tuple(a - b for a, b in zip(fx, fy))),
            (x * q, tuple(a * q for a in fx)),
            (x * y, fraction_product(fx, fy, p, n)),
            (eval_at_zeta({0: q}, p, n), reduce_mod_phi([q], p, n)),
            (zeta_power(p, n, e), reduce_mod_phi([Fraction(0)] * (e % p**n) + [1], p, n)),
        ]
        for z, fz in results:
            assert z.den > 0 and math.gcd(z.den, *z.nums) == 1
            assert z.coeffs == fz
            assert str(z) == fraction_str(fz)
        built += results
    for (x, fx), (y, fy) in zip(built, reversed(built)):
        assert (x == y) == (fx == fy)
        if fx == fy:
            assert hash(x) == hash(y)
    a, b = built[1][0], built[2][0]
    # one value reached by different routes
    for same in (b * a, (a + b - b) * b, from_coeffs(p, n, (a * b).coeffs)):
        assert same == a * b and hash(same) == hash(a * b)
    assert a * 3 * Fraction(1, 3) == a and a - a == zero and hash(a - a) == hash(zero)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_str_matches_the_fraction_rendering(p, n):
    # The integer rendering against fraction_str, which prints a Fraction per
    # coefficient; coefficients negative, zero, +-1 and not in lowest terms
    # against den.
    rng = random.Random(f"str {p} {n}")
    dim = _ring_dim(p, n)
    for _ in range(30):
        den = rng.choice([1, 2, p, 6, p**3, 12 * p])
        units = [0, den, -den, 2 * den, -3 * den]
        nums = [
            rng.choice(units) if rng.random() < 0.5 else rng.randint(-4 * den, 4 * den)
            for _ in range(dim)
        ]
        element = CyclotomicElement(p, n, tuple(nums), den)
        assert str(element) == fraction_str(element.coeffs)
    for c in (1, -1, Fraction(2, 4), Fraction(-9, 6), Fraction(5, p)):
        for e in (0, 1, dim - 1):
            element = from_coeffs(p, n, [0] * e + [c])
            assert str(element) == fraction_str(element.coeffs)
    assert str(CyclotomicElement.zero(p, n)) == "0"


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_fold_matches_long_division(p, n):
    # (e, c) pairs with negative exponents, exponents past p^n, repeats and
    # c = 0.  x^(p^n) = 1 in the ring, so the reference first multiplies by
    # a power of x^(p^n) that makes every exponent nonnegative, then divides.
    rng = random.Random(f"fold {p} {n}")
    order = p**n
    for _ in range(20):
        exponents = [rng.randint(-3 * order, 3 * order) for _ in range(rng.randint(0, 12))]
        exponents += rng.sample(exponents, min(3, len(exponents)))
        terms = [(e, rng.choice([0, rng.randint(-9, 9)])) for e in exponents]
        den = rng.randint(1, 2 * order)
        shift = -min([0, *exponents]) // order * order + order
        dense = [Fraction(0)] * (shift + 3 * order + 1)
        for e, c in terms:
            dense[e + shift] += Fraction(c, den)
        assert _fold(terms, p, n, den).coeffs == reduce_mod_phi(dense, p, n)
        assert _fold(iter(terms), p, n, den) == _fold(terms, p, n, den)


def test_mismatched_rings_raise():
    a = zeta_power(Prime(3), 1, 1)
    b = zeta_power(Prime(3), 2, 1)
    with pytest.raises(ValueError):
        _ = a + b
    with pytest.raises(ValueError):
        _ = a * b


def test_rational_value():
    p = Prime(3)
    elem = eval_at_zeta({0: Fraction(5, 9)}, p, 2)
    assert not any(elem.nums[1:])
    assert Fraction(elem.nums[0], elem.den) == Fraction(5, 9)
    assert any(zeta_power(p, 2, 1).nums[1:])


def test_levels_and_counts_below_their_range_are_refused():
    p = Prime(3)
    for n in (0, -1):
        with pytest.raises(ValueError, match="level n must be >= 1"):
            cyclo_poly(p, n)
        with pytest.raises(ValueError, match="level n must be >= 1"):
            zeta_power(p, n, 1)
    for product in (even_product, odd_product):
        with pytest.raises(ValueError, match="count must be >= 0"):
            product(p, -1)


def test_an_element_times_a_non_number_is_a_type_error():
    element = zeta_power(Prime(3), 2, 1)
    with pytest.raises(TypeError):
        element * "x"
    with pytest.raises(TypeError):
        "x" * element


def test_only_the_zero_element_is_zero():
    p = Prime(3)
    assert CyclotomicElement.zero(p, 2).is_zero()
    assert not zeta_power(p, 2, 1).is_zero()
    assert (zeta_power(p, 2, 1) - zeta_power(p, 2, 1)).is_zero()


@pytest.mark.parametrize(
    "build",
    [
        lambda: CyclotomicElement.zero(Prime(2), 40),
        lambda: zeta_power(Prime(2), 40, 1),
        lambda: eval_at_zeta({0: 1}, Prime(2), 40),
    ],
    ids=["zero", "zeta_power", "eval_at_zeta"],
)
def test_a_ring_past_the_cap_is_refused_before_it_is_built(build):
    # The level-40 ring at p = 2 has 2^40 roots of unity and 2^39 coefficients.
    refusal = "^2\\^40 exceeds the enumeration cap of 1000000 roots of unity$"
    with pytest.raises(ResourceCapError, match=refusal):
        build()
