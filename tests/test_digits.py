"""Residue digit arithmetic and the digit-pattern support sets."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmlog.base import ResourceCapError, Sign
from pmlog.digits import (
    PRIME_LIMIT,
    Prime,
    Residue,
    digit_strings,
    enumerate_R,
    in_S_minus,
    in_S_plus,
    residue_from_integer,
)

PRIMES = [Prime(2), Prime(3), Prime(5)]
WIDE_PRIMES = PRIMES + [Prime(7), Prime(11), Prime(13)]


def brute_R(p, count, parity):
    """Independent expansion of the digit-sum definition."""
    out = set()
    for digits in itertools.product(range(p), repeat=count):
        out.add(sum(d * p ** (2 * l + parity) for l, d in enumerate(digits)))
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 97])
def test_prime_accepts_primes(p):
    assert Prime(p) == p


# Besides small cases: Carmichael 561 and strong pseudoprimes to base 2
# (2047), to bases 2, 3, 5, 7 (3215031751), to the first nine prime bases
# (3825123056546413051) and to the first twelve (318665857834031151167461).
@pytest.mark.parametrize(
    "p",
    [-3, 0, 1, 4, 6, 9, 15, 100]
    + [561, 2047, 3215031751, 3825123056546413051, 318665857834031151167461],
)
def test_prime_rejects_nonprimes(p):
    with pytest.raises(ValueError, match=f"^{p} is not prime$"):
        Prime(p)


def test_prime_accepts_a_large_prime_quickly():
    start = time.perf_counter()
    assert Prime(2**61 - 1) == 2**61 - 1
    assert time.perf_counter() - start < 0.1


def test_prime_matches_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

    def accepted(n):
        try:
            Prime(n)
        except ValueError:
            return False
        return True

    assert [n for n in range(10**4) if accepted(n)] == [
        n for n in range(10**4) if by_trial_division(n)
    ]


def test_prime_rejects_candidates_past_the_limit():
    # the limit is itself a strong pseudoprime to all thirteen bases
    with pytest.raises(ValueError):
        Prime(PRIME_LIMIT)
    with pytest.raises(ValueError, match="too large"):
        Prime(2**89 - 1)  # a Mersenne prime


def test_residue_from_integer_examples():
    assert residue_from_integer(10, Prime(3), 3).digits == (1, 0, 1)
    assert residue_from_integer(0, Prime(5), 2).digits == (0, 0)
    assert residue_from_integer(-1, Prime(2), 3).digits == (1, 1, 1)


def test_residue_silent_reduction():
    p = Prime(3)
    assert residue_from_integer(27 + 5, p, 3).value == 5
    assert residue_from_integer(-4, p, 2).value == 5


def test_residue_validation():
    p = Prime(3)
    for n in (0, -1, -10):
        with pytest.raises(ValueError, match="modulus exponent n must be >= 1"):
            residue_from_integer(0, p, n)
    with pytest.raises(ValueError):
        Residue(p=p, n=2, digits=(1,))
    with pytest.raises(ValueError):
        Residue(p=p, n=2, digits=(3, 0))
    with pytest.raises(ValueError):
        Residue(p=p, n=2, digits=(-1, 0))


@pytest.mark.parametrize("p", PRIMES)
def test_residue_bijection(p):
    for n in range(1, 5):
        seen = set()
        for a in range(p**n):
            r = residue_from_integer(a, p, n)
            assert r.value == a
            seen.add(r.digits)
        assert len(seen) == p**n


@pytest.mark.parametrize("p", WIDE_PRIMES)
def test_cosets_walk_every_residue_in_order(p):
    # The coset walk, digit_strings, gives every residue's digits in order.
    assert digit_strings(p, 0) == [""]
    n = 1
    while p**n <= 20000:
        expected = ["|".join(map(str, residue_from_integer(a, p, n).digits)) for a in range(p**n)]
        assert digit_strings(p, n) == expected
        n += 1


def test_cosets_validate_the_exponent():
    with pytest.raises(ValueError, match="digit count n must be >= 0"):
        digit_strings(Prime(3), -1)


@pytest.mark.parametrize("p", WIDE_PRIMES)
def test_residue_digits_are_those_of_a_mod_p_to_the_n(p):
    rng = random.Random(p)
    for n in (1, 2, 5, 9):
        for a in [0, -1, p**n, -(p**n), p ** (3 * n) + 1] + [
            rng.randrange(-(p ** (2 * n)), p ** (2 * n)) for _ in range(20)
        ]:
            assert residue_from_integer(a, p, n).value == a % p**n, (a, n)


def test_prime_refuses_a_non_integer():
    for p in (7.9, 7.0, "7", Fraction(7)):
        with pytest.raises(TypeError):
            Prime(p)
    assert Prime(Prime(7)) == 7


@given(
    a=st.integers(min_value=-(10**12), max_value=10**12),
    p=st.sampled_from([2, 3, 5, 7]),
    n=st.integers(min_value=1, max_value=8),
)
def test_residue_roundtrip_hypothesis(a, p, n):
    r = residue_from_integer(a, Prime(p), n)
    assert r.value == a % p**n
    assert len(r.digits) == n


def test_in_S_plus_examples():
    assert in_S_plus(residue_from_integer(3, Prime(3), 3)) is True
    assert in_S_plus(residue_from_integer(4, Prime(3), 3)) is False
    assert in_S_plus(residue_from_integer(0, Prime(2), 1)) is True


def test_in_S_minus_examples():
    p3 = Prime(3)
    for a in range(3):
        assert in_S_minus(residue_from_integer(a, p3, 1)) is True
    assert in_S_minus(residue_from_integer(5, p3, 2)) is False
    assert in_S_minus(residue_from_integer(5, Prime(2), 4)) is True


@pytest.mark.parametrize("p", WIDE_PRIMES)
def test_S_membership_matches_R_reduction(p):
    # S(n, +) is exactly the reduction of R(floor(n/2), +) mod p^n, and
    # S(n, -) the reduction of R(floor((n+1)/2), -).
    n = 1
    while p**n <= 20000:
        cosets = [residue_from_integer(a, p, n) for a in range(p**n)]
        r_plus = enumerate_R(p, n // 2, Sign.PLUS)
        r_minus = enumerate_R(p, (n + 1) // 2, Sign.MINUS)
        assert {r.value for r in cosets if in_S_plus(r)} == {b % p**n for b in r_plus}
        assert {r.value for r in cosets if in_S_minus(r)} == {b % p**n for b in r_minus}
        n += 1


@pytest.mark.parametrize("p", PRIMES)
def test_S_cardinalities(p):
    for n in range(1, 6):
        if p**n > 20000:
            continue
        plus = sum(1 for a in range(p**n) if in_S_plus(residue_from_integer(a, p, n)))
        minus = sum(1 for a in range(p**n) if in_S_minus(residue_from_integer(a, p, n)))
        assert plus == p ** (n // 2)  # one free digit per odd position below n
        assert minus == p ** ((n + 1) // 2)


def test_enumerate_R_examples():
    assert enumerate_R(Prime(2), 1, Sign.PLUS) == {0, 2}
    assert enumerate_R(Prime(3), 2, Sign.MINUS) == {0, 1, 2, 9, 10, 11, 18, 19, 20}
    assert enumerate_R(Prime(5), 0, Sign.PLUS) == {0}


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("count", [0, 1, 2, 3])
def test_enumerate_R_matches_definition(p, count):
    assert enumerate_R(p, count, Sign.PLUS) == brute_R(p, count, 1)
    assert enumerate_R(p, count, Sign.MINUS) == brute_R(p, count, 0)
    assert len(enumerate_R(p, count, Sign.PLUS)) == p**count


def test_enumerate_R_cap():
    with pytest.raises(ResourceCapError):
        enumerate_R(Prime(2), 21, Sign.PLUS)


def test_enumerate_R_rejects_negative_count():
    with pytest.raises(ValueError):
        enumerate_R(Prime(2), -1, Sign.PLUS)
