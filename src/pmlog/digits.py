"""Exact residue arithmetic mod p^n and the digit-pattern support sets.

A residue class a + p^n Z_p is stored as its little-endian base-p digit
vector (d_0 is the units digit), so parity-of-position tests are direct.
The plus support set S(n, +) collects residues whose even-position digits
all vanish; S(n, -) requires the odd-position digits to vanish.  The
companion integer sets R(count, +-) hold the sums of digits placed on odd
(plus) or even (minus) p-power positions; reducing them mod p^n recovers
the S sets, which is checked in the test suite.
"""

from __future__ import annotations

import itertools
import operator

from .base import Sign, Value, check_cap, store_fields


# Miller-Rabin with the first 13 primes as bases is exact for every
# integer below PRIME_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    if p >= PRIME_LIMIT:
        raise ValueError(f"{p} is too large to certify as prime (the limit is {PRIME_LIMIT})")
    # p - 1 = d 2^s with d odd: s counts the trailing zero bits.
    s = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> s
    for q in _MR_BASES:
        x = pow(q, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Prime(int):
    """A prime integer below PRIME_LIMIT, checked deterministically on
    construction (Miller-Rabin with bases that are exact below the limit)."""

    __slots__ = ()

    def __new__(cls, p: int) -> "Prime":
        p = operator.index(p)  # an integer type, not a float or a string
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        return super().__new__(cls, p)


class Residue(Value, fields=("p", "n", "digits")):
    """A congruence class a mod p^n as a little-endian base-p digit vector."""

    __slots__ = ()

    def __init__(self, p: Prime, n: int, digits: tuple[int, ...]) -> None:
        if n < 1:
            raise ValueError("modulus exponent n must be >= 1")
        if len(digits) != n:
            raise ValueError(f"expected {n} digits, got {len(digits)}")
        if min(digits) < 0 or max(digits) >= p:
            raise ValueError(f"digits must lie in [0, {p - 1}]")
        store_fields(self, (p, n, digits))

    @property
    def value(self) -> int:
        """The canonical representative in [0, p^n)."""
        total = 0
        for d in reversed(self.digits):
            total = total * self.p + d
        return total


def residue_from_integer(a: int, p: Prime, n: int) -> Residue:
    """Reduce a into [0, p^n) and expand it in base p.

    Negative and oversized integers are reduced silently, so callers may
    iterate with signed loop counters: n floor divisions by p leave the
    digits of a mod p^n, and Residue refuses an n below 1.
    """
    digits = []
    for _ in range(n):
        a, d = divmod(a, p)
        digits.append(d)
    return Residue(p=p, n=n, digits=tuple(digits))


def digit_strings(p: Prime, n: int) -> list[str]:
    """The little-endian digits of every residue mod p^n joined by "|", in
    increasing order of its representative; n = 0 gives [""]."""
    if n < 0:
        raise ValueError("digit count n must be >= 0")
    # product() varies its last place fastest; that place is the units digit.
    places = itertools.product(map(str, range(p)), repeat=n)
    return ["|".join(high_first[::-1]) for high_first in places]


def in_S(sign: Sign, digits: tuple[int, ...]) -> bool:
    """The digit test: True iff the little-endian digits vanish at every
    position of the sign's parity, that is, the residue lies in S(n, sign)."""
    return not any(digits[sign.parity :: 2])


def in_S_plus(r: Residue) -> bool:
    """True iff every even-position digit of r vanishes."""
    return in_S(Sign.PLUS, r.digits)


def in_S_minus(r: Residue) -> bool:
    """True iff every odd-position digit of r vanishes."""
    return in_S(Sign.MINUS, r.digits)


def enumerate_R(p: Prime, count: int, sign: Sign) -> set[int]:
    """All sums over digit choices a_l in [0, p-1] of a_l p^(2l+1) (plus)
    or a_l p^(2l) (minus), for l < count.  count = 0 gives {0}.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    check_cap(p, count, "elements")
    result = {0}
    for l in range(count):
        step = p ** (2 * l + 1 - sign.parity)  # the positions S leaves free
        result = {r + a * step for r in result for a in range(p)}
    return result
