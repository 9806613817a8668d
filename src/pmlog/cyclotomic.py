"""Exact arithmetic in p-power cyclotomic rings and root-of-unity sums.

The p^n-th cyclotomic polynomial is taken in the p-power form
Phi(p, n)(T) = sum_{t < p} T^(p^(n-1) t).  The quotient ring
Q[x] / Phi(p, n)(x) is represented densely on the power basis
1, x, ..., x^(d-1) with d = p^(n-1)(p-1), as integer numerators over one
denominator (`coeffs` views them as Fractions); the class of x is the
distinguished primitive p^n-th root of unity zeta.  Every p^n-th root of
unity, primitive or not, is a power of zeta, so a single ring per (p, n)
carries all the character sums.  A ring whose p^n roots of unity, more
than its d coefficients, exceed the enumeration cap is refused on entry:
by zero, eval_at_zeta and distribution.interpolation_rhs, not by _fold.

Reduction uses two facts: x^(p^n) = 1 in the quotient, and
x^d = -(1 + x^h + x^(2h) + ... + x^((p-2)h)) with h = p^(n-1), which
rewrites any monomial as at most p-1 basis terms.

A product of even- or odd-indexed Phi's has p^count distinct exponents,
each with coefficient 1 (every level puts one base-p digit at its own
position), so it is kept as the list of its exponents.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

from .base import Value, check_cap, store_fields
from .digits import Prime


def cyclo_poly(p: Prime, n: int) -> dict[int, int]:
    """The p^n-th cyclotomic polynomial: p unit monomials at multiples of p^(n-1)."""
    if n < 1:
        raise ValueError("level n must be >= 1")
    h = p ** (n - 1)
    return {h * t: 1 for t in range(p)}


def _indexed_product(p: Prime, count: int, first: int) -> list[int]:
    # The exponents of the product of Phi(p, m), m = first, first + 2, ...,
    # first + 2(count - 1); Phi's at distinct levels give distinct exponents.
    if count < 0:
        raise ValueError("count must be >= 0")
    check_cap(p, count, "product terms")
    prod = [0]
    for m in range(first, first + 2 * count, 2):
        prod = [e + f for f in cyclo_poly(p, m) for e in prod]
    return prod


def even_product(p: Prime, count: int) -> list[int]:
    """The exponents of the product of the cyclotomic polynomials at levels 2, 4, ..., 2*count."""
    return _indexed_product(p, count, first=2)


def odd_product(p: Prime, count: int) -> list[int]:
    """The exponents of the product of the cyclotomic polynomials at levels 1, 3, ..., 2*count-1."""
    return _indexed_product(p, count, first=1)


def _ring_dim(p: int, n: int) -> int:
    return p ** (n - 1) * (p - 1)


class CyclotomicElement(Value, fields=("p", "level", "nums", "den")):
    """An element of Q[x] / Phi(p, level)(x) on the power basis of x: integer
    numerators over one positive denominator, in lowest terms on construction."""

    __slots__ = ()

    def __init__(self, p: Prime, level: int, nums: tuple[int, ...], den: int = 1) -> None:
        if level < 1:
            raise ValueError("level must be >= 1")
        if len(nums) != _ring_dim(p, level):
            raise ValueError(f"expected {_ring_dim(p, level)} coefficients, got {len(nums)}")
        if den == 0:
            raise ValueError("the denominator must be nonzero")
        g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
        if g != 1:
            nums, den = tuple(c // g for c in nums), den // g
        store_fields(self, (p, level, nums, den))

    @classmethod
    def zero(cls, p: Prime, n: int) -> "CyclotomicElement":
        check_cap(p, n, "roots of unity")
        return cls(p, n, (0,) * _ring_dim(p, n))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced Fractions, built afresh on each read."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    # A field read is a property call, so each operation unpacks _fields once.
    def _check_same_ring(self, other: "CyclotomicElement") -> None:
        if self._fields[:2] != other._fields[:2]:
            raise ValueError("elements live in different cyclotomic rings")

    def __add__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check_same_ring(other)
        p, level, nums, a = self._fields
        _, _, other_nums, b = other._fields
        nums = tuple(x * b + y * a for x, y in zip(nums, other_nums))
        return CyclotomicElement(p, level, nums, a * b)

    def __sub__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        return self + other * -1

    def __mul__(self, other):
        p, level, nums, den = self._fields
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            nums = tuple(c * q.numerator for c in nums)
            return CyclotomicElement(p, level, nums, den * q.denominator)
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        self._check_same_ring(other)
        _, _, other_nums, other_den = other._fields
        conv = [0] * (2 * len(nums) - 1)
        right = [(j, c) for j, c in enumerate(other_nums) if c]
        for i, ci in enumerate(nums):
            if ci:
                for j, cj in right:
                    conv[i + j] += ci * cj
        return _fold(enumerate(conv), p, level, den * other_den)

    # Python calls __rmul__ only when the left operand is not an element.
    __rmul__ = __mul__

    def __str__(self) -> str:
        _, _, nums, den = self._fields
        terms = []
        for e, num in enumerate(nums):
            if num == 0:
                continue
            # Printed as str(Fraction(num, den)) prints it: reduced, "num" or "num/den".
            g = math.gcd(num, den)
            c = str(num // g) if g == den else f"{num // g}/{den // g}"
            if e == 0:
                terms.append(c)
            else:
                var = "z" if e == 1 else f"z^{e}"
                terms.append(var if num == den else f"{c}*{var}")
        return " + ".join(terms) if terms else "0"


def zeta_power(p: Prime, n: int, e: int) -> CyclotomicElement:
    """The canonical reduction of zeta^e in the level-n ring; e may be negative."""
    if n < 1:
        raise ValueError("level n must be >= 1")
    return eval_at_zeta({e: 1}, p, n)


def _fold(terms: Iterable[tuple[int, int]], p: Prime, n: int, den: int) -> CyclotomicElement:
    # The element sum of c x^e / den over integer (e, c) pairs, each x^e
    # reduced canonically: x^(e mod p^n) is a basis term below d, and past
    # it minus the p - 1 basis terms x^(e - d + t h), t < p - 1.
    h = p ** (n - 1)
    order, d = h * p, h * (p - 1)
    nums = [0] * d
    for e, c in terms:
        if c:
            e %= order
            if e < d:
                nums[e] += c
            else:
                for idx in range(e - d, d, h):
                    nums[idx] -= c
    return CyclotomicElement(p, n, tuple(nums), den)


def eval_at_zeta(poly: Mapping[int, Fraction | int], p: Prime, n: int) -> CyclotomicElement:
    """Substitute x -> zeta into a sparse polynomial and reduce.

    Takes any exponent-to-coefficient mapping; exponents may be negative,
    coefficients integral or rational.  The coefficients are put over their
    one least common denominator and the integer numerators folded onto the
    power basis by _fold; zeta_power comes here, ring products call _fold.
    """
    check_cap(p, n, "roots of unity")
    den = math.lcm(*(c.denominator for c in poly.values()))
    return _fold(((e, c.numerator * (den // c.denominator)) for e, c in poly.items()), p, n, den)


def character_sum(p: Prime, n: int, weights: Mapping[int, Fraction | int]) -> Fraction:
    """Sum over all p^n-th roots of unity zeta of sum_e weights[e] * zeta^(k e).

    Uses the collapse law: summing zeta^(k m) over the full group of p^n-th
    roots gives p^n when p^n divides m and 0 otherwise, so the double sum
    reduces to the weights at exponents divisible by p^n.  The literal
    root-by-root evaluation is the independent check in
    tests/test_cyclotomic.py.  The program's oracles count that collapsed
    class directly and do not call this; it is the tests' reference.
    """
    order = p**n
    total = Fraction(0)
    for e, w in weights.items():
        if e % order == 0:
            total += w
    return order * total
