"""The plus/minus distributions on Z_p: closed-form values, the character-sum
oracle, integration of step functions, the interpolation identities, and
the level checks of the oracle and of additivity.

The closed form is a digit test: the plus distribution gives a coset
a + p^n Z_p the value p^(-floor((n+2)/2)) exactly when the even-position
digits of a vanish, and zero otherwise; the minus distribution uses the
odd-position digits and exponent floor((n+3)/2).  The oracle recomputes
the same value from a root-of-unity character sum, which collapses to a
count of one residue class of a cyclotomic product's exponents; two half
products give that count, and it shares no code with the digit test.

The checks return the levels (base.Level) a verify suite prints: one per
sign and n, or from amice_level a list per sign tuple.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
from fractions import Fraction
from typing import Callable, Iterable

from .base import Level, Sign, Value, check_cap, level, pval, store_fields
from .cyclotomic import (
    CyclotomicElement,
    _fold,
    _indexed_product,
    even_product,
    odd_product,
)
from .digits import Prime, Residue, enumerate_R, in_S, residue_from_integer


def _is_negative_p_power(q: Fraction, p: int) -> bool:
    # 1/den is 1/p^e, e >= 1, just when den > 1 divides p^B, B = den's bit
    # length: p^B > den, so p^B holds every power of p up to den.
    den = q.denominator
    return q.numerator == 1 and den > 1 and p ** den.bit_length() % den == 0


class DistValue(Value, fields=("p", "value")):
    """A distribution value: exactly zero or a pure negative power of p."""

    __slots__ = ()

    def __init__(self, p: Prime, value: Fraction) -> None:
        if value and not _is_negative_p_power(value, p):
            raise ValueError(f"{value} is neither 0 nor a negative power of {p}")
        store_fields(self, (p, value))

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def p_valuation(self) -> int | None:
        return None if self.is_zero else pval(self.value, self.p)

    def __mul__(self, other: "DistValue") -> "DistValue":
        if self.p != other.p:
            raise ValueError("values belong to different primes")
        return DistValue(self.p, self.value * other.value)

    def to_json_dict(self) -> dict:
        return {
            "num": str(self.value.numerator),
            "den": str(self.value.denominator),
            "p_val": self.p_valuation,
            "zero": self.is_zero,
        }


class StepFunction(Value, fields=("p", "n", "values")):
    """A function on Z_p constant on cosets mod p^n: the tuple of its p^n
    values, values[a] the value on the coset a + p^n Z_p, 0 <= a < p^n.

    Values may be rationals or cyclotomic elements; rational scalars act on
    either, so integration lands in whatever ring the values inhabit.
    """

    __slots__ = ()

    def __init__(self, p: Prime, n: int, values: Iterable[object]) -> None:
        _require_level(p, n)
        values = tuple(values)
        if len(values) != p**n:
            raise ValueError(f"expected {p**n} coset values, got {len(values)}")
        store_fields(self, (p, n, values))

    @classmethod
    def from_function(cls, p: Prime, n: int, fn: Callable[[int], object]) -> "StepFunction":
        _require_level(p, n)
        return cls(p, n, map(fn, range(p**n)))


def mass_exponent(sign: Sign, n: int) -> int:
    """The e with p^(-e) the value of every coset mod p^n in the support:
    floor((n+2)/2) for plus, floor((n+3)/2) for minus."""
    return (n + 2 + sign.parity) // 2


def mu_value(sign: Sign, r: Residue) -> DistValue:
    """Closed-form distribution value of the coset r, by the digit test."""
    if in_S(sign, r.digits):
        return DistValue(r.p, Fraction(1, r.p ** mass_exponent(sign, r.n)))
    return DistValue(r.p, Fraction(0))


def _require_level(p: Prime, n: int) -> None:
    if n < 1:
        raise ValueError("modulus exponent n must be >= 1")
    check_cap(p, n, "cosets")


def digit_test_level(sign: Sign, p: Prime, n: int, inside, outside) -> list:
    """A list indexed by the cosets a mod p^n: `inside` at each coset whose
    digits pass the sign's digit test, `outside` at the others.

    The test runs one digit position at a time over the whole level, from
    the units digit up: with a = r + p^j d and r < p^j, the level over the
    positions below j + 1 repeats the level over the positions below j once
    for each digit d at position j, and at a tested position only d = 0
    keeps it.  The list grows in place.  Callers place one object per value
    (a mass, a numerator, a printed text), so each distinct value is built
    once, not once per coset.
    """
    _require_level(p, n)
    level = [inside]
    for position in range(n):
        if position % 2 == sign.parity:
            level.extend(itertools.repeat(outside, (p - 1) * len(level)))
        else:
            level *= p
    return level


def mu_level(sign: Sign, p: Prime, n: int) -> list[Fraction]:
    """mu_value of every coset mod p^n, indexed by its representative a.

    A level has only two values, its mass p^(-mass_exponent) and zero, and
    the list shares one object of each, placed by digit_test_level.
    """
    _require_level(p, n)  # before p^e is built, so a bad n raises what it should
    return digit_test_level(sign, p, n, Fraction(1, p ** mass_exponent(sign, n)), Fraction(0))


def _oracle_levels(sign: Sign, n: int) -> tuple[int, int]:
    # The even (plus) or odd (minus) cyclotomic levels behind the level-n
    # values, as their count K and the first of them.
    return (n + sign.parity) // 2, 2 - sign.parity


def mu_oracle(sign: Sign, r: Residue) -> DistValue:
    """The same value recomputed by a root-of-unity character sum.

    The character sum of the product of the K even (plus) or odd (minus)
    cyclotomic levels, shifted by -a, collapses to p^n times the count of
    the product's exponents (each of coefficient 1) congruent to a mod p^n,
    and the value is that over p^(n + K + 1): the class count over
    p^(K + 1).  Two half products give it: the low half's exponents are
    counted by class mod p^n, and each high exponent e reads the count at
    a - e, in p^floor(K/2) + p^ceil(K/2) steps instead of the whole
    product's p^K.  Independent of the digit test.
    """
    p, n, a = r.p, r.n, r.value
    count, first = _oracle_levels(sign, n)
    low, order = count // 2, p**n
    # The larger half first: its cap check then refuses before any expansion.
    high = _indexed_product(p, count - low, first + 2 * low)
    folded = collections.Counter(e % order for e in _indexed_product(p, low, first))
    hits = sum(folded[(a - e) % order] for e in high)
    return DistValue(p, Fraction(hits, p ** (count + 1)))


def mu_oracle_level(sign: Sign, p: Prime, n: int) -> list[DistValue]:
    """mu_oracle of every coset mod p^n, indexed by its representative a.

    The value at the coset a is the count of the product's exponents
    congruent to a mod p^n over p^(K + 1), as in mu_oracle, so the product
    is expanded once and its exponents counted by class mod p^n: p^n +
    p^ceil(n/2) steps for the whole level instead of one count per coset.
    """
    _require_level(p, n)
    count, first = _oracle_levels(sign, n)
    order, den = p**n, p ** (count + 1)
    folded = [0] * order
    for e in _indexed_product(p, count, first):
        folded[e % order] += 1
    # One DistValue per distinct sum, shared by its cosets: each value that
    # appears is still validated, once.
    values = {c: DistValue(p, Fraction(c, den)) for c in set(folded)}
    return list(map(values.__getitem__, folded))


def total_mass(sign: Sign, p: Prime) -> Fraction:
    """The measure of all of Z_p, computed over the level-1 cosets."""
    return sum(
        (mu_value(sign, residue_from_integer(a, p, 1)).value for a in range(p)),
        Fraction(0),
    )


def support_masses(sign: Sign, p: Prime, n: int) -> dict[int, Fraction]:
    """Map each coset a mod p^n that carries mass to that mass, in increasing a.

    The support is enumerated directly: it is R(floor(n/2), +) or
    R(ceil(n/2), -), whose elements already lie below p^n, so only
    p^floor(n/2) or p^ceil(n/2) of the p^n cosets are visited.  Every
    enumerated coset's n digits still pass the digit test before it gets
    the level's one mass 1/p^mass_exponent, and the call raises rather
    than skips if one of them fails it or if the masses do not add up to
    the total mass 1/p, so this path can neither drop nor add a coset
    without failing loudly.
    """
    support = sorted(enumerate_R(p, (n + sign.parity) // 2, sign))
    modulus, den = p**n, p ** mass_exponent(sign, n)
    mass, masses = Fraction(1, den), {}
    for a in support:
        digits, rest = [], a
        for _ in range(n):
            rest, digit = divmod(rest, p)
            digits.append(digit)
        if a >= modulus or not in_S(sign, digits):
            raise RuntimeError(f"enumerated coset {a} mod {p}^{n} lies outside the support")
        masses[a] = mass
    if len(masses) * p != den:  # the masses add up to len(masses) / den
        raise RuntimeError(f"support masses mod {p}^{n} do not add up to 1/{p}")
    return masses


def integrate(sign: Sign, f: StepFunction):
    """Integrate a step function: the finite sum of coset values times masses,
    taken over the support only.

    Returns a rational for rational-valued f and a cyclotomic element for
    element-valued f.
    """
    terms = (f.values[a] * mass for a, mass in support_masses(sign, f.p, f.n).items())
    # The zero coset always carries mass, so there is always a first term.
    return functools.reduce(operator.add, terms)


def interpolation_rhs(sign: Sign, k: int, p: Prime, n: int) -> CyclotomicElement:
    """The closed-form value of the plus/minus logarithm at zeta_k - 1, as an
    element of the level-n ring (1 <= k <= n).

    Zero when the parity of k disagrees with the sign; otherwise the
    product's prefactor times the cyclotomic values at zeta_k.  Each level
    m > k gives Phi(p, m)(zeta_k) = p, and those factors cancel against the
    prefactor, so only the levels below k are multiplied out, as one
    product whose exponents, each scaled to the level-n root, are folded
    once with coefficient 1 over p^(k//2 + 1) whatever n is.
    """
    if not 1 <= k <= n:
        raise ValueError("require 1 <= k <= n")
    if k % 2 == sign.parity:
        return CyclotomicElement.zero(p, n)
    check_cap(p, n, "roots of unity")
    # Plus takes odd k and the even levels 2, 4, ..., k - 1; minus takes
    # even k and the odd levels 1, 3, ..., k - 1.
    product = (even_product, odd_product)[sign.parity](p, k // 2)
    zeta_exp = p ** (n - k)  # zeta_k as a power of the level-n root
    return _fold(((e * zeta_exp, 1) for e in product), p, n, p ** (k // 2 + 1))


def amice_level(d: int, p: Prime, n: int) -> dict[tuple[Sign, ...], list[Level]]:
    """The level-n interpolation identity on Z_p^d, d of 1 or 2, for every
    tuple of d signs in itertools.product order: a list of levels for each,
    one labelled by k in 1..n, or one per k1 labelled by k2.

    The left side integrates x -> zeta_k1^x1 ... zeta_kd^xd against the
    product of the coordinates' distributions, which give every support
    coset one mass 1/p^mass_exponent: each coordinate's support cosets
    counted by exponent, pairs at their exponent sums, over one power of p.
    The right side is the product of the one-variable closed forms.  Each
    sign's support and its n right sides are built once, for every sign
    tuple, and a case whose two sides are equal shares one text between them.
    """
    if not (1 <= d <= 2 and n >= 1):
        raise ValueError("require dimension 1 or 2 and n >= 1")
    order, coordinates = p**n, {}
    for sign in Sign:
        support = support_masses(sign, p, n)
        # Per k, the support cosets counted by their zeta_k^a as a power of the level-n root.
        counts = [
            collections.Counter(a * p ** (n - k) % order for a in support).items()
            for k in range(1, n + 1)
        ]
        rhs = [interpolation_rhs(sign, k, p, n) for k in range(1, n + 1)]
        coordinates[sign] = mass_exponent(sign, n), counts, rhs
    levels = {}
    for signs in itertools.product(Sign, repeat=d):
        exponents, counts, rhs = zip(*map(coordinates.__getitem__, signs))
        den, label, texts = p ** sum(exponents), "".join(map(str, signs)), []
        for ks in itertools.product(range(1, n + 1), repeat=d):
            terms = counts[0][ks[0] - 1]
            if d == 2:  # each pair at its exponent sum, which _fold reduces mod p^n
                terms = [(e1 + e2, c1 * c2) for e1, c1 in terms for e2, c2 in counts[1][ks[1] - 1]]
            lhs = _fold(terms, p, n, den)
            factors = [r[k - 1] for r, k in zip(rhs, ks)]
            # A right side of the wrong parity is zero, and so is the product.
            zero = next((f for f in factors if f.is_zero()), None)
            expected = functools.reduce(operator.mul, factors) if zero is None else zero
            passed, text = lhs == expected, str(expected)  # two equal sides print one text
            texts.append((text, text if passed else str(lhs), passed))
        # One level labelled by k, or one per k1 labelled by k2: n cases each, as built.
        prefixes = [f"k1={k1} k2=" for k1 in range(1, n + 1)] if d == 2 else ["k="]
        levels[signs] = [
            level(f"sign={label} {prefix}", f" n={n}", cases, cases.__getitem__, 1)
            for prefix, cases in zip(prefixes, (texts[i : i + n] for i in range(0, n**d, n)))
        ]
    return levels


def verify_oracle(sign: Sign, p: Prime, n: int) -> Level:
    """Check the character-sum oracle against the closed form at every coset
    mod p^n: a level of one case per coset a."""
    oracle, values = mu_oracle_level(sign, p, n), mu_level(sign, p, n)
    # Both levels share one object per distinct value, so each pair of
    # objects, keyed by their ids, is printed and compared once.
    return level(
        f"sign={sign.value} n={n} a=",
        "",
        list(zip(map(id, oracle), map(id, values), strict=True)),
        lambda a: (str(oracle[a].value), str(values[a]), oracle[a].value == values[a]),
    )


def verify_additivity(sign: Sign, p: Prime, n: int) -> Level:
    """Check that refining every coset mod p^n into its p children mod p^(n+1)
    preserves the assigned mass: a level of one case per coset a."""
    # Both levels as integer numerators over the children's denominator
    # p^e, placed by the digit test: a child in the support has numerator
    # 1, a parent p^(e - its own mass exponent).
    e = mass_exponent(sign, n + 1)
    children = digit_test_level(sign, p, n + 1, 1, 0)
    parents = digit_test_level(sign, p, n, p ** (e - mass_exponent(sign, n)), 0)
    modulus, den = p**n, p**e
    # The children of a mod p^n are a + j p^n, j < p: the j-th block of p^n.
    totals = map(sum, zip(*(children[j * modulus : (j + 1) * modulus] for j in range(p))))
    pairs = list(zip(parents, totals))

    def text(a: int) -> tuple[str, str, bool]:
        parent, total = pairs[a]
        return str(Fraction(parent, den)), str(Fraction(total, den)), parent == total

    # A level has few distinct (parent, total) pairs; each is printed once.
    return level(f"n={n} sign={sign.value} a=", f" mod {p}^{n}", pairs, text)
