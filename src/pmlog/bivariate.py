"""Two-variable plus/minus distributions on Z_p x Z_p.

The four two-variable distributions are products of one-variable ones,
coordinate by coordinate; the value formula, the support shape and the
two-dimensional interpolation identity all factor accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .base import ENUMERATION_CAP, ResourceCapError, Row, Sign
from .cyclotomic import eval_at_zeta
from .digits import Prime, Residue
from .distribution import DistValue, interpolation_rhs, mu_oracle, mu_value, support_masses


@dataclass(frozen=True)
class BiSign:
    """An ordered pair of signs, one per coordinate."""

    first: Sign
    second: Sign

    @classmethod
    def from_str(cls, token: str) -> "BiSign":
        if len(token) != 2:
            raise ValueError(f"expected a two-character sign, got {token!r}")
        return cls(Sign.from_str(token[0]), Sign.from_str(token[1]))

    def __str__(self) -> str:
        return self.first.value + self.second.value


@dataclass(frozen=True)
class BiResidue:
    """A pair of cosets (a mod p^n, b mod p^m) over one common prime."""

    first: Residue
    second: Residue

    def __post_init__(self) -> None:
        if self.first.p != self.second.p:
            raise ValueError("coordinates must share one prime")


def bimu_value(s: BiSign, r: BiResidue) -> DistValue:
    """Product of the two one-variable closed-form values."""
    return mu_value(s.first, r.first) * mu_value(s.second, r.second)


def bimu_oracle(s: BiSign, r: BiResidue) -> DistValue:
    """Product of the two one-variable character-sum oracles."""
    return mu_oracle(s.first, r.first) * mu_oracle(s.second, r.second)


def biamice_check(s: BiSign, p: Prime, k1: int, k2: int, n: int) -> Row:
    """Check the two-dimensional interpolation identity at (zeta_k1, zeta_k2),
    as one (input, expected, actual, passed) row.

    Sums zeta_k1^a zeta_k2^b times the distribution value over the coset
    pairs mod p^n that carry mass (the product of the two coordinates'
    supports), inside the level-n ring, and compares with the product of
    the two one-variable closed forms.
    """
    if not (1 <= k1 <= n and 1 <= k2 <= n):
        raise ValueError("require 1 <= k1, k2 <= n")
    if p ** (2 * n) > ENUMERATION_CAP:
        raise ResourceCapError(f"{p}^{2 * n} coset pairs exceed the enumeration cap")
    e1, e2 = p ** (n - k1), p ** (n - k2)
    second = support_masses(s.second, p, n)
    weights: dict[int, Fraction] = {}
    for a, va in support_masses(s.first, p, n).items():
        for b, vb in second.items():
            e = e1 * a + e2 * b
            weights[e] = weights.get(e, Fraction(0)) + va * vb
    lhs = eval_at_zeta(weights, p, n)
    rhs = interpolation_rhs(s.first, k1, p, n) * interpolation_rhs(s.second, k2, p, n)
    return f"sign={s} k1={k1} k2={k2} n={n}", str(rhs), str(lhs), lhs == rhs
