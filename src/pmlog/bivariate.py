"""Two-variable plus/minus distributions on Z_p x Z_p.

The four two-variable distributions are products of one-variable ones,
coordinate by coordinate; the value formula, the support shape and the
two-dimensional interpolation identity all factor accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import ENUMERATION_CAP, ResourceCapError, Row, Sign
from .digits import Prime, Residue
from .distribution import DistValue, amice_level, mu_oracle, mu_value


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


def biamice_check(s: BiSign, p: Prime, n: int) -> list[Row]:
    """The two-dimensional interpolation identity at level n: one row per
    (k1, k2), the one-variable check taken coordinate by coordinate."""
    if p ** (2 * n) > ENUMERATION_CAP:
        raise ResourceCapError(f"{p}^{2 * n} coset pairs exceed the enumeration cap")
    return amice_level((s.first, s.second), p, n)
