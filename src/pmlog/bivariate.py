"""Two-variable plus/minus distributions on Z_p x Z_p.

The four two-variable distributions are products of one-variable ones,
coordinate by coordinate; the value formula, the support shape and the
two-dimensional interpolation identity all factor accordingly.
"""

from __future__ import annotations

from .base import Row, Sign, Value, store, store_fields
from .digits import Prime, Residue
from .distribution import DistValue, amice_level, mu_oracle, mu_value


class BiSign(Value):
    """An ordered pair of signs, one per coordinate."""

    __slots__ = ("first", "second")

    def __init__(self, first: Sign, second: Sign) -> None:
        store(self, "first", first)
        store(self, "second", second)
        store_fields(self, (first, second))

    @classmethod
    def from_str(cls, token: str) -> "BiSign":
        if len(token) != 2:
            raise ValueError(f"expected a two-character sign, got {token!r}")
        return cls(Sign.from_str(token[0]), Sign.from_str(token[1]))

    def __str__(self) -> str:
        return self.first.value + self.second.value


class BiResidue(Value):
    """A pair of cosets (a mod p^n, b mod p^m) over one common prime."""

    __slots__ = ("first", "second")

    def __init__(self, first: Residue, second: Residue) -> None:
        if first.p != second.p:
            raise ValueError("coordinates must share one prime")
        store(self, "first", first)
        store(self, "second", second)
        store_fields(self, (first, second))


def bimu_value(s: BiSign, r: BiResidue) -> DistValue:
    """Product of the two one-variable closed-form values."""
    return mu_value(s.first, r.first) * mu_value(s.second, r.second)


def bimu_oracle(s: BiSign, r: BiResidue) -> DistValue:
    """Product of the two one-variable character-sum oracles."""
    return mu_oracle(s.first, r.first) * mu_oracle(s.second, r.second)


def biamice_check(s: BiSign, p: Prime, n: int) -> list[Row]:
    """The two-dimensional interpolation identity at level n: one row per
    (k1, k2), the one-variable check taken coordinate by coordinate."""
    return amice_level((s.first, s.second), p, n)
