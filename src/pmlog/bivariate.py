"""Two-variable plus/minus distributions on Z_p x Z_p.

The four two-variable distributions are products of one-variable ones,
coordinate by coordinate; the value formula, the support shape and the
two-dimensional interpolation identity all factor accordingly.  A sign is
a pair of Signs and a coset a pair of Residues, one per coordinate.
"""

from __future__ import annotations

from .base import Level, Sign
from .digits import Prime, Residue
from .distribution import DistValue, amice_level, mu_oracle, mu_value


def bimu_value(signs: tuple[Sign, Sign], cosets: tuple[Residue, Residue]) -> DistValue:
    """Product of the two one-variable closed-form values; cosets of two
    different primes raise ValueError."""
    first, second = map(mu_value, signs, cosets)
    return first * second


def bimu_oracle(signs: tuple[Sign, Sign], cosets: tuple[Residue, Residue]) -> DistValue:
    """Product of the two one-variable character-sum oracles."""
    first, second = map(mu_oracle, signs, cosets)
    return first * second


def biamice_check(p: Prime, n: int) -> dict[tuple[Sign, Sign], list[Level]]:
    """The two-dimensional interpolation identity at level n for each of the
    four sign pairs: one level per k1 of one case per k2, the one-variable
    check taken coordinate by coordinate."""
    return amice_level(2, p, n)
