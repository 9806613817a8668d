"""Shared primitives: plus/minus selector, resource limits, p-adic valuation, values, levels."""

from __future__ import annotations

import enum
import itertools
from fractions import Fraction
from typing import Callable

# Largest exhaustive enumeration (set size, root count, coset count, counted
# work) any operation will attempt; check_cap alone reads it.
ENUMERATION_CAP = 10**6

# A level of a verify suite's cases, (prefix, labels, suffix, texts, index):
# case i has the input prefix + str(labels[i]) + suffix and the (expected,
# actual, passed) text texts[index[i]], and every text is some case's.
Level = tuple[str, range, str, list[tuple[str, str, bool]], list[int]]


def level(prefix: str, suffix: str, keys: list, text: Callable[[int], tuple], start=0) -> Level:
    """The level of cases start, start + 1, ... with keys: cases of one key share
    one text, text(i) of one case i of it, and the texts follow the keys' first order."""
    last = dict(zip(keys, itertools.count()))
    number = dict(zip(last, itertools.count()))
    index = list(map(number.__getitem__, keys))
    return prefix, range(start, start + len(index)), suffix, list(map(text, last.values())), index


class ResourceCapError(Exception):
    """An operation would enumerate past the configured cap."""


def check_cap(
    base: int, exponent: int, unit: str, cap: int | None = None, name: str = "enumeration cap"
) -> None:
    """Raise ResourceCapError "<base>^<exponent> exceeds the <name> of <cap> <unit>"
    ("<base> exceeds ..." at exponent 1) if base^exponent > cap, ENUMERATION_CAP
    as read at the call if cap is None.  base^L > cap for base >= 2 at the cap's
    bit length L, so the power is built only up to L, never past the cap."""
    cap = ENUMERATION_CAP if cap is None else cap
    if base ** min(exponent, cap.bit_length()) > cap:
        count = base if exponent == 1 else f"{base}^{exponent}"
        raise ResourceCapError(f"{count} exceeds the {name} of {cap} {unit}")


class Value:
    """Base of the value classes.  A subclass names its fields in its class
    statement, `class Residue(Value, fields=("p", "n", "digits")):`, with
    __slots__ = (); its __init__ checks them and ends in store_fields(self,
    (p, n, digits)).  That tuple is the one store of the fields: each is a
    read-only property over it, and values compare, hash, pickle and print
    by it, as a frozen dataclass's do.  A subclass made without fields= keeps
    its parent's."""

    __slots__ = ("_fields",)

    def __init_subclass__(cls, fields: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if fields:
            cls.__match_args__ = fields  # the names, for __repr__ and match patterns
            for index, name in enumerate(fields):
                setattr(cls, name, property(lambda self, index=index: self._fields[index]))

    def __eq__(self, other: object) -> bool:
        return self._fields == other._fields if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), self._fields

    def __repr__(self) -> str:
        shown = ", ".join(f"{k}={v!r}" for k, v in zip(self.__match_args__, self._fields))
        return f"{type(self).__qualname__}({shown})"


# The one store that gets past Value.__setattr__, the field tuple's slot
# setter, looked up once since values are built often.
store_fields = Value._fields.__set__


class Sign(enum.Enum):
    """Selector for the plus/minus halves of every paired construction."""

    PLUS = "+"
    MINUS = "-"

    @property
    def parity(self) -> int:
        """The parity of the digit positions that vanish on the support:
        0 (even positions) for plus, 1 (odd positions) for minus."""
        return 0 if self is Sign.PLUS else 1

    @classmethod
    def from_str(cls, token: str) -> "Sign":
        for sign in cls:
            if sign.value == token:
                return sign
        raise ValueError(f"unknown sign {token!r}, expected '+' or '-'")

    def __str__(self) -> str:
        return self.value


def pval(q: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero rational (exponent of p in its factorization).

    Integers skip the conversion to Fraction, so callers that hold plain
    integer numerators pay only for the divisions.
    """
    num, den = (q, 1) if isinstance(q, int) else Fraction(q).as_integer_ratio()
    if num == 0:
        raise ValueError("the zero rational has no finite p-adic valuation")
    return _multiplicity(num, p) - _multiplicity(den, p)


def _multiplicity(x: int, p: int) -> int:
    # The exponent of p in x != 0, which is below x's bit length as p >= 2.
    for v in range(x.bit_length()):
        x, r = divmod(x, p)
        if r:
            return v
