"""Truncated power series over Q with joint T-adic and p-adic precision.

The plus/minus logarithms are infinite products

    (1/p) * prod_j Phi(p, e(j))(1 + T) / p,    e(j) = 2j or 2j - 1,

whose factors tend to 1 coefficientwise in the p-adic sense, so a finite
partial product determines every coefficient to any prescribed p-power.
All arithmetic here is exact: coefficients are stored as Fractions, and a
product is computed on integer numerators over one common denominator
(always a power of p for these series).  What is tracked on top is a
per-coefficient guarantee g_k meaning "this coefficient matches the limit
modulo p^(g_k)".

Bookkeeping rules:
  * exact constructions start at the working precision M for every k;
  * dividing a series by p lowers each guarantee by one (the constant
    term of Phi(1 + T) / p is p / p = 1 exactly and keeps its guarantee);
  * multiplying two series propagates worst cases: an error of valuation
    a in one factor lands in the product with valuation at least
    a + v_p(other coefficient).

The partial product stops at the first K where appending factor K + 1
moves no coefficient at its guaranteed precision; that stopping rule is
itself the soundness statement the tests assert.  A hard factor cap
turns a bookkeeping bug into a loud error instead of a spin.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice, pairwise
from operator import add, mul

from .base import ConvergenceError, Sign, pval
from .digits import Prime
from .report import Case, VerificationReport

# Sentinel valuation for exact zeros; larger than any guarantee in practice.
_EXACT = 10**9

# Hard bound on the number of partial-product factors.
FACTOR_CAP = 64

DEFAULT_T_PREC = 8
DEFAULT_P_PREC = 6


@dataclass(frozen=True)
class SeriesPrecision:
    """Joint precision: coefficients of T^0 .. T^(t_prec - 1), each mod p^p_prec."""

    t_prec: int
    p_prec: int

    def __post_init__(self) -> None:
        if self.t_prec < 1 or self.p_prec < 1:
            raise ValueError("t_prec and p_prec must be >= 1")


def _integer_form(s: "TruncatedSeries") -> tuple[list[int], int]:
    # The coefficients as integer numerators over one common denominator,
    # the lcm of theirs (a power of p for every series built here).
    den = math.lcm(*(c.denominator for c in s.coeffs))
    return [c.numerator * (den // c.denominator) for c in s.coeffs], den


def _valuations(nums: list[int], den: int, p: int) -> list[int]:
    # v_p of each nums[k] / den, with _EXACT for a zero coefficient.
    shift = pval(den, p)
    return [_EXACT if c == 0 else pval(c, p) - shift for c in nums]


@dataclass(frozen=True)
class TruncatedSeries:
    """Exact rational coefficients plus per-coefficient p-adic guarantees."""

    p: Prime
    prec: SeriesPrecision
    coeffs: tuple[Fraction, ...]
    guarantees: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.prec.t_prec
        if len(self.coeffs) != n or len(self.guarantees) != n:
            raise ValueError(f"expected {n} coefficients and guarantees")

    @classmethod
    def from_coefficients(cls, p: Prime, prec: SeriesPrecision, coeffs) -> "TruncatedSeries":
        """An exactly known series; every guarantee starts at the working precision."""
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > prec.t_prec:
            raise ValueError("more coefficients than t_prec")
        cs += [Fraction(0)] * (prec.t_prec - len(cs))
        return cls(p, prec, tuple(cs), (prec.p_prec,) * prec.t_prec)

    @classmethod
    def one(cls, p: Prime, prec: SeriesPrecision) -> "TruncatedSeries":
        return cls.from_coefficients(p, prec, [1])

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k]

    def guarantee(self, k: int) -> int:
        return self.guarantees[k]

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.p != other.p or self.prec != other.prec:
            raise ValueError("series have different primes or precisions")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        return TruncatedSeries(
            self.p,
            self.prec,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            tuple(min(g, h) for g, h in zip(self.guarantees, other.guarantees)),
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        return TruncatedSeries(
            self.p,
            self.prec,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
            tuple(min(g, h) for g, h in zip(self.guarantees, other.guarantees)),
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        p = self.p
        n = self.prec.t_prec
        a, da = _integer_form(self)
        b, db = _integer_form(other)
        va, vb = _valuations(a, da, p), _valuations(b, db, p)
        ga, gb = self.guarantees, other.guarantees
        den = da * db
        coeffs = []
        guars = []
        for k in range(n):
            # T^k collects the pairs (i, k - i); the reversed slices line
            # them up so each sum and min over the pairs runs in C.
            a_k, va_k, ga_k = a[: k + 1], va[: k + 1], ga[: k + 1]
            b_k, vb_k, gb_k = b[k::-1], vb[k::-1], gb[k::-1]
            coeffs.append(Fraction(sum(map(mul, a_k, b_k)), den))
            worst = (map(add, ga_k, vb_k), map(add, gb_k, va_k), map(add, ga_k, gb_k))
            guars.append(min(_EXACT, *map(min, worst)))
        return TruncatedSeries(p, self.prec, tuple(coeffs), tuple(guars))

    def scale(self, q: Fraction | int) -> "TruncatedSeries":
        """Multiply by a nonzero rational scalar; guarantees shift by v_p(q)."""
        q = Fraction(q)
        if q == 0:
            raise ValueError("cannot scale by zero")
        shift = pval(q, self.p)
        return TruncatedSeries(
            self.p,
            self.prec,
            tuple(c * q for c in self.coeffs),
            tuple(g + shift for g in self.guarantees),
        )


def series_log_classical(p: Prime, prec: SeriesPrecision) -> TruncatedSeries:
    """The usual logarithm of 1 + T: coefficients (-1)^(k+1) / k, no constant term."""
    coeffs = [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, prec.t_prec)]
    return TruncatedSeries.from_coefficients(p, prec, coeffs)


def phi_shifted(p: Prime, m: int, prec: SeriesPrecision) -> TruncatedSeries:
    """The level-m cyclotomic polynomial evaluated at 1 + T, exactly truncated.

    With h = p^(m-1) this is the power-series quotient
    ((1 + T)^(p h) - 1) / ((1 + T)^h - 1).  Both sides lose their T^0
    term, the divisor then starts with C(h, 1) = h, and every step of the
    long division is exact, so the cost is O(t_prec^2) integer operations
    whatever the size of p.  The constant term is p.
    """
    if m < 1:
        raise ValueError("level m must be >= 1")
    h = p ** (m - 1)
    n = prec.t_prec
    top = _binomials_after_one(p * h, n)
    bottom = _binomials_after_one(h, n)
    quotient: list[int] = []
    for k in range(n):
        rest = top[k] - sum(map(mul, bottom[k:0:-1], quotient))
        quotient.append(rest // h)
    return TruncatedSeries.from_coefficients(p, prec, quotient)


def _binomials_after_one(e: int, n: int) -> list[int]:
    # C(e, 1), ..., C(e, n): the coefficients of ((1 + T)^e - 1) / T.
    out = [e]
    for k in range(2, n + 1):
        out.append(out[-1] * (e - k + 1) // k)
    return out


def _phi_factor(p: Prime, m: int, prec: SeriesPrecision) -> TruncatedSeries:
    # Phi(p, m)(1 + T) / p: exact on the constant term (p / p = 1), one
    # guarantee lost everywhere else.
    base = phi_shifted(p, m, prec)
    coeffs = tuple(c / p for c in base.coeffs)
    guars = (base.guarantees[0],) + tuple(g - 1 for g in base.guarantees[1:])
    return TruncatedSeries(p, prec, coeffs, guars)


def _factor_level(sign: Sign, j: int) -> int:
    # The j-th even (plus) or odd (minus) cyclotomic level.
    return 2 * j - sign.parity


def _moves_at_precision(extended: TruncatedSeries, product: TruncatedSeries) -> bool:
    # Does appending the next factor change any coefficient at its guarantee?
    # Both sides go to one common denominator, so each difference is an
    # integer numerator and costs one valuation.
    p = product.p
    a, da = _integer_form(extended)
    b, db = _integer_form(product)
    den = math.lcm(da, db)
    ea, eb = den // da, den // db
    shift = pval(den, p)
    for x, y, g in zip(a, b, product.guarantees):
        diff = x * ea - y * eb
        if diff != 0 and pval(diff, p) - shift < g:
            return True
    return False


def _partial_products(
    p: Prime, sign: Sign, prec: SeriesPrecision, factor_cap: int
) -> Iterator[TruncatedSeries]:
    # The products of the first 0, 1, 2, ... factors Phi(p, e(j))(1 + T) / p,
    # before the leading 1/p; asking for more than factor_cap factors raises.
    product = TruncatedSeries.one(p, prec)
    yield product
    for j in count(1):
        if j > factor_cap:
            raise ConvergenceError(
                f"partial product did not stabilize within {factor_cap} factors"
            )
        product = product * _phi_factor(p, _factor_level(sign, j), prec)
        yield product


def _stabilized_product(
    p: Prime, sign: Sign, prec: SeriesPrecision, factor_cap: int
) -> tuple[TruncatedSeries, int]:
    # The first partial product that the next factor leaves unmoved, and
    # its number of factors.
    pairs = enumerate(pairwise(_partial_products(p, sign, prec, factor_cap)))
    return next(
        (product, factors)
        for factors, (product, extended) in pairs
        if not _moves_at_precision(extended, product)
    )


def log_pm_partial_product(
    p: Prime, sign: Sign, prec: SeriesPrecision, factor_count: int
) -> TruncatedSeries:
    """(1/p) times the product of the first factor_count factors, no stopping rule."""
    if factor_count < 0:
        raise ValueError("factor_count must be >= 0")
    products = _partial_products(p, sign, prec, factor_count)
    return next(islice(products, factor_count, None)).scale(Fraction(1, p))


def stabilization_factor_count(
    p: Prime, sign: Sign, prec: SeriesPrecision, factor_cap: int = FACTOR_CAP
) -> int:
    """The number of factors after which the partial product has stabilized."""
    _, factors = _stabilized_product(p, sign, prec, factor_cap)
    return factors


def build_log_pm(
    p: Prime, sign: Sign, prec: SeriesPrecision, factor_cap: int = FACTOR_CAP
) -> TruncatedSeries:
    """The plus or minus logarithm as a stabilized partial product.

    Multiplies factors Phi(p, e(j))(1 + T) / p, with e(j) even for plus and
    odd for minus, until the next factor moves no coefficient at its
    guaranteed precision, then applies the leading 1/p.
    """
    product, _ = _stabilized_product(p, sign, prec, factor_cap)
    return product.scale(Fraction(1, p))


def verify_product_identity(p: Prime, prec: SeriesPrecision) -> VerificationReport:
    """Check p^2 * T * log_plus * log_minus against the classical logarithm.

    Reports, for every T-power below t_prec, the valuation of the residual
    and the guaranteed bound it must meet; a coefficient passes when the
    residual vanishes or its valuation reaches the bound.
    """
    log_plus = build_log_pm(p, Sign.PLUS, prec)
    log_minus = build_log_pm(p, Sign.MINUS, prec)
    lhs = (log_plus * log_minus).scale(p * p)  # still to be shifted by one T power
    classical = series_log_classical(p, prec)
    cases = []
    for k in range(prec.t_prec):
        if k == 0:
            residual = Fraction(0)  # both sides have no constant term
            bound = classical.guarantees[0]
        else:
            residual = lhs.coeffs[k - 1] - classical.coeffs[k]
            bound = min(lhs.guarantees[k - 1], classical.guarantees[k])
        if residual == 0:
            passed = True
            actual = "v_p(residual) = exact"
        else:
            v = pval(residual, p)
            passed = v >= bound
            actual = f"v_p(residual) = {v}"
        cases.append(
            Case(
                input=f"T^{k}",
                expected=f"v_p(residual) >= {bound}",
                actual=actual,
                passed=passed,
            )
        )
    return VerificationReport(
        suite="logproduct",
        parameters={"p": int(p), "t_prec": prec.t_prec, "p_prec": prec.p_prec},
        cases=cases,
    )


def dump_dict(s: TruncatedSeries, sign: Sign) -> dict:
    """The stable JSON form of a series: decimal-string big integers throughout."""
    return {
        "p": int(s.p),
        "sign": sign.value,
        "t_prec": s.prec.t_prec,
        "p_prec": s.prec.p_prec,
        "coeffs": [
            {
                "k": k,
                "num": str(c.numerator),
                "den": str(c.denominator),
                "guaranteed_mod_p_pow": g,
            }
            for k, (c, g) in enumerate(zip(s.coeffs, s.guarantees))
        ],
    }
