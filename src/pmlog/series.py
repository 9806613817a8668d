"""Truncated power series over Q with joint T-adic and p-adic precision.

The plus/minus logarithms are infinite products

    (1/p) * prod_j Phi(p, e(j))(1 + T) / p,    e(j) = 2j or 2j - 1,

whose factors tend to 1 coefficientwise in the p-adic sense, so a finite
partial product determines every coefficient to any prescribed p-power.
All arithmetic is exact: a series is held as integer numerators over one
positive common denominator in lowest terms (a divisor of p^K after K
factors), plus a guarantee g_k per coefficient meaning "this coefficient
matches the limit modulo p^(g_k)".

Bookkeeping rules:
  * exact constructions start at the working precision M for every k;
  * dividing a series by p lowers each guarantee by one (the constant
    term of Phi(1 + T) / p is p / p = 1 exactly and keeps its guarantee);
  * multiplying two series propagates worst cases: the pair (i, j) bounds
    g_(i+j) by min(g_i + v(b_j), h_j + v(a_i), g_i + h_j).  Each valuation
    is taken capped at its own guarantee, v'(a_i) = min(v(a_i), g_i), which
    folds the third term into the first two and is read off one gcd.

The partial product stops at the first K where appending factor K + 1
moves no coefficient at its guaranteed precision; that stopping rule is
itself the soundness statement the tests assert.  A hard factor cap
turns a bookkeeping bug into a loud error instead of a spin.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from itertools import count, islice, pairwise
from operator import add, mul

from .base import ConvergenceError, Level, Sign, Value, level, pval, store_fields
from .digits import Prime

# Hard bound on the number of partial-product factors.
FACTOR_CAP = 64

DEFAULT_T_PREC = 8
DEFAULT_P_PREC = 6


class SeriesPrecision(Value, fields=("t_prec", "p_prec")):
    """Joint precision: coefficients of T^0 .. T^(t_prec - 1), each mod p^p_prec."""

    __slots__ = ()

    def __init__(self, t_prec: int, p_prec: int) -> None:
        if t_prec < 1 or p_prec < 1:
            raise ValueError("t_prec and p_prec must be >= 1")
        store_fields(self, (t_prec, p_prec))


class TruncatedSeries(Value, fields=("p", "prec", "nums", "den", "guarantees")):
    """Integer numerators over one positive denominator, in lowest terms on
    construction, plus per-coefficient p-adic guarantees."""

    __slots__ = ()

    def __init__(self, p: Prime, prec: SeriesPrecision, nums: tuple, den: int, guarantees: tuple):
        n = prec.t_prec
        if len(nums) != n or len(guarantees) != n:
            raise ValueError(f"expected {n} coefficients and guarantees")
        if den < 1:
            raise ValueError("the common denominator must be positive")
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = tuple(c // g for c in nums), den // g
        store_fields(self, (p, prec, nums, den, guarantees))

    @classmethod
    def from_coefficients(cls, p: Prime, prec: SeriesPrecision, coeffs) -> "TruncatedSeries":
        """An exactly known series; every guarantee starts at the working precision."""
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > prec.t_prec:
            raise ValueError("more coefficients than t_prec")
        cs += [Fraction(0)] * (prec.t_prec - len(cs))
        den = math.lcm(*(c.denominator for c in cs))
        nums = tuple(c.numerator * (den // c.denominator) for c in cs)
        return cls(p, prec, nums, den, (prec.p_prec,) * prec.t_prec)

    @classmethod
    def one(cls, p: Prime, prec: SeriesPrecision) -> "TruncatedSeries":
        return cls.from_coefficients(p, prec, [1])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced Fractions, built afresh on each read."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def _capped_valuations(self) -> list[int]:
        # min(v_p(c_k), g_k) for each c_k = nums[k] / den, so a zero reads as
        # its guarantee.  With s = v_p(den) and G = max(s + max g, 0), the gcd
        # of nums[k] and p^G is p^min(v_p(nums[k]), G): no division loop.
        p, gs = self.p, self.guarantees
        shift = pval(self.den, p)
        top = max(shift + max(gs), 0)
        exponent = {p**e: e - shift for e in range(top + 1)}
        power = p**top
        return [min(exponent[math.gcd(c, power)], g) for c, g in zip(self.nums, gs)]

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.p != other.p or self.prec != other.prec:
            raise ValueError("series have different primes or precisions")
        a, b = self.nums, other.nums
        ga, gb = self.guarantees, other.guarantees
        va, vb = self._capped_valuations(), other._capped_valuations()
        nums, guars = [], []
        for k in range(self.prec.t_prec):
            # T^k collects the pairs (i, k - i); the reversed slices line
            # them up so each sum and min over the pairs runs in C.  The
            # capped valuations already hold the g_i + h_j term.
            nums.append(sum(map(mul, a[: k + 1], b[k::-1])))
            worst = (map(add, ga[: k + 1], vb[k::-1]), map(add, va[: k + 1], gb[k::-1]))
            guars.append(min(map(min, worst)))
        return TruncatedSeries(self.p, self.prec, tuple(nums), self.den * other.den, tuple(guars))

    def scale(self, q: Fraction | int) -> "TruncatedSeries":
        """Multiply by a nonzero rational scalar; guarantees shift by v_p(q)."""
        if q == 0:
            raise ValueError("cannot scale by zero")
        shift = pval(q, self.p)
        return TruncatedSeries(
            self.p,
            self.prec,
            tuple(c * q.numerator for c in self.nums),
            self.den * q.denominator,
            tuple(g + shift for g in self.guarantees),
        )


def series_log_classical(p: Prime, prec: SeriesPrecision) -> TruncatedSeries:
    """The usual logarithm of 1 + T: coefficients (-1)^(k+1) / k, no constant term."""
    coeffs = [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, prec.t_prec)]
    return TruncatedSeries.from_coefficients(p, prec, coeffs)


def phi_shifted(p: Prime, m: int, prec: SeriesPrecision) -> TruncatedSeries:
    """The level-m cyclotomic polynomial evaluated at 1 + T, exactly truncated.

    With h = p^(m-1) the coefficient of T^k is sum_{i < p} C(i h, k): binomial
    rows while 3 (p - 1) <= t_prec, a power-series quotient whose cost does
    not depend on p below that.  The constant term is p.
    """
    if m < 1:
        raise ValueError("level m must be >= 1")
    # Measured per factor (levels 1-12), rows cost 0.9-2.2 times the
    # quotient at t_prec = p - 1 (p = 3-61) and 0.16-0.92 times at 3 (p - 1);
    # the crossover falls from about 2 (p - 1) at p = 5-13 to 1.2 (p - 1) at
    # p = 61-127.  Switching at 3 (p - 1) takes rows only where they win for
    # every measured p.
    build = _binomial_rows if 3 * (p - 1) <= prec.t_prec else _quotient
    coeffs = build(p, p ** (m - 1), prec.t_prec)
    return TruncatedSeries(p, prec, tuple(coeffs), 1, (prec.p_prec,) * prec.t_prec)


def _binomial_rows(p: int, h: int, n: int) -> list[int]:
    # sum_{i < p} C(i h, k) for k < n: the rows i = 1 .. p - 1 added onto
    # the i = 0 row, which is 1 at T^0; O((p - 1) n) integer steps.
    coeffs = [1] + [0] * (n - 1)
    for i in range(1, p):
        coeffs = list(map(add, coeffs, _binomials(i * h, n)))
    return coeffs


def _quotient(p: int, h: int, n: int) -> list[int]:
    # ((1 + T)^(p h) - 1) / ((1 + T)^h - 1) to n terms.  Both sides lose
    # their T^0 term, the divisor then starts with C(h, 1) = h, and every
    # step of the long division is exact: O(n^2) integer operations.
    top = _binomials(p * h, n + 1)
    bottom = _binomials(h, n + 1)
    coeffs: list[int] = []
    for k in range(1, n + 1):
        rest = top[k] - sum(map(mul, bottom[k:1:-1], coeffs))
        coeffs.append(rest // h)
    return coeffs


def _binomials(e: int, n: int) -> list[int]:
    # C(e, 0), ..., C(e, n - 1).
    out = [1]
    for k in range(1, n):
        out.append(out[-1] * (e - k + 1) // k)
    return out


def _phi_factor(p: Prime, m: int, prec: SeriesPrecision) -> TruncatedSeries:
    # Phi(p, m)(1 + T) / p: the same integers over p times the denominator,
    # exact on the constant term (p / p = 1), one guarantee lost elsewhere.
    base = phi_shifted(p, m, prec)
    guars = (base.guarantees[0],) + tuple(g - 1 for g in base.guarantees[1:])
    return TruncatedSeries(p, prec, base.nums, base.den * p, guars)


def _factor_level(sign: Sign, j: int) -> int:
    # The j-th even (plus) or odd (minus) cyclotomic level.
    return 2 * j - sign.parity


def _moves_at_precision(extended: TruncatedSeries, product: TruncatedSeries) -> bool:
    # Does appending the next factor change any coefficient at its guarantee?
    # Over one common denominator D each difference is an integer numerator,
    # and it moves at guarantee g when p^(g + v_p(D)) does not divide it.
    p = product.p
    den = math.lcm(extended.den, product.den)
    ea, eb = den // extended.den, den // product.den
    shift = pval(den, p)
    return any(
        g + shift > 0 and (x * ea - y * eb) % p ** (g + shift) != 0
        for x, y, g in zip(extended.nums, product.nums, product.guarantees)
    )


def _partial_products(p: Prime, sign: Sign, prec: SeriesPrecision) -> Iterator[TruncatedSeries]:
    # The products of the first 0, 1, 2, ... factors Phi(p, e(j))(1 + T) / p,
    # before the leading 1/p.
    product = TruncatedSeries.one(p, prec)
    yield product
    for j in count(1):
        product = product * _phi_factor(p, _factor_level(sign, j), prec)
        yield product


def _stabilized_product(
    p: Prime, sign: Sign, prec: SeriesPrecision
) -> tuple[TruncatedSeries, int]:
    # The first partial product that the next factor leaves unmoved, and
    # its number of factors; needing more than FACTOR_CAP factors raises.
    products = islice(_partial_products(p, sign, prec), FACTOR_CAP + 1)
    for factors, (product, extended) in enumerate(pairwise(products)):
        if not _moves_at_precision(extended, product):
            return product, factors
    raise ConvergenceError(f"partial product did not stabilize within {FACTOR_CAP} factors")


def log_pm_partial_product(
    p: Prime, sign: Sign, prec: SeriesPrecision, factor_count: int
) -> TruncatedSeries:
    """(1/p) times the product of the first factor_count factors, no stopping rule."""
    if factor_count < 0:
        raise ValueError("factor_count must be >= 0")
    products = _partial_products(p, sign, prec)
    return next(islice(products, factor_count, None)).scale(Fraction(1, p))


def stabilization_factor_count(p: Prime, sign: Sign, prec: SeriesPrecision) -> int:
    """The number of factors after which the partial product has stabilized."""
    _, factors = _stabilized_product(p, sign, prec)
    return factors


def build_log_pm(p: Prime, sign: Sign, prec: SeriesPrecision) -> TruncatedSeries:
    """The plus or minus logarithm as a stabilized partial product.

    Multiplies factors Phi(p, e(j))(1 + T) / p, with e(j) even for plus and
    odd for minus, until the next factor moves no coefficient at its
    guaranteed precision, then applies the leading 1/p.
    """
    product, _ = _stabilized_product(p, sign, prec)
    return product.scale(Fraction(1, p))


def verify_product_identity(p: Prime, prec: SeriesPrecision) -> Level:
    """Check p^2 * T * log_plus * log_minus against the classical logarithm.

    Gives a level of one case T^k for every k below t_prec: the valuation
    of the residual and the guaranteed bound it must meet; a coefficient
    passes when the residual vanishes or its valuation reaches the bound.
    """
    log_plus = build_log_pm(p, Sign.PLUS, prec)
    log_minus = build_log_pm(p, Sign.MINUS, prec)
    lhs = (log_plus * log_minus).scale(p * p)  # still to be shifted by one T power
    classical = series_log_classical(p, prec)
    # Over one common denominator D each residual is an integer numerator.
    den = math.lcm(lhs.den, classical.den)
    el, ec = den // lhs.den, den // classical.den
    shift = pval(den, p)
    texts = []
    for k in range(prec.t_prec):
        if k == 0:
            residual = 0  # both sides have no constant term
            bound = classical.guarantees[0]
        else:
            residual = lhs.nums[k - 1] * el - classical.nums[k] * ec
            bound = min(lhs.guarantees[k - 1], classical.guarantees[k])
        v = None if residual == 0 else pval(residual, p) - shift
        actual = "v_p(residual) = " + ("exact" if v is None else str(v))
        texts.append((f"v_p(residual) >= {bound}", actual, v is None or v >= bound))
    return level("T^", "", texts, texts.__getitem__)


def dump_exponent(s: TruncatedSeries) -> int:
    """The e of the print gate: no integer that dump_dict(s, ...) prints exceeds p^e."""
    return max(s.guarantees) + pval(s.den, s.p)


def dump_dict(s: TruncatedSeries, sign: Sign) -> dict:
    """The stable JSON form of s, big integers as decimal strings.  Each x_k =
    nums[k] / den, den = p^v u with p not dividing u, prints as its canonical
    residue c_k = (nums[k] u^(-1) mod p^(g_k + v)) / p^v: the one rational in
    [0, p^(g_k)) with a p-power denominator and v_p(c_k - x_k) >= g_k."""
    p, v, gs = s.p, pval(s.den, s.p), s.guarantees
    # One inverse mod the largest modulus serves every smaller one.
    inverse = pow(s.den // p**v, -1, p ** max(dump_exponent(s), 0))
    residues = [Fraction(x * inverse % p ** max(g + v, 0), p**v) for x, g in zip(s.nums, gs)]
    return {
        "p": int(p),
        "sign": sign.value,
        "t_prec": s.prec.t_prec,
        "p_prec": s.prec.p_prec,
        "coeffs": [
            {"k": k, "num": str(c.numerator), "den": str(c.denominator), "guaranteed_mod_p_pow": g}
            for k, (c, g) in enumerate(zip(residues, gs))
        ],
    }
