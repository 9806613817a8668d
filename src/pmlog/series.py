"""Truncated power series over Q, and the plus/minus logarithms as partial
products cut at a proven factor count and held mod a bounded power of p.

The plus/minus logarithms are the infinite products

    log± = (1/p) * prod_(j >= 1) F(e(j)),    F(m) = Phi(p, m)(1 + T) / p,

with e(j) = 2j for plus and 2j - 1 for minus, and (1/p) times the first K
factors is exactly the Amice transform of mu± at level e(K).  A series is
integer numerators over one positive common denominator in lowest terms.

The tail bound.  For 1 <= k < t_prec, C(N, k) = (N / k) C(N - 1, k - 1)
gives v_p(C(i p^(m-1), k)) >= m - 1 - v_p(k) >= m - 1 - L, where
L = floor(log_p(t_prec - 1)), or 0 when t_prec = 1.  The T^k coefficient of
Phi(p, m)(1 + T) is sum_(i < p) C(i p^(m-1), k) and its constant term is p,
so below T^t_prec each factor F(m)
  * is 1 mod p^(m - 2 - L), and
  * has no coefficient below p^(-1), and none below 1 once m >= L + 2.
So P_K = prod_(j <= K) F(e(j)) has valuation >= -w, where
w = #{j : e(j) <= L + 1}; the tail prod_(j > K) F(e(j)) is
1 mod p^(e(K+1) - 2 - L); and

    log± = (1/p) P_K  mod p^(e(K+1) - 3 - L - w).

factor_count is the least K that puts this exponent at p_prec or above, and
the count is known before any multiply, which lets the build's cost be
checked against the enumeration cap first.  As (1/p) P_K is the integer
product prod_(j <= K) Phi(p, e(j))(1 + T) over p^(K + 1), that product is
needed only mod p^(p_prec + K + 1), and build_log_pm reduces every factor
and partial product mod that power: the error of each coefficient it
returns, omitted tail and reduction together, lies in p^p_prec Z_p.

A product convolves the numerators as plain integers.  Where t_prec >= 16
and the operands' largest numerators have at most 4 (t_prec + 16) bits
between them (_packs), it packs each operand into one integer (Kronecker
substitution) and takes one big-integer product; elsewhere it sums the
pairs schoolbook.  Both routes give the same integers, and the choice reads
only t_prec and the bit lengths (_convolve has the measured grid).

build_log_pm applies the same rule to its modulus M, with 2 bits(M) as the
bit sum.  Where that packs, the partial product stays one packed integer
from the first factor to the last: each step is one product, a mask and a
Barrett reduction of every slot at once (_packed_mulmod), which leaves each
slot in [0, 3M) and never carries across a slot boundary; the slots are
read back and reduced mod M once, at the end.  Elsewhere each step
convolves two tuples and reduces every numerator mod M.  Both give the
same numerators.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import repeat
from operator import add, mod, mul, sub

from .base import Level, Sign, Value, check_cap, level, pval, store_fields
from .digits import Prime

DEFAULT_T_PREC = 8
DEFAULT_P_PREC = 6


class SeriesPrecision(Value, fields=("t_prec", "p_prec")):
    """Joint precision: coefficients of T^0 .. T^(t_prec - 1), each mod p^p_prec."""

    __slots__ = ()

    def __init__(self, t_prec: int, p_prec: int) -> None:
        if t_prec < 1 or p_prec < 1:
            raise ValueError("t_prec and p_prec must be >= 1")
        store_fields(self, (t_prec, p_prec))


class TruncatedSeries(Value, fields=("p", "prec", "nums", "den")):
    """Integer numerators over one positive denominator, in lowest terms on
    construction."""

    __slots__ = ()

    def __init__(self, p: Prime, prec: SeriesPrecision, nums: tuple, den: int):
        n = prec.t_prec
        if len(nums) != n:
            raise ValueError(f"expected {n} coefficients, got {len(nums)}")
        if den < 1:
            raise ValueError("the common denominator must be positive")
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = tuple(c // g for c in nums), den // g
        store_fields(self, (p, prec, nums, den))

    @classmethod
    def from_coefficients(cls, p: Prime, prec: SeriesPrecision, coeffs) -> "TruncatedSeries":
        """The series of these rational coefficients, padded with zeros to t_prec."""
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > prec.t_prec:
            raise ValueError("more coefficients than t_prec")
        cs += [Fraction(0)] * (prec.t_prec - len(cs))
        den = math.lcm(*(c.denominator for c in cs))
        return cls(p, prec, tuple(c.numerator * (den // c.denominator) for c in cs), den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced Fractions, built afresh on each read."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """The product truncated at t_prec: the denominators multiplied and
        the numerators convolved by _convolve, as one packed big-integer
        product where t_prec >= 16 and the largest numerators of the two
        operands have at most 4 (t_prec + 16) bits together, and as a
        schoolbook sum elsewhere."""
        if self.p != other.p or self.prec != other.prec:
            raise ValueError("series have different primes or precisions")
        nums = _convolve(self.nums, other.nums)
        return TruncatedSeries(self.p, self.prec, nums, self.den * other.den)


def _convolve(a: tuple, b: tuple) -> tuple:
    """The first n = len(a) = len(b) coefficients of the product of the
    integer polynomials a and b, by the route their shape favours: one packed
    product (_kronecker) where n >= 16 and the bit sum s = max bits(a_i) +
    max bits(b_i) is at most 4 (n + 16), the schoolbook sum elsewhere.

    Packed time over schoolbook time, per call, best of 7, with both
    operands of s/2 bits (Python 3.11, one core of a 2-CPU host):

        n   s: 16   64  128  192  256  384  512  768 1024 2048
          8   0.98 1.24 1.76 0.99 1.39 1.99 1.99 2.25 2.18 2.45
         12   0.63 0.77 0.92 1.08 1.18 1.50 2.83 2.02 2.02 2.13
         16   0.81 0.60 0.77 0.90 1.14 1.38 1.75 1.88 1.74 1.92
         24   0.60 0.44 0.60 0.72 0.92 1.14 1.42 1.61 1.48 1.69
         32   0.48 0.35 0.49 0.62 0.87 1.09 1.40 1.48 1.40 1.61
         48   0.34 0.26 0.40 0.50 0.67 0.90 1.09 1.29 1.08 1.30
         64   0.27 0.21 0.33 0.45 0.62 1.20 1.09 1.12 1.09 1.24
         96   0.19 0.16 0.26 0.36 0.50 0.68 0.84 0.97 0.84 1.00
        128   0.18 0.14 0.24 0.34 0.46 0.62 0.79 0.90 0.85 0.99
        200   0.12 0.11 0.19 0.26 0.37 0.49 0.63 0.73 0.64 0.76

    The packed route pays a fixed cost per slot and one product of two
    integers of about n s bits, which CPython multiplies by Karatsuba; the
    schoolbook route pays n (n + 1) / 2 Python-level products.  So packing
    wins at many small coefficients and loses at few or large ones.  The rule takes it
    where every cell reads 0.81 or less; an earlier run of the same grid
    read 0.88-1.18 at n = 12, so the threshold stays at 16.
    """
    n = len(a)
    if n >= 16:
        bits = max(map(int.bit_length, a)) + max(map(int.bit_length, b))
        if _packs(n, bits):
            return _kronecker(a, b, bits)
    # T^k collects the pairs (i, k - i); the reversed slice lines them up
    # so each sum runs in C.
    return tuple(sum(map(mul, a[: k + 1], b[k::-1])) for k in range(n))


def _kronecker(a: tuple, b: tuple, bits: int) -> tuple:
    # Kronecker substitution (Schoenhage, EUROCAM 1982; Harvey, J. Symbolic
    # Comput. 44, 2009): a polynomial x becomes the integer sum x_i 2^(W i),
    # so one integer product holds every convolution sum in its W-bit
    # slots.  Each sum has at most n terms, each below 2^bits in size, so
    # W = bits + bits(n) + 1, rounded up to whole bytes, holds it and a
    # sign.  Adding 2^(W - 1) to each of the low n slots makes every one of
    # them nonnegative and below 2^W, so they read back byte by byte; the
    # higher slots are multiples of 2^(W n), which the mask drops.
    n = len(a)
    width = (bits + n.bit_length() + 8) // 8
    size = n * width
    half = 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * n, "little")
    low = (_pack(a, width) * _pack(b, width) + bias) & ((1 << 8 * size) - 1)
    return tuple(map(sub, _unpack(low, width, n), repeat(half)))


def _packs(n: int, bits: int) -> bool:
    """The packed route's rule, for n coefficients whose largest numerators
    have bits bits between the two operands (_convolve has the grid)."""
    return n >= 16 and bits <= 4 * (n + 16)


def _pack(xs: tuple, width: int) -> int:
    # sum x_i 256^(width i) for signed x_i below 2^(8 width - 1) in size:
    # the positive parts packed, less the negative parts' sizes packed.
    if min(xs) < 0:
        return _pack([max(x, 0) for x in xs], width) - _pack([max(-x, 0) for x in xs], width)
    data = b"".join(map(int.to_bytes, xs, repeat(width), repeat("little")))
    return int.from_bytes(data, "little")


def _unpack(x: int, width: int, n: int) -> map:
    # the n slots of width bytes of an x in [0, 256^(width n)), low slot first
    data = x.to_bytes(n * width, "little")
    slots = [data[i : i + width] for i in range(0, n * width, width)]
    return map(int.from_bytes, slots, repeat("little"))


def _packed_mulmod(n: int, modulus: int) -> tuple:
    """The slot width w in bytes and the step of the packed build mod M =
    modulus: step(a, f) is the low n slots of a f, each slot reduced to a
    residue of the same class in [0, 3M), for a with n slots in [0, 3M) and
    f with n slots in [0, M), both packed by _pack(xs, w).

    With s = bits(M) - 1, so 2^s <= M < 2^(s + 1), b = bits(3 n), v = s + 2
    + b, R = floor(2^(s + v) / M) and 8 w >= 2 v + 1 bits per slot:
      * c_k = sum_(i <= k) a_i f_(k - i) <= n (3M - 1)(M - 1) < 3 n M^2
        < 2^(b + 2s + 2) = 2^(s + v) < 2^(8 w), so the product carries across
        no slot and the mask keeps exactly c_0 .. c_(n - 1).
      * x_k = floor(c_k / 2^s) < 2^v: shifted right by s, slot k holds x_k
        in its low 8 w - s > v bits, under the low bits of c_(k + 1), and
        the v-bit mask leaves x_k.
      * R <= 2^v, as M >= 2^s, so x_k R < 2^(2v) < 2^(8 w) carries across
        no slot; shifted right by v and masked, slot k is q_k = floor(x_k R
        / 2^v) <= x_k < 2^v.
      * q_k <= (c_k / 2^s)(2^(s + v) / M) / 2^v = c_k / M, so q_k M <= c_k:
        Q M carries across no slot and c_k - q_k M >= 0 borrows from none.
      * Where c_k >= 2^s, x_k > c_k / 2^s - 1 >= 0 and R > 2^(s + v) / M - 1
        > 0, so x_k R / 2^v > c_k / M - c_k / 2^(s + v) - 2^s / M > c_k / M
        - 2 and q_k > c_k / M - 3: c_k - q_k M < 3M.  Where c_k < 2^s, q_k
        = 0 and c_k < M.
    """
    s = modulus.bit_length() - 1
    v = s + 2 + (3 * n).bit_length()
    width = (2 * v + 8) // 8
    mask = int.from_bytes(((1 << v) - 1).to_bytes(width, "little") * n, "little")
    keep = (1 << 8 * width * n) - 1
    r = (1 << s + v) // modulus

    def step(a: int, f: int) -> int:
        c = a * f & keep
        return c - ((((c >> s) & mask) * r >> v) & mask) * modulus

    return width, step


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
    return TruncatedSeries(p, prec, tuple(coeffs), 1)


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


def factor_count(p: Prime, sign: Sign, prec: SeriesPrecision) -> int:
    """The least K with e(K + 1) >= p_prec + 3 + L + w (module docstring): the
    number of factors after which the partial product is log± mod p^p_prec."""
    # L: p^(L + 1) >= t_prec first at L = floor(log_p(t_prec - 1)), and at
    # the latest at t_prec's bit length less one.
    top = next(e for e in range(prec.t_prec.bit_length()) if p ** (e + 1) >= prec.t_prec)
    # w: the j with 2j - parity <= L + 1.
    w = (top + 1 + sign.parity) // 2
    # e(K + 1) = 2K + 2 - parity reaches the target first at this K.
    return (prec.p_prec + 2 + top + w + sign.parity) // 2


def require_within_cap(p: Prime, signs: tuple[Sign, ...], prec: SeriesPrecision) -> None:
    """Refuse, before any multiply, to build log± for each sign in signs and,
    for two signs, their product: each multiply is t_prec (t_prec + 1) / 2
    coefficient products.  t_prec and each factor count, at most that count
    and about as long as t_prec or p_prec, are checked first, so no refusal
    prints a count past the int-to-str limit."""
    t = prec.t_prec
    unit = f"coefficient products for the series at t_prec {t} and p_prec {prec.p_prec}"
    check_cap(t, 1, unit)  # before factor_count's search over t_prec's bit length
    counts = [factor_count(p, sign, prec) for sign in signs]
    for count in (*counts, (sum(counts) + len(signs) - 1) * t * (t + 1) // 2):
        check_cap(count, 1, unit)


def build_log_pm(p: Prime, sign: Sign, prec: SeriesPrecision) -> TruncatedSeries:
    """The plus or minus logarithm mod p^p_prec in every coefficient: (1/p)
    times the K = factor_count factors Phi(p, e(j))(1 + T) / p, e(j) = 2j
    (plus) or 2j - 1 (minus), with every factor and partial product reduced
    mod M = p^(p_prec + K + 1) and one division by p^(K + 1) at the end.  M
    is a multiple of p^(K + 1), so the gcd with p^(K + 1) and the
    denominator are the exact product's.

    Where _packs(t_prec, 2 bits(M)), the partial product is one packed
    integer throughout: each reduced factor is packed once into slots wide
    enough for a product of a [0, 3M) slot and a [0, M) slot summed t_prec
    times, each step reduces every slot into [0, 3M) in packed form
    (_packed_mulmod has the bound), and the slots are read back and reduced
    mod M once.  Elsewhere each step convolves two tuples of residues and
    reduces the result mod M.  Both give the numerators of the product mod
    M in [0, M)."""
    count = factor_count(p, sign, prec)  # >= 1, as p_prec >= 1
    modulus = p ** (prec.p_prec + count + 1)
    n = prec.t_prec
    factors = (
        tuple(map(mod, phi_shifted(p, 2 * j - sign.parity, prec).nums, repeat(modulus)))
        for j in range(1, count + 1)
    )
    # Outside the rule a packed build was measured 1.4-2.7 times slower, at
    # (p, t_prec, p_prec) = (2, 24, 1500), (5, 3, 5000) and (13, 8, 1000).
    if _packs(n, 2 * modulus.bit_length()):
        width, step = _packed_mulmod(n, modulus)
        product = functools.reduce(step, (_pack(f, width) for f in factors))
        nums = tuple(map(mod, _unpack(product, width, n), repeat(modulus)))
    else:
        nums = functools.reduce(
            lambda a, b: tuple(map(mod, _convolve(a, b), repeat(modulus))), factors
        )
    return TruncatedSeries(p, prec, nums, p ** (count + 1))


def verify_product_identity(p: Prime, prec: SeriesPrecision) -> Level:
    """Check p^2 * T * log_plus * log_minus against the classical logarithm.

    Gives a level of one case T^k for every k below t_prec: the valuation
    of the residual and the bound it must meet; a coefficient passes when
    the residual vanishes or its valuation reaches the bound.  The built
    series are L± = log± + e± with v_p(e±) >= p_prec, so the residual is
    p^2 T (e+ L- + L+ e- - e+ e-), of valuation at least
    p_prec + 2 - max(v_p(den L+), v_p(den L-)).
    """
    log_plus, log_minus = (build_log_pm(p, sign, prec) for sign in Sign)
    product = log_plus * log_minus
    bound = prec.p_prec + 2 - max(pval(log_plus.den, p), pval(log_minus.den, p))
    # log(1 + T) has T^k coefficient (-1)^(k+1) / k, so with D = product.den
    # the T^k residual times k D is the integer p^2 k nums[k - 1] + (-1)^k D.
    shift = pval(product.den, p)
    texts = []
    for k in range(prec.t_prec):
        # Both sides have no constant term.
        residual = p * p * k * product.nums[k - 1] + (-1) ** k * product.den if k else 0
        v = None if residual == 0 else pval(residual, p) - pval(k, p) - shift
        actual = "v_p(residual) = " + ("exact" if v is None else str(v))
        texts.append((f"v_p(residual) >= {bound}", actual, v is None or v >= bound))
    return level("T^", "", texts, texts.__getitem__)


def dump_exponent(s: TruncatedSeries) -> int:
    """The e of the print gate: no integer that dump_dict(s, ...) prints exceeds p^e."""
    return s.prec.p_prec + pval(s.den, s.p)


def dump_dict(s: TruncatedSeries, sign: Sign) -> dict:
    """The stable JSON form of s, big integers as decimal strings.  Each x_k =
    nums[k] / den, den = p^v u with p not dividing u, prints as its canonical
    residue c_k = (nums[k] u^(-1) mod p^(p_prec + v)) / p^v: the one rational
    in [0, p^p_prec) with a p-power denominator and v_p(c_k - x_k) >= p_prec."""
    p, g = s.p, s.prec.p_prec
    v = pval(s.den, p)
    modulus = p ** dump_exponent(s)
    inverse = pow(s.den // p**v, -1, modulus)
    residues = [Fraction(x * inverse % modulus, p**v) for x in s.nums]
    return {
        "p": int(p),
        "sign": sign.value,
        "t_prec": s.prec.t_prec,
        "p_prec": g,
        "coeffs": [
            {"k": k, "num": str(c.numerator), "den": str(c.denominator), "guaranteed_mod_p_pow": g}
            for k, c in enumerate(residues)
        ],
    }
