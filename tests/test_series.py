"""Truncated series construction, the proven tail bound behind the factor count, and
the product identity."""

import math
import random
from fractions import Fraction

import pytest

import pmlog.base as base
import pmlog.series as series
from pmlog.base import ResourceCapError, Sign, pval
from pmlog.cyclotomic import cyclo_poly
from pmlog.digits import Prime
from pmlog.distribution import support_masses
from pmlog.series import (
    SeriesPrecision,
    TruncatedSeries,
    _binomial_rows,
    _quotient,
    build_log_pm,
    dump_dict,
    dump_exponent,
    factor_count,
    phi_shifted,
    verify_product_identity,
)
from level_rows import rows

PRIMES = [Prime(2), Prime(3), Prime(5)]
PREC = SeriesPrecision(t_prec=8, p_prec=6)


def test_series_precision_validation():
    with pytest.raises(ValueError):
        SeriesPrecision(0, 5)
    with pytest.raises(ValueError):
        SeriesPrecision(5, 0)


def test_log_classical_coefficients():
    # The product identity's integer residuals against p^2 T log+ log- -
    # log(1 + T) in Fractions, with log(1 + T) = sum (-1)^(k+1) T^k / k.
    for p in [Prime(q) for q in (2, 3, 5, 7, 13)]:
        for t_prec in (1, 2, 5, 12, 27):
            prec = SeriesPrecision(t_prec, 4)
            plus, minus = (build_log_pm(p, sign, prec) for sign in Sign)
            product = (0, *(plus * minus).coeffs)
            log = [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, t_prec)]
            for k, (_, _, actual, _) in enumerate(rows(verify_product_identity(p, prec))):
                residual = p * p * product[k] - log[k]
                v = "exact" if residual == 0 else str(pval(residual, p))
                assert actual == f"v_p(residual) = {v}", (p, t_prec, k)


def test_phi_shifted_examples():
    two = phi_shifted(Prime(2), 1, PREC)
    assert two.coeffs[:3] == (Fraction(2), Fraction(1), Fraction(0))
    three = phi_shifted(Prime(3), 1, PREC)
    assert three.coeffs[:4] == (Fraction(3), Fraction(3), Fraction(1), Fraction(0))
    for p in PRIMES:
        for m in (1, 2, 3):
            assert phi_shifted(p, m, PREC).coeffs[0] == p


@pytest.mark.parametrize("p", [Prime(q) for q in (2, 3, 5, 7, 11, 13)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_phi_shifted_matches_binomial_expansion(p, m):
    # independent route: expand each monomial of the sparse polynomial by
    # the binomial theorem and collect
    expected = [Fraction(0)] * PREC.t_prec
    for e, c in cyclo_poly(p, m).items():
        for k in range(PREC.t_prec):
            expected[k] += c * math.comb(e, k)
    assert phi_shifted(p, m, PREC).coeffs == tuple(expected)


SWITCH_CASES = [
    (Prime(q), t_prec)
    for q in (2, 3, 5, 7, 11, 13, 31)
    for t_prec in sorted({1, 8, 24, q - 2, q - 1, q, 3 * (q - 1) - 1, 3 * (q - 1)})
    if t_prec >= 1
]
SWITCH_IDS = [f"{t}-{p}" for p, t in SWITCH_CASES]  # "t_prec-p", the ids' order before p widened


@pytest.mark.parametrize("p, t_prec", SWITCH_CASES, ids=SWITCH_IDS)
def test_phi_shifted_matches_sum_of_binomials(p, t_prec):
    # the coefficient of T^k is sum_{t < p} C(p^(m-1) t, k); both builders
    # agree with it on both sides of the switch at t_prec = 3 (p - 1)
    prec = SeriesPrecision(t_prec, 6)
    for m in range(1, 5):
        h = p ** (m - 1)
        expected = [sum(math.comb(h * t, k) for t in range(p)) for k in range(t_prec)]
        assert phi_shifted(p, m, prec).coeffs == tuple(expected)
        assert _binomial_rows(p, h, t_prec) == expected
        assert _quotient(p, h, t_prec) == expected


@pytest.mark.parametrize("p, t_prec", SWITCH_CASES, ids=SWITCH_IDS)
def test_phi_shifted_switches_at_three_times_p_minus_one(p, t_prec, monkeypatch):
    # binomial rows while 3 (p - 1) <= t_prec, the quotient below that
    def refuse(*args):
        raise AssertionError("wrong builder")

    unused = "_quotient" if 3 * (p - 1) <= t_prec else "_binomial_rows"
    monkeypatch.setattr(series, unused, refuse)
    assert phi_shifted(p, 2, SeriesPrecision(t_prec, 6)).coeffs[0] == p


def textbook_mul(x, y):
    # the reference product: a Fraction double loop
    n = x.prec.t_prec
    xs, ys = x.coeffs, y.coeffs
    coeffs = [Fraction(0)] * n
    for i in range(n):
        for j in range(n - i):
            coeffs[i + j] += xs[i] * ys[j]
    return tuple(coeffs)


def random_series(rng, p, prec):
    coeffs = []
    for _ in range(prec.t_prec):
        kind = rng.random()
        if kind < 0.25:
            coeffs.append(Fraction(0))
            continue
        den = p ** rng.randint(0, 6)
        if kind > 0.75:
            den *= rng.choice([2, 3, 5, 7, 11, 13, 35, 143])  # not a power of p
        num = rng.randint(-(p**8), p**8) * p ** rng.randint(0, 4)
        coeffs.append(Fraction(num or 1, den))
    return TruncatedSeries.from_coefficients(p, prec, coeffs)


def count_packed_products(monkeypatch):
    # the argument tuples of every call of the packed route from here on
    calls = []
    kronecker = series._kronecker
    monkeypatch.setattr(series, "_kronecker", lambda *args: calls.append(args) or kronecker(*args))
    return calls


@pytest.mark.parametrize("p", [Prime(q) for q in (2, 3, 5, 7, 11, 13)])
def test_mul_matches_textbook_product(p, monkeypatch):
    # t_prec up to 64 reaches both sides of _convolve's rule
    packed = count_packed_products(monkeypatch)
    rng = random.Random(int(p))
    for _ in range(40):
        prec = SeriesPrecision(rng.randint(1, 64), rng.randint(1, 10))
        x, y = random_series(rng, p, prec), random_series(rng, p, prec)
        product = x * y
        assert product.coeffs == textbook_mul(x, y)
        assert all(type(c) is Fraction for c in product.coeffs)
    assert 0 < len(packed) < 40


def cap_cases(p):
    # coefficients whose valuations reach or pass p_prec = 6, so a product
    # reduced mod p^p_prec would lose them and the exact product must not
    prec = SeriesPrecision(5, 6)
    return [
        # valuations above, at and below p_prec, and a zero
        [p**5, p**3, Fraction(p**7, p**2), 1, 0],
        [p**6, p**9, 1, p, 0],
        # a p-power denominator
        [Fraction(1, p**2), Fraction(p, p**2), 1, 0, p],
        [Fraction(1, p**2), 0, 0, 1, 7],
        # a denominator that is not a power of p
        [Fraction(p**4, 77 * p), Fraction(1, 35), Fraction(p**2, 11), 0, 1],
        # the all-zero operand
        [],
    ], prec


@pytest.mark.parametrize("p", [Prime(q) for q in (2, 3, 5, 13)])
def test_mul_matches_textbook_product_where_the_cap_binds(p):
    cases, prec = cap_cases(p)
    series_list = [TruncatedSeries.from_coefficients(p, prec, coeffs) for coeffs in cases]
    rng = random.Random(int(p) + 100)
    series_list += [random_series(rng, p, prec) for _ in range(4)]
    for x in series_list:
        for y in series_list:
            product = x * y
            assert product.coeffs == textbook_mul(x, y)
            assert all(type(c) is Fraction for c in product.coeffs)


def test_mul_with_all_zero_operand():
    x = TruncatedSeries.from_coefficients(Prime(5), PREC, [])
    y = build_log_pm(Prime(5), Sign.PLUS, PREC)
    product = x * y
    assert product.coeffs == (Fraction(0),) * 8 == textbook_mul(x, y)
    assert (product.nums, product.den) == ((0,) * 8, 1)


def schoolbook(a, b):
    # the first len(a) coefficients of the product, one pair at a time
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a)))


def operand(rng, n, bits):
    # n signed integers below 2^bits in size, one of them exactly bits long
    xs = [rng.randint(-(2**bits) + 1, 2**bits - 1) for _ in range(n)]
    xs[rng.randrange(n)] = rng.choice((-1, 1)) * (2 ** (bits - 1) + rng.getrandbits(bits - 1))
    return tuple(xs)


def both_routes(a, b):
    # _convolve's choice, and the packed route whatever the rule says
    bits = max(map(int.bit_length, a)) + max(map(int.bit_length, b))
    return series._convolve(a, b), series._kronecker(a, b, bits)


KERNEL_LENGTHS = [1, 2, 3, 8, 15, 16, 17, 24, 48, 64, 127, 128, 200]
KERNEL_BITS = [1, 2, 7, 8, 9, 50, 64, 100, 1000, 5000, 20000]


@pytest.mark.parametrize("n", KERNEL_LENGTHS)
def test_both_routes_equal_the_schoolbook_sum_on_signed_operands(n):
    rng = random.Random(n)
    # every pair whose schoolbook reference stays cheap, which includes
    # (1, 20000) at every n and (20000, 20000) up to n = 16
    pairs = [(x, y) for x in KERNEL_BITS for y in KERNEL_BITS if x <= y and n * n * x * y <= 10**9]
    pairs += [(20000, 20000)] if n <= 16 else []
    for bits_a, bits_b in pairs:
        a, b = operand(rng, n, bits_a), operand(rng, n, bits_b)
        expected = schoolbook(a, b)
        assert both_routes(a, b) == (expected, expected), (n, bits_a, bits_b)
        assert both_routes(b, a) == (expected, expected), (n, bits_b, bits_a)


@pytest.mark.parametrize("n", KERNEL_LENGTHS)
def test_both_routes_on_zero_operands(n):
    zero = (0,) * n
    b = operand(random.Random(n), n, 64)
    assert both_routes(zero, zero) == (zero, zero)
    assert both_routes(zero, b) == both_routes(b, zero) == (zero, zero)


def test_both_routes_at_t_prec_1():
    for x in (0, 1, -1, 2**64 - 1, -(3**4000), 5**9000):
        for y in (0, -1, 7, 2**20000 + 1, -(2**63)):
            assert both_routes((x,), (y,)) == ((x * y,), (x * y,))


@pytest.mark.parametrize("p", [Prime(q) for q in (2, 3, 13)])
@pytest.mark.parametrize("n", [16, 63, 64, 127, 128, 200])
def test_both_routes_carry_a_maximal_sum_in_every_slot(p, n):
    # every coefficient p^N - 1, or its negative: the T^k sum is +-(k + 1)
    # (p^N - 1)^2, the largest a slot must hold, at several slot widths
    for digits in (1, 5, 16, 17, 24, 48):
        top = p**digits - 1
        for sign in (1, -1):
            a, b = (top,) * n, (sign * top,) * n
            expected = tuple(sign * (k + 1) * top * top for k in range(n))
            assert schoolbook(a, b) == expected
            assert both_routes(a, b) == (expected, expected), (p, n, digits, sign)
            assert both_routes(b, a) == (expected, expected), (p, n, digits, sign)


@pytest.mark.parametrize("n", KERNEL_LENGTHS)
def test_both_routes_with_a_negative_coefficient_in_every_slot(n):
    rng = random.Random(n + 1)
    for bits_a, bits_b in [(1, 1), (8, 9), (50, 50), (64, 100), (1000, 7)]:
        a = tuple(-abs(x) or -1 for x in operand(rng, n, bits_a))
        for b in (operand(rng, n, bits_b), tuple(-abs(x) or -1 for x in operand(rng, n, bits_b))):
            expected = schoolbook(a, b)
            assert both_routes(a, b) == (expected, expected), (n, bits_a, bits_b)


@pytest.mark.parametrize("n", [1, 15, 16, 64, 128])
def test_both_routes_with_one_tiny_and_one_huge_operand(n):
    rng = random.Random(n + 2)
    tiny = tuple(rng.choice((-1, 0, 1)) for _ in range(n))
    huge = operand(rng, n, 20000)
    expected = schoolbook(tiny, huge)
    assert both_routes(tiny, huge) == both_routes(huge, tiny) == (expected, expected)


def bits_operand(n, bits):
    # n coefficients whose largest is exactly bits long
    return (2**bits - 1,) + (1,) * (n - 1)


@pytest.mark.parametrize(
    "n, bits_a, bits_b, packed",
    [
        (1, 1, 1, False),
        (15, 1, 1, False),
        (15, 8, 8, False),
        (16, 1, 1, True),
        (16, 64, 64, True),
        (16, 64, 65, False),
        (24, 100, 60, True),
        (24, 100, 61, False),
        (64, 160, 160, True),
        (64, 161, 160, False),
        (200, 1, 863, True),
        (200, 1, 864, False),
        (200, 20000, 20000, False),
    ],
)
def test_the_packed_route_is_taken_exactly_where_the_rule_says(n, bits_a, bits_b, packed,
                                                               monkeypatch):
    # both routes give the same integers, so only a count tells them apart:
    # packed where n >= 16 and the bit sum is at most 4 (n + 16)
    calls = count_packed_products(monkeypatch)
    a, b = bits_operand(n, bits_a), bits_operand(n, bits_b)
    assert series._convolve(a, b) == schoolbook(a, b)
    assert len(calls) == packed


@pytest.mark.parametrize("t_prec, p_prec, packed", [(40, 24, True), (8, 100, False)])
def test_the_product_operator_takes_the_packed_route_by_shape(t_prec, p_prec, packed,
                                                              monkeypatch):
    # the benchmark's (2, 40, 24) packs every product of the build and of
    # the identity; t_prec 8 packs none
    calls = count_packed_products(monkeypatch)
    prec = SeriesPrecision(t_prec, p_prec)
    plus, minus = (build_log_pm(Prime(2), sign, prec) for sign in Sign)
    products = sum(factor_count(Prime(2), sign, prec) - 1 for sign in Sign) + 1
    assert (plus * minus).coeffs == textbook_mul(plus, minus)
    assert len(calls) == (products if packed else 0)


def test_equal_series_may_hold_different_numerators():
    p = Prime(3)
    s = build_log_pm(p, Sign.MINUS, PREC)
    # numerators and denominator times p: construction divides that common
    # factor out again
    other = TruncatedSeries(p, PREC, tuple(c * p for c in s.nums), s.den * p)
    assert other.nums == s.nums and other.den == s.den
    assert math.gcd(s.den, *s.nums) == 1
    assert other == s and hash(other) == hash(s)
    x = TruncatedSeries(p, PREC, (1, 3, 0, 9, 0, 0, 0, 2), 3)
    y = TruncatedSeries(p, PREC, (5, 15, 0, 45, 0, 0, 0, 10), 15)
    assert (y.nums, y.den) == ((1, 3, 0, 9, 0, 0, 0, 2), 3)
    assert x == y and hash(x) == hash(y) and x.coeffs == y.coeffs
    assert x != TruncatedSeries(p, PREC, x.nums, 9)
    assert x != TruncatedSeries(p, SeriesPrecision(8, 5), x.nums, x.den)
    assert x != x.coeffs
    with pytest.raises(ValueError):
        TruncatedSeries(p, PREC, x.nums, 0)


def test_pval_integer_and_rational_paths_agree():
    for p in (2, 3, 5, 7):
        for q in (1, -1, p, -(p**5), 12 * p**3, 10**30 * p**7):
            assert pval(q, p) == pval(Fraction(q), p) == pval(Fraction(q * p, p), p)
        assert pval(Fraction(11, p**4), p) == -4
    with pytest.raises(ValueError):
        pval(0, 3)
    with pytest.raises(ValueError):
        pval(Fraction(0), 3)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
def test_build_log_pm_constant_term(p, sign):
    assert build_log_pm(p, sign, PREC).coeffs[0] == Fraction(1, p)


def exact_log_pm(p, sign, prec, factors):
    # (1/p) prod_(j <= factors) Phi(p, e(j))(1 + T) / p from phi_shifted
    # factors and TruncatedSeries products with no numerator reduced: exactly
    # the Amice transform of mu± at level e(factors).
    product = TruncatedSeries.from_coefficients(p, prec, [1])
    for j in range(1, factors + 1):
        product = product * phi_shifted(p, 2 * j - sign.parity, prec)
    return TruncatedSeries(p, prec, product.nums, p ** (factors + 1))


def agree_mod(xs, ys, p, digits):
    # the two coefficient sequences agree mod p^digits term by term
    return all(x == y or pval(x - y, p) >= digits for x, y in zip(xs, ys, strict=True))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
def test_stabilization_and_soundness(p, sign):
    count = factor_count(p, sign, PREC)
    built = build_log_pm(p, sign, PREC)
    exact = exact_log_pm(p, sign, PREC, count)
    assert built.den == exact.den
    assert agree_mod(built.coeffs, exact.coeffs, p, PREC.p_prec)
    # appending one more factor moves nothing mod p^p_prec
    assert agree_mod(exact_log_pm(p, sign, PREC, count + 1).coeffs, built.coeffs, p, PREC.p_prec)


def tail_terms(p, sign, prec):
    # L, the largest v_p(k) for 0 < k < t_prec (0 at t_prec = 1), and w, the
    # number of j >= 1 with e(j) = 2j - parity <= L + 1, counted one by one.
    top = max((pval(k, p) for k in range(1, prec.t_prec)), default=0)
    w = sum(1 for j in range(1, top + 3) if 2 * j - sign.parity <= top + 1)
    return top, w


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_phi_shifted_coefficients_meet_the_binomial_bound(p):
    # v_p(C(i p^(m-1), k)) >= m - 1 - v_p(k) for every summand, so the T^k
    # coefficient of Phi(p, m)(1 + T) meets it too: the tail bound's lemma.
    prec = SeriesPrecision(40, 1)
    for m in range(1, 6):
        coeffs = phi_shifted(Prime(p), m, prec).coeffs
        assert coeffs[0] == p
        for k in range(1, 40):
            assert coeffs[k] == 0 or pval(coeffs[k], p) >= m - 1 - pval(k, p), (m, k)


def fraction_log_pm(p, sign, t_prec, factors):
    # (1/p) prod_(j <= factors) Phi(p, e(j))(1 + T) / p as Fractions: each
    # factor summed from binomial rows C(i h, k), k < t_prec, by the integer
    # recurrence C(N, k + 1) = C(N, k) (N - k) / (k + 1), the integer product
    # convolved by hand, and p^(factors + 1) divided out at the end; no
    # series code.
    product = [1] + [0] * (t_prec - 1)
    for j in range(1, factors + 1):
        h = p ** (2 * j - sign.parity - 1)
        factor = [0] * t_prec
        for i in range(p):
            binomial = 1
            for k in range(t_prec):
                factor[k] += binomial
                binomial = binomial * (i * h - k) // (k + 1)
        product = [sum(product[i] * factor[k - i] for i in range(k + 1)) for k in range(t_prec)]
    return [Fraction(c, p ** (factors + 1)) for c in product]


@pytest.mark.parametrize("p", [2, 3, 7, 11, 13, 101])
@pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
@pytest.mark.parametrize("t_prec", [1, 8, 40])
def test_build_agrees_with_eight_more_factors_mod_p_to_the_p_prec(p, sign, t_prec):
    # The product of factor_count + 8 factors is log± to far more digits,
    # so every built coefficient must agree with it mod p^p_prec.
    for p_prec in (1, 6, 20):
        prec = SeriesPrecision(t_prec, p_prec)
        built = build_log_pm(Prime(p), sign, prec).coeffs
        longer = fraction_log_pm(p, sign, t_prec, factor_count(Prime(p), sign, prec) + 8)
        for k, (x, y) in enumerate(zip(built, longer, strict=True)):
            assert x == y or pval(x - y, p) >= p_prec, (p_prec, k)


REDUCED_PRIMES = [Prime(q) for q in (2, 3, 5, 7, 13, 31, 101)]
REDUCED_PRECS = [
    SeriesPrecision(t_prec, p_prec)
    for t_prec, p_prec in ((1, 1), (2, 3), (8, 6), (12, 8), (24, 10), (40, 24), (5, 12))
]


@pytest.mark.parametrize("p", REDUCED_PRIMES)
def test_a_build_reduced_mod_p_to_the_p_prec_plus_k_plus_1_dumps_the_same(p):
    # The build reduces its numerators mod p^(p_prec + K + 1), K =
    # factor_count, and the exact product of the same K factors carries
    # nothing past that power that the dump prints: the two agree mod
    # p^p_prec, over the same denominator, in the same bytes.
    changed = 0
    for prec in REDUCED_PRECS:
        for sign in Sign:
            reduced = build_log_pm(p, sign, prec)
            exact = exact_log_pm(p, sign, prec, factor_count(p, sign, prec))
            assert reduced.den == exact.den, (prec, sign)
            assert agree_mod(reduced.coeffs, exact.coeffs, p, prec.p_prec), (prec, sign)
            assert dump_dict(reduced, sign) == dump_dict(exact, sign), (prec, sign)
            changed += reduced.nums != exact.nums
    assert changed  # the reduction did cut some numerators


def identity_passes(p, prec):
    cases = rows(verify_product_identity(p, prec))
    assert len(cases) == prec.t_prec
    assert all(passed for *_, passed in cases), (prec, [row for row in cases if not row[3]])


@pytest.mark.parametrize("p", REDUCED_PRIMES)
def test_the_product_identity_passes_on_the_reduced_build(p):
    for prec in REDUCED_PRECS:
        identity_passes(p, prec)


@pytest.mark.parametrize("p", REDUCED_PRIMES)
def test_the_product_identity_passes_on_the_exact_product(p, monkeypatch):
    # the same bound holds for the exact product of as many factors
    def exact_build(p, sign, prec):
        return exact_log_pm(p, sign, prec, factor_count(p, sign, prec))

    monkeypatch.setattr(series, "build_log_pm", exact_build)
    for prec in REDUCED_PRECS:
        identity_passes(p, prec)


BOUNDED_CASES = [(p, prec) for p in REDUCED_PRIMES for prec in REDUCED_PRECS]
BOUNDED_CASES += [(Prime(2**61 - 1), SeriesPrecision(24, 24))]


@pytest.mark.parametrize(
    "p, prec", BOUNDED_CASES, ids=[f"{p}-{prec.t_prec}-{prec.p_prec}" for p, prec in BOUNDED_CASES]
)
def test_every_built_numerator_lies_below_p_to_the_p_prec_plus_k_plus_1(p, prec):
    # The build's integers stay bounded whatever the factor count; the
    # exact product's grow with every factor.
    for sign in Sign:
        modulus = p ** (prec.p_prec + factor_count(p, sign, prec) + 1)
        assert all(0 <= c < modulus for c in build_log_pm(p, sign, prec).nums), sign


def test_the_guarantee_is_reached_at_p_2():
    # The exact product of factor_count factors of log+ at (t_prec, p_prec)
    # = (8, 6) misses its T^6 coefficient by exactly 2^6: the count is the
    # least the tail bound admits and certifies nothing past p^p_prec.  The
    # build agrees with it mod 2^6.
    prec = SeriesPrecision(8, 6)
    count = factor_count(Prime(2), Sign.PLUS, prec)
    exact = fraction_log_pm(2, Sign.PLUS, 8, count)
    longer = fraction_log_pm(2, Sign.PLUS, 8, count + 8)
    assert pval(exact[6] - longer[6], 2) == 6
    assert agree_mod(build_log_pm(Prime(2), Sign.PLUS, prec).coeffs, exact, 2, 6)


@pytest.mark.parametrize("p", [Prime(q) for q in (2, 3, 5, 7, 101)])
@pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
def test_factor_count_is_the_least_count_the_tail_bound_admits(p, sign):
    # The least K with e(K + 1) >= p_prec + 3 + L + w, against the bound
    # recomputed here and the counts K - 1 and K.
    def level(j):
        return 2 * j - sign.parity

    for t_prec in sorted({1, 2, 3, p - 1, p, p + 1, p * p, p * p + 1, 40}):
        top, w = tail_terms(p, sign, SeriesPrecision(t_prec, 1))
        for p_prec in range(1, 21):
            prec = SeriesPrecision(t_prec, p_prec)
            target = p_prec + 3 + top + w
            count = factor_count(p, sign, prec)
            assert level(count + 1) >= target, (t_prec, p_prec)
            assert count == 0 or level(count) < target, (t_prec, p_prec)


def test_the_cost_cap_boundary_is_exact(monkeypatch):
    # At (3, 6, 8) each sign takes 6 factors and each multiply 6 * 7 / 2 = 21
    # coefficient products: 126 for one logarithm, (6 + 6 + 1) * 21 = 273
    # for both and their product.
    prec = SeriesPrecision(6, 8)
    for signs, cost in (((Sign.PLUS,), 126), ((Sign.MINUS,), 126), (tuple(Sign), 273)):
        monkeypatch.setattr(base, "ENUMERATION_CAP", cost)
        assert series.require_within_cap(Prime(3), signs, prec) is None
        monkeypatch.setattr(base, "ENUMERATION_CAP", cost - 1)
        refusal = f"^{cost} exceeds the enumeration cap of {cost - 1} "
        with pytest.raises(ResourceCapError, match=refusal):
            series.require_within_cap(Prime(3), signs, prec)


def test_a_cost_too_long_to_print_is_refused_by_a_printable_count():
    # t_prec, then each factor count, is refused before the cost, whose
    # 4,301 digits or more are past the int-to-str limit, is multiplied out.
    p, huge = Prime(2), 10**4300 - 1
    for prec, sign in ((SeriesPrecision(huge, 1), None), (SeriesPrecision(1, huge), Sign.PLUS)):
        count = huge if sign is None else factor_count(p, sign, prec)
        with pytest.raises(ResourceCapError) as refused:
            series.require_within_cap(p, tuple(Sign), prec)
        assert str(refused.value).startswith(f"{count} exceeds the enumeration cap of 1000000 ")


def test_build_is_deterministic():
    a = build_log_pm(Prime(3), Sign.PLUS, PREC)
    b = build_log_pm(Prime(3), Sign.PLUS, PREC)
    assert a == b
    assert a.coeffs == b.coeffs


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
@pytest.mark.parametrize(
    "finer",
    [SeriesPrecision(12, 6), SeriesPrecision(8, 8), SeriesPrecision(10, 8)],
)
def test_monotone_refinement(p, sign, finer):
    # refining either precision axis leaves already-guaranteed residues alone
    coarse = build_log_pm(p, sign, PREC)
    fine = build_log_pm(p, sign, finer)
    # zip stops at the coarse series' t_prec terms
    for new, old in zip(fine.coeffs, coarse.coeffs):
        diff = new - old
        assert diff == 0 or pval(diff, p) >= PREC.p_prec


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize(
    "prec",
    [SeriesPrecision(8, 6), SeriesPrecision(10, 6), SeriesPrecision(12, 8)],
)
def test_product_identity_passes(p, prec):
    cases = rows(verify_product_identity(p, prec))
    assert all(passed for *_, passed in cases), [row for row in cases if not row[3]]
    assert len(cases) == prec.t_prec
    # one bound for every T^k: p_prec + 2 less the larger denominator valuation
    dens = [build_log_pm(p, sign, prec).den for sign in Sign]
    bound = prec.p_prec + 2 - max(pval(den, p) for den in dens)
    assert {expected for _, expected, *_ in cases} == {f"v_p(residual) >= {bound}"}


def test_product_identity_linear_term_exact():
    # p^2 * (1/p) * (1/p) = 1 matches the leading logarithm coefficient exactly
    for p in PRIMES:
        cases = rows(verify_product_identity(p, PREC))
        _, _, actual, passed = next(row for row in cases if row[0] == "T^1")
        assert passed
        assert actual == "v_p(residual) = exact"


def coefficient_valuation_profile(s: TruncatedSeries) -> list[tuple[int, int | None]]:
    """Per-coefficient valuations; None marks a coefficient that is zero mod
    p^p_prec (exactly zero or indistinguishable from it)."""
    profile: list[tuple[int, int | None]] = []
    for k, c in enumerate(s.coeffs):
        if c == 0 or pval(c, s.p) >= s.prec.p_prec:
            profile.append((k, None))
        else:
            profile.append((k, pval(c, s.p)))
    return profile


def test_valuation_profile():
    p = Prime(3)
    log_plus = build_log_pm(p, Sign.PLUS, PREC)
    profile = coefficient_valuation_profile(log_plus)
    assert profile[0] == (0, -1)
    # no coefficient below p^(-1 - w), w = 1 at t_prec 8 for p = 3 (L = 1)
    observed = [v for _, v in profile if v is not None]
    assert min(observed) >= -2
    assert tail_terms(p, Sign.PLUS, PREC)[1] == 1


def test_valuation_profile_zero_coefficient():
    s = TruncatedSeries.from_coefficients(Prime(3), PREC, [1, 0, Fraction(1, 2)])
    profile = coefficient_valuation_profile(s)
    assert profile[1] == (1, None)
    assert profile[2] == (2, 0)
    # a nonzero coefficient at or past p^p_prec also reads as zero
    t = TruncatedSeries.from_coefficients(Prime(3), SeriesPrecision(8, 1), [1, 3, Fraction(1, 2)])
    assert coefficient_valuation_profile(t)[:3] == [(0, 0), (1, None), (2, 0)]
    u = TruncatedSeries.from_coefficients(Prime(3), PREC, [3**6])
    assert coefficient_valuation_profile(u)[0] == (0, None)


def support_sum(sign, p, n, t_prec):
    # sum of mu(a + p^n Z_p) C(a, k) over the level-n support, k < t_prec:
    # the level-n distribution's Amice transform, with C(a, k) by the integer
    # recurrence C(a, k + 1) = C(a, k) (a - k) / (k + 1) and no series code.
    masses = support_masses(sign, p, n)
    den = math.lcm(*(mass.denominator for mass in masses.values()))
    totals = [0] * t_prec
    for a, mass in masses.items():
        term = mass.numerator * (den // mass.denominator)  # mass * C(a, 0), over den
        for k in range(t_prec):
            totals[k] += term
            term = term * (a - k) // (k + 1)
    return tuple(Fraction(t, den) for t in totals)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_partial_product_is_the_amice_sum_over_the_support(p):
    # (1/p) prod_{j <= K} Phi(p, e(j))(1 + T) / p expands over digit choices
    # onto the level-n support, K = floor((n + parity) / 2), each term with
    # mass p^(-K-1).  t_prec on both sides of 3 (p - 1) runs both builders.
    for t_prec in (3 * (p - 1) - 1, 3 * (p - 1) + 2):
        prec = SeriesPrecision(t_prec, p_prec=4)
        for sign in Sign:
            n = 1
            while p ** ((n + sign.parity) // 2) <= 1000:
                partial = exact_log_pm(Prime(p), sign, prec, (n + sign.parity) // 2)
                assert partial.coeffs == support_sum(sign, p, n, t_prec), (t_prec, sign, n)
                n += 1


@pytest.mark.parametrize(
    "p,t_prec,p_prec,plus,minus", [(2, 12, 12, 9, 10), (3, 10, 8, 6, 7), (5, 8, 6, 5, 5)]
)
def test_stabilized_log_pm_is_the_amice_sum_of_its_level(p, t_prec, p_prec, plus, minus):
    # factor_count takes `plus` and `minus` factors here, so the exact
    # product of that many factors is the Amice sum of level 2 factors (plus)
    # or 2 factors - 1 (minus), and each built series agrees with it mod
    # p^p_prec.
    prec = SeriesPrecision(t_prec, p_prec)
    for sign, factors in zip(Sign, (plus, minus)):
        assert factor_count(Prime(p), sign, prec) == factors
        amice = support_sum(sign, p, 2 * factors - sign.parity, t_prec)
        assert exact_log_pm(Prime(p), sign, prec, factors).coeffs == amice
        assert agree_mod(build_log_pm(Prime(p), sign, prec).coeffs, amice, p, p_prec)


def test_series_arithmetic_requires_matching_precision():
    log = [0] + [Fraction((-1) ** (k + 1), k) for k in range(1, PREC.t_prec)]
    a = TruncatedSeries.from_coefficients(Prime(3), PREC, log)
    b = TruncatedSeries.from_coefficients(Prime(3), SeriesPrecision(10, 6), log)
    with pytest.raises(ValueError):
        _ = a * b


def test_series_constructions_refuse_inputs_out_of_range():
    p = Prime(3)
    with pytest.raises(ValueError, match="more coefficients than t_prec"):
        TruncatedSeries.from_coefficients(p, PREC, [1] * (PREC.t_prec + 1))
    for m in (0, -1):
        with pytest.raises(ValueError, match="level m must be >= 1"):
            phi_shifted(p, m, PREC)


def test_dump_dict_schema():
    p = Prime(3)
    s = build_log_pm(p, Sign.MINUS, PREC)
    dump = dump_dict(s, Sign.MINUS)
    assert dump["p"] == 3 and dump["sign"] == "-"
    assert dump["t_prec"] == 8 and dump["p_prec"] == 6
    assert len(dump["coeffs"]) == 8
    first = dump["coeffs"][0]
    assert set(first) == {"k", "num", "den", "guaranteed_mod_p_pow"}
    assert first["num"] == "1" and first["den"] == "3"
    assert isinstance(first["num"], str) and isinstance(first["den"], str)
    assert [c["k"] for c in dump["coeffs"]] == list(range(8))
    assert [c["guaranteed_mod_p_pow"] for c in dump["coeffs"]] == [6] * 8


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31])
@pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
def test_dump_prints_the_canonical_residue_of_each_coefficient(p, sign):
    # c_k lies in [0, p^p_prec), has a power-of-p denominator and agrees
    # with the built coefficient x_k mod p^p_prec: the one such rational.  No
    # printed integer exceeds p^dump_exponent(s), the print gate's exponent.
    for t_prec, g in ((1, 1), (4, 2), (8, 6), (12, 8), (20, 5)):
        s = build_log_pm(Prime(p), sign, SeriesPrecision(t_prec, g))
        dump = dump_dict(s, sign)
        for coeff, x in zip(dump["coeffs"], s.coeffs, strict=True):
            den = int(coeff["den"])
            c = Fraction(int(coeff["num"]), den)
            assert coeff["guaranteed_mod_p_pow"] == g
            assert 0 <= c < Fraction(p) ** g, (t_prec, g, coeff)
            assert c.denominator == den == p ** pval(den, p)
            assert c == x or pval(c - x, p) >= g
            assert max(int(coeff["num"]), den) <= p ** dump_exponent(s)


def test_dump_of_a_coefficient_below_its_guarantee_is_zero():
    # Over the common denominator 6 = 3 * 2, v = 1, mod 3^2: 27/2 is 0 mod 9,
    # 7/3 keeps its fractional part, 7/3, and 1/2 prints its inverse 5.
    p, prec = Prime(3), SeriesPrecision(3, 2)
    s = TruncatedSeries.from_coefficients(p, prec, [Fraction(27, 2), Fraction(7, 3), Fraction(1, 2)])
    assert [(c["num"], c["den"]) for c in dump_dict(s, Sign.PLUS)["coeffs"]] == [
        ("0", "1"),
        ("7", "3"),
        ("5", "1"),
    ]


INVARIANCE_GRID = [
    (p, sign, t_prec, p_prec)
    for p in (2, 3, 5, 7, 11, 13, 31, 101)
    for sign in Sign
    for t_prec, p_prec in ((8, 6), (12, 8), (24, 10), (5, 12))
]


@pytest.mark.parametrize("p,sign,t_prec,p_prec", INVARIANCE_GRID)
def test_dump_does_not_depend_on_where_the_product_stopped(p, sign, t_prec, p_prec):
    # Eight factors past the factor count print the same bytes: the dump
    # holds only the classes mod p^p_prec.
    prec = SeriesPrecision(t_prec, p_prec)
    built = build_log_pm(Prime(p), sign, prec)
    longer = exact_log_pm(Prime(p), sign, prec, factor_count(Prime(p), sign, prec) + 8)
    assert longer != built
    assert dump_dict(longer, sign) == dump_dict(built, sign)
