"""Truncated series construction, the precision bookkeeping, and the product identity."""

import math
import random
from fractions import Fraction

import pytest

import pmlog.series as series
from pmlog import (
    ConvergenceError,
    Prime,
    SeriesPrecision,
    Sign,
    TruncatedSeries,
    build_log_pm,
    cyclo_poly,
    log_pm_partial_product,
    phi_shifted,
    pval,
    series_log_classical,
    stabilization_factor_count,
    support_masses,
    verify_product_identity,
)
from pmlog.series import _binomial_rows, _quotient, dump_dict, dump_exponent
from level_rows import rows

PRIMES = [Prime(2), Prime(3), Prime(5)]
PREC = SeriesPrecision(t_prec=8, p_prec=6)


def test_series_precision_validation():
    with pytest.raises(ValueError):
        SeriesPrecision(0, 5)
    with pytest.raises(ValueError):
        SeriesPrecision(5, 0)


def test_log_classical_coefficients():
    s = series_log_classical(Prime(2), PREC)
    assert s.coeffs[0] == 0
    assert s.coeffs[1] == 1
    assert s.coeffs[2] == Fraction(-1, 2)
    assert s.coeffs[4] == Fraction(-1, 4)
    assert pval(s.coeffs[4], 2) == -2
    assert all(g == PREC.p_prec for g in s.guarantees)


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


def with_guarantees(p, prec, coeffs, guars):
    # an exactly known series with the given guarantees in place of M
    exact = TruncatedSeries.from_coefficients(p, prec, coeffs)
    return TruncatedSeries(exact.p, exact.prec, exact.nums, exact.den, tuple(guars))


def textbook_mul(x, y):
    # the reference product: a Fraction double loop, with the worst-case
    # guarantee rule applied pair by pair on uncapped valuations
    p, n = x.p, x.prec.t_prec

    def v(q):
        return math.inf if q == 0 else pval(q, p)

    coeffs = [Fraction(0)] * n
    guars = [math.inf] * n
    for i in range(n):
        for j in range(n - i):
            ci, cj = x.coeffs[i], y.coeffs[j]
            gi, gj = x.guarantees[i], y.guarantees[j]
            coeffs[i + j] += ci * cj
            guars[i + j] = min(guars[i + j], gi + v(cj), gj + v(ci), gi + gj)
    return tuple(coeffs), tuple(guars)


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
    guars = tuple(rng.randint(-6, 12) for _ in range(prec.t_prec))
    return with_guarantees(p, prec, coeffs, guars)


@pytest.mark.parametrize("p", [Prime(q) for q in (2, 3, 5, 7, 11, 13)])
def test_mul_matches_textbook_product(p):
    rng = random.Random(int(p))
    for _ in range(40):
        prec = SeriesPrecision(rng.randint(1, 12), rng.randint(1, 10))
        x, y = random_series(rng, p, prec), random_series(rng, p, prec)
        product = x * y
        assert (product.coeffs, product.guarantees) == textbook_mul(x, y)
        assert all(type(c) is Fraction for c in product.coeffs)


def test_mul_with_all_zero_operand():
    x = with_guarantees(Prime(5), PREC, (Fraction(0),) * 8, range(-3, 5))
    y = build_log_pm(Prime(5), Sign.PLUS, PREC)
    product = x * y
    assert product.coeffs == (Fraction(0),) * 8
    assert (product.coeffs, product.guarantees) == textbook_mul(x, y)


def cap_cases(p):
    # series whose valuations reach or pass their guarantees, so the cap
    # min(v_p(c_k), g_k) binds on their coefficients
    prec = SeriesPrecision(5, 6)
    return [
        # valuations above and at their guarantees, one below, and a zero
        ([p**5, p**3, Fraction(p**7, p**2), 1, 0], (3, 3, 4, 5, 5)),
        # the largest guarantee is the one that binds
        ([p**6, p**9, 1, p, 0], (6, 2, 1, 1, 0)),
        # denominator p^2 with every guarantee at most -2: p^(2 + max g) <= 1
        ([Fraction(1, p**2), Fraction(p, p**2), 1, 0, p], (-2, -3, -2, -4, -5)),
        ([Fraction(1, p**2), 0, 0, 1, 7], (-3, -4, -5, -3, -6)),
        # a denominator that is not a power of p
        ([Fraction(p**4, 77 * p), Fraction(1, 35), Fraction(p**2, 11), 0, 1], (3, 0, 2, 2, 1)),
        # the all-zero operand
        ([], (4, -1, 0, 7, 2)),
    ], prec


@pytest.mark.parametrize("p", [Prime(q) for q in (2, 3, 5, 13)])
def test_mul_matches_textbook_product_where_the_cap_binds(p):
    cases, prec = cap_cases(p)
    series_list = [with_guarantees(p, prec, coeffs, guars) for coeffs, guars in cases]
    rng = random.Random(int(p) + 100)
    series_list += [random_series(rng, p, prec) for _ in range(4)]
    for x in series_list:
        for y in series_list:
            product = x * y
            assert (product.coeffs, product.guarantees) == textbook_mul(x, y)


def test_equal_series_may_hold_different_numerators():
    p = Prime(3)
    s = build_log_pm(p, Sign.MINUS, PREC)
    # scaling by p and back multiplies both numerators and denominator by
    # p, and construction divides that common factor out again
    other = s.scale(p).scale(Fraction(1, p))
    assert other.nums == s.nums and other.den == s.den
    assert math.gcd(s.den, *s.nums) == 1
    assert other == s and hash(other) == hash(s)
    x = TruncatedSeries(p, PREC, (1, 3, 0, 9, 0, 0, 0, 2), 3, (6,) * 8)
    y = TruncatedSeries(p, PREC, (5, 15, 0, 45, 0, 0, 0, 10), 15, (6,) * 8)
    assert (y.nums, y.den) == ((1, 3, 0, 9, 0, 0, 0, 2), 3)
    assert x == y and hash(x) == hash(y) and x.coeffs == y.coeffs
    assert x != TruncatedSeries(p, PREC, x.nums, 9, x.guarantees)
    assert x != TruncatedSeries(p, PREC, x.nums, x.den, (5,) + (6,) * 7)
    assert x != x.coeffs
    with pytest.raises(ValueError):
        TruncatedSeries(p, PREC, x.nums, 0, x.guarantees)


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


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
def test_stabilization_and_soundness(p, sign):
    count = stabilization_factor_count(p, sign, PREC)
    assert 0 < count <= 64
    built = build_log_pm(p, sign, PREC)
    at_count = log_pm_partial_product(p, sign, PREC, count)
    assert built == at_count
    # appending one more factor moves nothing at the guaranteed precision
    next_one = log_pm_partial_product(p, sign, PREC, count + 1)
    for new, old, g in zip(next_one.coeffs, built.coeffs, built.guarantees, strict=True):
        diff = new - old
        assert diff == 0 or pval(diff, p) >= g


def test_build_is_deterministic():
    a = build_log_pm(Prime(3), Sign.PLUS, PREC)
    b = build_log_pm(Prime(3), Sign.PLUS, PREC)
    assert a == b
    assert a.coeffs == b.coeffs and a.guarantees == b.guarantees


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
    for new, old, g in zip(fine.coeffs, coarse.coeffs, coarse.guarantees):
        diff = new - old
        assert diff == 0 or pval(diff, p) >= g


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize(
    "prec",
    [SeriesPrecision(8, 6), SeriesPrecision(10, 6), SeriesPrecision(12, 8)],
)
def test_product_identity_passes(p, prec):
    cases = rows(verify_product_identity(p, prec))
    assert all(passed for *_, passed in cases), [row for row in cases if not row[3]]
    assert len(cases) == prec.t_prec


def test_product_identity_linear_term_exact():
    # p^2 * (1/p) * (1/p) = 1 matches the leading logarithm coefficient exactly
    for p in PRIMES:
        cases = rows(verify_product_identity(p, PREC))
        _, _, actual, passed = next(row for row in cases if row[0] == "T^1")
        assert passed
        assert actual == "v_p(residual) = exact"


def coefficient_valuation_profile(s: TruncatedSeries) -> list[tuple[int, int | None]]:
    """Per-coefficient valuations; None marks a coefficient that is zero at
    its guaranteed precision (exactly zero or indistinguishable from it)."""
    profile: list[tuple[int, int | None]] = []
    for k, (c, g) in enumerate(zip(s.coeffs, s.guarantees)):
        if c == 0 or pval(c, s.p) >= g:
            profile.append((k, None))
        else:
            profile.append((k, pval(c, s.p)))
    return profile


def test_valuation_profile():
    p = Prime(3)
    log_plus = build_log_pm(p, Sign.PLUS, PREC)
    profile = coefficient_valuation_profile(log_plus)
    assert profile[0] == (0, -1)
    count = stabilization_factor_count(p, Sign.PLUS, PREC)
    observed = [v for _, v in profile if v is not None]
    assert min(observed) >= -(1 + count)


def test_valuation_profile_zero_coefficient():
    s = TruncatedSeries.from_coefficients(Prime(3), PREC, [1, 0, Fraction(1, 2)])
    profile = coefficient_valuation_profile(s)
    assert profile[1] == (1, None)
    assert profile[2] == (2, 0)
    # a nonzero coefficient below its guarantee also reads as zero
    t = with_guarantees(Prime(3), PREC, s.coeffs, (1,) * PREC.t_prec)
    assert coefficient_valuation_profile(t)[0] == (0, 0)
    u = TruncatedSeries.from_coefficients(Prime(3), PREC, [3**6])
    assert coefficient_valuation_profile(u)[0] == (0, None)


@pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
def test_factor_cap_boundary(sign, monkeypatch):
    p = Prime(3)
    count = stabilization_factor_count(p, sign, PREC)
    # the check needs factor count + 1 to see that it moves nothing
    monkeypatch.setattr(series, "FACTOR_CAP", count + 1)
    assert stabilization_factor_count(p, sign, PREC) == count
    monkeypatch.setattr(series, "FACTOR_CAP", count)
    with pytest.raises(ConvergenceError, match=f"did not stabilize within {count} factors"):
        stabilization_factor_count(p, sign, PREC)
    # the plain partial product takes no stopping rule and no cap
    assert log_pm_partial_product(p, sign, PREC, 0) == TruncatedSeries.one(p, PREC).scale(
        Fraction(1, p)
    )
    assert log_pm_partial_product(p, sign, PREC, 70).coeffs[0] == Fraction(1, p)


def test_factor_cap_raises(monkeypatch):
    monkeypatch.setattr(series, "FACTOR_CAP", 1)
    with pytest.raises(ConvergenceError, match="did not stabilize within 1 factors"):
        build_log_pm(Prime(2), Sign.MINUS, PREC)


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
                partial = log_pm_partial_product(Prime(p), sign, prec, (n + sign.parity) // 2)
                assert partial.coeffs == support_sum(sign, p, n, t_prec), (t_prec, sign, n)
                n += 1


@pytest.mark.parametrize("p,t_prec,p_prec,factors", [(2, 12, 12, 7), (3, 10, 8, 4), (5, 8, 6, 3)])
def test_stabilized_log_pm_is_the_amice_sum_of_its_level(p, t_prec, p_prec, factors):
    # The stopping rule takes `factors` factors here, so the stabilized
    # series is the level 2 factors (plus) or 2 factors - 1 (minus) sum.
    prec = SeriesPrecision(t_prec, p_prec)
    for sign in Sign:
        n = 2 * factors - sign.parity
        assert build_log_pm(Prime(p), sign, prec).coeffs == support_sum(sign, p, n, t_prec)


def test_series_arithmetic_requires_matching_precision():
    a = series_log_classical(Prime(3), PREC)
    b = series_log_classical(Prime(3), SeriesPrecision(10, 6))
    with pytest.raises(ValueError):
        _ = a * b


def test_scale_tracks_guarantees():
    s = TruncatedSeries.from_coefficients(Prime(3), PREC, [1, 3])
    down = s.scale(Fraction(1, 3))
    assert down.coeffs[0] == Fraction(1, 3)
    assert all(g == PREC.p_prec - 1 for g in down.guarantees)
    up = s.scale(9)
    assert all(g == PREC.p_prec + 2 for g in up.guarantees)
    with pytest.raises(ValueError, match="cannot scale by zero"):
        s.scale(0)


def test_series_constructions_refuse_inputs_out_of_range():
    p = Prime(3)
    with pytest.raises(ValueError, match="more coefficients than t_prec"):
        TruncatedSeries.from_coefficients(p, PREC, [1] * (PREC.t_prec + 1))
    for m in (0, -1):
        with pytest.raises(ValueError, match="level m must be >= 1"):
            phi_shifted(p, m, PREC)
    with pytest.raises(ValueError, match="factor_count must be >= 0"):
        log_pm_partial_product(p, Sign.PLUS, PREC, -1)


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
    assert [c["guaranteed_mod_p_pow"] for c in dump["coeffs"]] == list(s.guarantees)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31])
@pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
def test_dump_prints_the_canonical_residue_of_each_coefficient(p, sign):
    # c_k lies in [0, p^g_k), has a power-of-p denominator and agrees with
    # the built coefficient x_k mod p^g_k: the one such rational.  No printed
    # integer exceeds p^dump_exponent(s), the exponent the print gate checks.
    for t_prec, p_prec in ((1, 1), (4, 2), (8, 6), (12, 8), (20, 5)):
        s = build_log_pm(Prime(p), sign, SeriesPrecision(t_prec, p_prec))
        dump = dump_dict(s, sign)
        for coeff, x, g in zip(dump["coeffs"], s.coeffs, s.guarantees, strict=True):
            den = int(coeff["den"])
            c = Fraction(int(coeff["num"]), den)
            assert 0 <= c < Fraction(p) ** g, (t_prec, p_prec, coeff)
            assert c.denominator == den == p ** pval(den, p)
            assert c == x or pval(c - x, p) >= g
            assert max(int(coeff["num"]), den) <= p ** dump_exponent(s)


def test_dump_of_a_coefficient_below_its_guarantee_is_zero():
    # Over the common denominator 6 = 3 * 2, v = 1: 1/3 at guarantee -1 has
    # g + v = 0 and prints 0, 9/2 at guarantee 2 is 0 mod 9, and 7/3 at
    # guarantee 0 keeps its fractional part, 1/3.
    p, prec = Prime(3), SeriesPrecision(3, 4)
    s = with_guarantees(p, prec, [Fraction(1, 3), Fraction(9, 2), Fraction(7, 3)], (-1, 2, 0))
    assert [(c["num"], c["den"]) for c in dump_dict(s, Sign.PLUS)["coeffs"]] == [
        ("0", "1"),
        ("0", "1"),
        ("1", "3"),
    ]


INVARIANCE_GRID = [
    (p, sign, t_prec, p_prec)
    for p in (2, 3, 5, 7, 11, 13, 31, 101)
    for sign in Sign
    for t_prec, p_prec in ((8, 6), (12, 8), (24, 10), (5, 12))
]


@pytest.mark.parametrize("p,sign,t_prec,p_prec", INVARIANCE_GRID)
def test_dump_does_not_depend_on_where_the_product_stopped(p, sign, t_prec, p_prec):
    # Eight factors past the stopping point, taken at the built guarantees,
    # print the same bytes: the dump holds only the certified classes.
    prec = SeriesPrecision(t_prec, p_prec)
    built = build_log_pm(Prime(p), sign, prec)
    count = stabilization_factor_count(Prime(p), sign, prec)
    longer = log_pm_partial_product(Prime(p), sign, prec, count + 8)
    assert longer != built
    at_built = TruncatedSeries(Prime(p), prec, longer.nums, longer.den, built.guarantees)
    assert dump_dict(at_built, sign) == dump_dict(built, sign)
