"""Acceptance suite: the headline identities at their stated desk-scale
bounds, one printed pass/fail line per criterion.

Every check is exact (tolerance zero); the series criterion is exact mod
p^p_prec, where a proven tail bound cuts the logarithms' products.  Run with
`pytest -s` to see the pass/fail lines.
"""

from fractions import Fraction

from pmlog.base import Sign
from pmlog.bivariate import biamice_check, bimu_oracle, bimu_value
from pmlog.cyclotomic import even_product, odd_product, zeta_power
from pmlog.digits import Prime, enumerate_R, residue_from_integer
from pmlog.distribution import (
    StepFunction,
    integrate,
    interpolation_rhs,
    mu_oracle,
    mu_value,
    total_mass,
    verify_additivity,
)
from pmlog.series import SeriesPrecision, verify_product_identity
import pmlog.cli as cli
from level_rows import rows

SIGNS = (Sign.PLUS, Sign.MINUS)
BISIGNS = tuple(tuple(map(Sign.from_str, t)) for t in ("++", "+-", "-+", "--"))


def _conclude(criterion, description, ok):
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {criterion} failed: {description}"


def test_criterion_1_closed_form_equals_oracle():
    ranges = [(Prime(2), 5), (Prime(3), 5), (Prime(5), 3)]
    ok = True
    for p, max_n in ranges:
        for sign in SIGNS:
            for n in range(1, max_n + 1):
                for a in range(p**n):
                    r = residue_from_integer(a, p, n)
                    if mu_value(sign, r).value != mu_oracle(sign, r).value:
                        ok = False
    _conclude(1, "closed-form values equal the character-sum oracle on every coset", ok)


def test_criterion_2_cyclotomic_products_match_supports():
    ok = True
    for p in (Prime(2), Prime(3), Prime(5)):
        for count in range(0, 4):
            even = even_product(p, count)
            odd = odd_product(p, count)
            # No repeated exponent: each listed exponent is one unit term.
            for product, sign in ((even, Sign.PLUS), (odd, Sign.MINUS)):
                if set(product) != enumerate_R(p, count, sign):
                    ok = False
                if not len(set(product)) == len(product) == p**count:
                    ok = False
    _conclude(2, "even/odd cyclotomic products expand to unit sums over the R sets", ok)


def test_criterion_3_amice_interpolation():
    ok = True
    for p in (Prime(2), Prime(3), Prime(5)):
        for sign in SIGNS:
            for n in range(1, 4):
                for k in range(1, n + 1):
                    zeta_exp = p ** (n - k)
                    f = StepFunction.from_function(
                        p, n, lambda a, e=zeta_exp: zeta_power(p, n, e * a)
                    )
                    if integrate(sign, f) != interpolation_rhs(sign, k, p, n):
                        ok = False
    _conclude(3, "twisted coset sums equal the closed interpolation values exactly", ok)


def test_criterion_4_product_identity():
    prec = SeriesPrecision(t_prec=10, p_prec=6)
    ok = True
    for p in (Prime(2), Prime(3), Prime(5)):
        if not all(passed for *_, passed in rows(verify_product_identity(p, prec))):
            ok = False
    _conclude(4, "p^2 T log+ log- matches the classical logarithm at (N=10, M=6)", ok)


def test_criterion_5_additivity():
    ok = True
    for p, max_n in ((Prime(2), 5), (Prime(3), 3), (Prime(5), 3)):
        for sign in SIGNS:
            for n in range(1, max_n + 1):
                if not all(passed for *_, passed in rows(verify_additivity(sign, p, n))):
                    ok = False
    _conclude(5, "coset masses are additive under refinement", ok)


def test_criterion_6_two_variable_products():
    ok = True
    for p in (Prime(2), Prime(3)):
        for s in BISIGNS:
            for n in range(1, 3):
                for m in range(1, 3):
                    for a in range(p**n):
                        for b in range(p**m):
                            r = (
                                residue_from_integer(a, p, n),
                                residue_from_integer(b, p, m),
                            )
                            if bimu_value(s, r).value != bimu_oracle(s, r).value:
                                ok = False
            for n in range(1, 3):
                cases = rows(*biamice_check(p, n)[s])
                if len(cases) != n * n or not all(passed for *_, passed in cases):
                    ok = False
    _conclude(6, "two-variable values factor and interpolate coordinatewise", ok)


def test_criterion_7_total_mass():
    ok = True
    for p in (Prime(2), Prime(3), Prime(5), Prime(7)):
        for sign in SIGNS:
            if total_mass(sign, p) != Fraction(1, p):
                ok = False
    _conclude(7, "total mass is 1/p for both signs", ok)


def test_criterion_8_valuation_law():
    ok = True
    for p in (Prime(2), Prime(3)):
        for sign in SIGNS:
            offset = 2 if sign is Sign.PLUS else 3
            for n in range(1, 7):
                for a in range(p**n):
                    v = mu_value(sign, residue_from_integer(a, p, n))
                    if not v.is_zero and v.p_valuation != -((n + offset) // 2):
                        ok = False
    _conclude(8, "nonzero values have the stated p-adic valuations up to n = 6", ok)


def test_criterion_9_verify_is_deterministic(capsys):
    argv = ["verify", "--suite", "all", "--p", "3", "--max-n", "2"]
    code1 = cli.main(list(argv))
    out1 = capsys.readouterr().out
    code2 = cli.main(list(argv))
    out2 = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and out1 == out2
    with capsys.disabled():
        _conclude(9, "consecutive verify --suite all runs are byte-identical", ok)
