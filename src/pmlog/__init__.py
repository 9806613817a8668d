"""Exact plus/minus p-adic logarithms, the distributions behind them, and
machine checks of the identities relating the two descriptions.

Everything is computed in exact rational arithmetic: residues mod p^n as
digit vectors, p-power cyclotomic quotient rings, truncated power series
(the logarithms as partial products cut at a proven tail bound), and the
distribution values themselves (always zero or a pure negative power of p).
"""

__version__ = "0.1.0"

from .base import ENUMERATION_CAP, ResourceCapError, Sign, pval
from .bivariate import biamice_check, bimu_oracle, bimu_value
from .cyclotomic import (
    CyclotomicElement,
    character_sum,
    cyclo_poly,
    eval_at_zeta,
    even_product,
    odd_product,
    zeta_power,
)
from .digits import (
    PRIME_LIMIT,
    Prime,
    Residue,
    enumerate_R,
    in_S_minus,
    in_S_plus,
    residue_from_integer,
)
from .distribution import (
    DistValue,
    StepFunction,
    amice_level,
    digit_test_level,
    integrate,
    interpolation_rhs,
    mass_exponent,
    mu_level,
    mu_oracle,
    mu_oracle_level,
    mu_value,
    support_masses,
    total_mass,
    verify_additivity,
)
from .report import VerificationReport
from .series import (
    SeriesPrecision,
    TruncatedSeries,
    build_log_pm,
    factor_count,
    log_pm_partial_product,
    phi_shifted,
    series_log_classical,
    verify_product_identity,
)

__all__ = [
    "__version__",
    "ENUMERATION_CAP",
    "ResourceCapError",
    "Sign",
    "pval",
    "PRIME_LIMIT",
    "Prime",
    "Residue",
    "residue_from_integer",
    "in_S_plus",
    "in_S_minus",
    "enumerate_R",
    "CyclotomicElement",
    "cyclo_poly",
    "even_product",
    "odd_product",
    "zeta_power",
    "character_sum",
    "eval_at_zeta",
    "SeriesPrecision",
    "TruncatedSeries",
    "series_log_classical",
    "phi_shifted",
    "build_log_pm",
    "factor_count",
    "log_pm_partial_product",
    "verify_product_identity",
    "DistValue",
    "StepFunction",
    "mass_exponent",
    "mu_value",
    "mu_level",
    "digit_test_level",
    "mu_oracle",
    "mu_oracle_level",
    "total_mass",
    "support_masses",
    "integrate",
    "interpolation_rhs",
    "amice_level",
    "verify_additivity",
    "bimu_value",
    "bimu_oracle",
    "biamice_check",
    "VerificationReport",
]
