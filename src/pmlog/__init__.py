"""Exact plus/minus p-adic logarithms, the distributions behind them, and
machine checks of the identities relating the two descriptions.

Everything is computed without rounding: residues mod p^n as digit
vectors, p-power cyclotomic quotient rings, truncated power series (the
logarithms cut at a proven tail bound and held mod a power of p), and the
distribution values themselves (always zero or a pure negative power of p).
Each name is imported from the module that defines it, as in
`from pmlog.distribution import mu_value`; the package holds only its version.
"""

__version__ = "0.1.0"
