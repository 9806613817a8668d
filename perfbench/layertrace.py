"""Per-layer tracing of pmlog from outside the program.

``install`` wraps each public function or method named in ``SPANS`` and
``COUNTERS``: a module-level function is rebound in every loaded ``pmlog``
module namespace that holds it (``from ... import`` copies included), a
method is replaced on its class.  ``restore`` puts every original back and
fails loudly if a wrapper is left anywhere.

A span records its calls, total time and self time, where self time is the
total minus the time covered by the wrapped calls made inside it.  The
tracer's own bookkeeping around a child is charged to neither the child
nor the parent, so self times stay close to their untraced values.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Call counts, total and self times, and named counters, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, SpanStats] = {}
        self.counts: dict[str, int] = {}
        self._covered: list[float] = []  # time covered by children, per open span

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def raise_to(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def call(self, name: str, fn, args, kwargs, observe=None):
        """Run fn(*args, **kwargs) as a span called ``name``.

        ``observe(tracer, args, result)`` runs after the span closes, to
        record counters about the call without charging their cost to it.
        """
        outer_start = self.clock()
        try:
            result = self._span(name, fn, args, kwargs)
            if observe is not None:
                observe(self, args, result)
            return result
        finally:
            if self._covered:
                self._covered[-1] += self.clock() - outer_start

    def _span(self, name: str, fn, args, kwargs):
        self._covered.append(0.0)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            covered = self._covered.pop()
            stats = self.spans.setdefault(name, SpanStats())
            stats.calls += 1
            stats.total_s += elapsed
            stats.self_s += elapsed - covered


# --- what is traced -------------------------------------------------------
# Observers record the counters that make a span's work comparable across
# program versions: how much was scanned, and how much of it mattered.


def _nonzero(prefix):
    def observe(tracer, args, result):
        if not result.is_zero:
            tracer.add(prefix + ".nonzero")

    return observe


def _coeff_products(tracer, args, result):
    # CyclotomicElement.__mul__ skips zero coefficients on either side.
    self, other = args[0], args[1]
    nonzero = sum(1 for c in self.coeffs if c != 0)
    if hasattr(other, "coeffs"):
        nonzero *= sum(1 for c in other.coeffs if c != 0)
    tracer.add("cyclotomic.ring_mul.coeff_products", nonzero)


def _eval_terms(tracer, args, result):
    poly = args[0]
    items = getattr(poly, "coefficients", poly)
    tracer.add("cyclotomic.eval_at_zeta.terms", sum(1 for c in items.values() if c != 0))


def _coeff_bits(tracer, args, result):
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in result.coeffs)
    tracer.raise_to("series.coeff_bits_max", bits)


# (metric name, module, attribute, observer).  An attribute "Class.method"
# is patched on the class; a bare name is rebound wherever pmlog holds it.
SPANS = (
    ("bivariate.bimu_value", "bivariate", "bimu_value", _nonzero("bivariate.bimu_value")),
    ("bivariate.biamice_check", "bivariate", "biamice_check", None),
    ("distribution.mu_value", "distribution", "mu_value", _nonzero("distribution.mu_value")),
    ("distribution.integrate", "distribution", "integrate", None),
    ("distribution.step_function", "distribution", "StepFunction.__init__", None),
    ("distribution.interpolation_rhs", "distribution", "interpolation_rhs", None),
    ("distribution.mu_oracle", "distribution", "mu_oracle", None),
    ("distribution.verify_additivity", "distribution", "verify_additivity", None),
    ("cyclotomic.ring_mul", "cyclotomic", "CyclotomicElement.__mul__", _coeff_products),
    ("cyclotomic.ring_add", "cyclotomic", "CyclotomicElement.__add__", None),
    ("cyclotomic.zeta_power", "cyclotomic", "zeta_power", None),
    ("cyclotomic.eval_at_zeta", "cyclotomic", "eval_at_zeta", _eval_terms),
    ("cyclotomic.character_sum", "cyclotomic", "character_sum", None),
    ("cyclotomic.cyclo_product", "cyclotomic", "even_product", None),
    ("cyclotomic.cyclo_product", "cyclotomic", "odd_product", None),
    ("digits.residue_from_integer", "digits", "residue_from_integer", None),
    ("digits.membership", "digits", "in_S_plus", None),
    ("digits.membership", "digits", "in_S_minus", None),
    ("series.mul", "series", "TruncatedSeries.__mul__", _coeff_bits),
    # base.pval, counted wherever it is called; the series layer makes
    # nearly all of these calls.
    ("series.pval", "base", "pval", None),
    ("series.build_log_pm", "series", "build_log_pm", None),
    # One phi_shifted call per partial-product factor.
    ("series.factors", "series", "phi_shifted", None),
    ("cli.main", "cli", "main", None),
    ("cli.build_parser", "cli", "build_parser", None),
    ("report.to_json_dict", "report", "VerificationReport.to_json_dict", None),
)

# Calls counted without a span: their time stays in the caller's self time.
COUNTERS = (
    ("distribution.dist_value.constructed", "distribution", "DistValue.__init__"),
    ("digits.enumerate_R.calls", "digits", "enumerate_R"),
)

_WRAPPED = "__perfbench_wrapped__"


def _span_wrapper(tracer, name, fn, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, observe)

    setattr(wrapper, _WRAPPED, True)
    return wrapper


def _count_wrapper(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.add(name)
        return fn(*args, **kwargs)

    setattr(wrapper, _WRAPPED, True)
    return wrapper


def _pmlog_modules():
    return [m for key, m in sorted(sys.modules.items()) if key == "pmlog" or key.startswith("pmlog.")]


def install(tracer: Tracer) -> tuple[list[tuple[object, str, object]], list[str]]:
    """Wrap every traced name.

    Returns the (owner, attribute, original) list that ``restore`` needs,
    and the targets this version of pmlog does not have; their metrics
    read 0, so a renamed function shows up as missing, not as a crash.
    """
    patches, missing = [], []
    modules = _pmlog_modules()

    def patch(mod, attr, make):
        owner = sys.modules.get(f"pmlog.{mod}")
        *classes, member = attr.split(".")
        for cls_name in classes:
            owner = getattr(owner, cls_name, None)
        original = vars(owner).get(member) if owner is not None else None
        if original is None:
            missing.append(f"{mod}.{attr}")
        elif classes:
            patches.append((owner, member, original))
            setattr(owner, member, make(original))
        else:
            wrapper = make(original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    for name, mod, attr, observe in SPANS:
        patch(mod, attr, lambda fn: _span_wrapper(tracer, name, fn, observe))
    for name, mod, attr in COUNTERS:
        patch(mod, attr, lambda fn: _count_wrapper(tracer, name, fn))
    return patches, missing


def restore(patches: list[tuple[object, str, object]]) -> None:
    """Undo ``install`` and check that no wrapper is left in pmlog."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    for owner, attr, original in patches:
        if vars(owner)[attr] is not original:
            raise RuntimeError(f"{owner!r}.{attr} was not restored")
    for module in _pmlog_modules():
        for key, value in vars(module).items():
            members = vars(value).values() if isinstance(value, type) else (value,)
            if any(getattr(m, _WRAPPED, False) for m in members):
                raise RuntimeError(f"a trace wrapper is left in {module.__name__}.{key}")


def metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metric values of one traced pass (before ``cli`` extras)."""
    out: dict[str, float] = {}
    for name, _, _, _ in SPANS:
        stats = tracer.spans.get(name, SpanStats())
        if name == "report.to_json_dict":
            out[name + ".self_s"] = stats.self_s
            continue
        out[name + ".calls"] = stats.calls
        out[name + ".self_s"] = stats.self_s
    for name in ("bivariate.bimu_value", "distribution.mu_value"):
        calls = out[name + ".calls"]
        out[name + ".nonzero_ratio"] = tracer.counts.get(name + ".nonzero", 0) / calls if calls else 0.0
    for name in (
        "cyclotomic.ring_mul.coeff_products",
        "cyclotomic.eval_at_zeta.terms",
        "series.coeff_bits_max",
        "distribution.dist_value.constructed",
        "digits.enumerate_R.calls",
    ):
        out[name] = tracer.counts.get(name, 0)
    return out
