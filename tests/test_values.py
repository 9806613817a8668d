"""The contract of the seven value classes: construction by position or
keyword, validation and its messages, immutability, equality and hash by
fields, the Name(field=value, ...) repr, and pickle/copy round trips."""

import copy
import pickle
import types
from fractions import Fraction

import pytest

from pmlog.base import Sign, Value, pval
from pmlog.cyclotomic import CyclotomicElement
from pmlog.digits import Prime, Residue
from pmlog.distribution import DistValue, StepFunction
from pmlog.report import VerificationReport
from pmlog.series import SeriesPrecision, TruncatedSeries

P3 = Prime(3)


def fields(cls):
    """Fresh, valid (and already reduced) field values for cls, in field order."""
    return {
        Residue: lambda: {"p": P3, "n": 2, "digits": (1, 0)},
        DistValue: lambda: {"p": P3, "value": Fraction(1, 9)},
        StepFunction: lambda: {"p": P3, "n": 1, "values": (Fraction(0), Fraction(1), Fraction(2))},
        CyclotomicElement: lambda: {"p": P3, "level": 1, "nums": (1, 2), "den": 3},
        SeriesPrecision: lambda: {"t_prec": 2, "p_prec": 4},
        TruncatedSeries: lambda: {
            "p": P3,
            "prec": SeriesPrecision(2, 4),
            "nums": (1, 2),
            "den": 3,
        },
        VerificationReport: lambda: {
            "suite": "oracle",
            "parameters": {"p": 3},
            "blocks": [("oracle", [("a=", range(1), "", [("1/9", "1/9", True)], [0])])],
        },
    }[cls]()


# One field changed to another valid value.
CHANGED = {
    Residue: {"digits": (2, 0)},
    DistValue: {"value": Fraction(0)},
    StepFunction: {"values": (Fraction(1),) * 3},
    CyclotomicElement: {"den": 1},
    SeriesPrecision: {"p_prec": 5},
    TruncatedSeries: {"nums": (1, 1)},
    VerificationReport: {"blocks": []},
}

CLASSES = list(CHANGED)
# A report hashes its parameters dict, which raises.
HASHABLE = [cls for cls in CLASSES if cls is not VerificationReport]


def make(cls, **changes):
    return cls(**{**fields(cls), **changes})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_keyword_and_positional_construction_agree(cls):
    given = fields(cls)
    by_keyword, by_position = cls(**given), cls(*fields(cls).values())
    assert by_keyword == by_position
    assert {name: getattr(by_keyword, name) for name in given} == given


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equality_is_by_fields(cls):
    a, b = make(cls), make(cls)
    assert a == b and not a != b
    assert a != make(cls, **CHANGED[cls]) and not a == make(cls, **CHANGED[cls])


@pytest.mark.parametrize("cls", HASHABLE, ids=lambda cls: cls.__name__)
def test_hash_is_by_fields(cls):
    a, b = make(cls), make(cls)
    assert hash(a) == hash(b)
    assert len({a, b, make(cls, **CHANGED[cls])}) == 2
    # the hash of the field tuple, so sets of values keep their order
    assert hash(a) == hash(tuple(fields(cls).values()))


def test_reports_are_unhashable():
    with pytest.raises(TypeError):
        hash(make(VerificationReport))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_another_class_with_the_same_fields_is_unequal(cls):
    a = make(cls)
    assert a != types.SimpleNamespace(**fields(cls))
    assert types.SimpleNamespace(**fields(cls)) != a
    other = type("Other", (cls,), {})
    assert a != other(**fields(cls)) and other(**fields(cls)) != a
    # a subclass made without fields= keeps its parent's
    assert repr(other(**fields(cls))) == "Other" + repr(a).removeprefix(cls.__qualname__)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_frozen_values_refuse_assignment_and_deletion(cls):
    a = make(cls)
    # _fields is the one store behind every field.
    for name in [*fields(cls), "_fields"]:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == make(cls)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr_names_each_field(cls):
    shown = ", ".join(f"{name}={value!r}" for name, value in fields(cls).items())
    assert repr(make(cls)) == f"{cls.__qualname__}({shown})"


def test_values_match_their_fields_by_position():
    match make(Residue):
        case Residue(p, n, digits):
            assert (p, n, digits) == (P3, 2, (1, 0))
        case _:
            pytest.fail("a Residue did not match by position")


def test_repr_examples():
    assert repr(make(Residue)) == "Residue(p=3, n=2, digits=(1, 0))"
    assert repr(make(DistValue)) == "DistValue(p=3, value=Fraction(1, 9))"
    assert repr(SeriesPrecision(t_prec=8, p_prec=6)) == "SeriesPrecision(t_prec=8, p_prec=6)"


def round_trips(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))
    yield copy.copy(value)
    yield copy.deepcopy(value)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_pickle_and_copy_round_trips(cls):
    a = make(cls)
    for b in round_trips(a):
        assert type(b) is cls and b == a
        if cls in HASHABLE:
            assert hash(b) == hash(a)


def test_copies_of_a_report_share_or_copy_its_cases_like_a_dataclass():
    report = make(VerificationReport)
    assert copy.copy(report).blocks is report.blocks
    deep = copy.deepcopy(report)
    assert deep.blocks is not report.blocks and deep.blocks == report.blocks


REFUSED = [
    (Residue, {"n": 0, "digits": ()}, "modulus exponent n must be >= 1"),
    (Residue, {"digits": (1,)}, "expected 2 digits, got 1"),
    (Residue, {"digits": (1, 3)}, "digits must lie in [0, 2]"),
    (Residue, {"digits": (-1, 0)}, "digits must lie in [0, 2]"),
    (DistValue, {"value": Fraction(1, 2)}, "1/2 is neither 0 nor a negative power of 3"),
    (DistValue, {"value": Fraction(3)}, "3 is neither 0 nor a negative power of 3"),
    (DistValue, {"value": Fraction(2, 9)}, "2/9 is neither 0 nor a negative power of 3"),
    (StepFunction, {"values": (0,)}, "expected 3 coset values, got 1"),
    (StepFunction, {"n": 0, "values": (0,)}, "modulus exponent n must be >= 1"),
    (CyclotomicElement, {"level": 0}, "level must be >= 1"),
    (CyclotomicElement, {"nums": (1,)}, "expected 2 coefficients, got 1"),
    (CyclotomicElement, {"den": 0}, "the denominator must be nonzero"),
    (SeriesPrecision, {"t_prec": 0}, "t_prec and p_prec must be >= 1"),
    (SeriesPrecision, {"p_prec": 0}, "t_prec and p_prec must be >= 1"),
    (TruncatedSeries, {"nums": (1,)}, "expected 2 coefficients, got 1"),
    (TruncatedSeries, {"nums": (1, 2, 3)}, "expected 2 coefficients, got 3"),
    (TruncatedSeries, {"den": 0}, "the common denominator must be positive"),
    (StepFunction, {"values": (0,) * 4}, "expected 3 coset values, got 4"),
]


@pytest.mark.parametrize("cls, changes, message", REFUSED)
def test_invalid_fields_raise_the_same_messages(cls, changes, message):
    with pytest.raises(ValueError) as refused:
        make(cls, **changes)
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "nums, den, reduced",
    [
        ((2, 4), 6, ((1, 2), 3)),
        ((2, 4), -6, ((-1, -2), 3)),
        ((0, 0), 5, ((0, 0), 1)),
        ((0, 0), -5, ((0, 0), 1)),
        ((3, 0), 1, ((3, 0), 1)),
    ],
)
def test_cyclotomic_elements_are_reduced_on_construction(nums, den, reduced):
    x = CyclotomicElement(P3, 1, nums, den)
    assert (x.nums, x.den) == reduced
    same = CyclotomicElement(P3, 1, *reduced)
    assert x == same and hash(x) == hash(same)
    assert repr(x) == f"CyclotomicElement(p=3, level=1, nums={reduced[0]!r}, den={reduced[1]})"


def test_series_compare_by_value_not_by_numerators():
    a = make(TruncatedSeries, nums=(2, 4), den=6)
    b = make(TruncatedSeries)
    assert (a.nums, a.den) == ((1, 2), 3) and a == b and hash(a) == hash(b)


def test_reports_built_without_cases_do_not_share_a_list():
    a, b = VerificationReport("oracle", {}), VerificationReport(suite="oracle", parameters={})
    assert a.blocks == [] and a.blocks is not b.blocks
    a.blocks.append(("oracle", [("a=", range(1), "", [("1", "1", True)], [0])]))
    assert b.blocks == []


def test_a_sign_reads_only_its_own_token():
    assert [Sign.from_str(token) for token in "+-"] == [Sign.PLUS, Sign.MINUS]
    for token in ("", "x", "++", "plus", " +"):
        with pytest.raises(ValueError, match="unknown sign"):
            Sign.from_str(token)


def test_a_value_class_refuses_an_unknown_class_keyword():
    # Value passes keywords other than fields= on to object, which refuses them.
    with pytest.raises(TypeError):
        type("Odd", (Value,), {"__slots__": ()}, fields=("a",), colour="red")


def test_the_zero_rational_has_no_valuation():
    assert pval(Fraction(9, 4), 3) == 2 and pval(-12, 2) == 2
    for zero in (0, Fraction(0)):
        with pytest.raises(ValueError, match="no finite p-adic valuation"):
            pval(zero, 3)
