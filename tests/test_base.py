"""base: the one cap check.  Every entry point that enumerates p^k of
something goes through base.check_cap, so it refuses past the enumeration
cap from k alone, before it builds p^k, with one message shape, and reads
the cap at the call."""

import itertools
import re
import time
import tracemalloc

import pytest

import pmlog.base as base
import pmlog.cli as cli
from pmlog.base import ResourceCapError, Sign, check_cap
from pmlog.cyclotomic import CyclotomicElement, _indexed_product, eval_at_zeta, zeta_power
from pmlog.digits import Prime, enumerate_R
from pmlog.distribution import (
    StepFunction,
    digit_test_level,
    interpolation_rhs,
    mu_level,
    mu_oracle_level,
    support_masses,
    verify_additivity,
)

P2, P3 = Prime(2), Prime(3)

# "<count> exceeds the <cap> of <number> <unit>", the count a number or p^k.
SHAPE = re.compile(r"\d+(\^\d+)? exceeds the (enumeration|table) cap of \d+ [a-z].*")

# Each entry point that enumerates p^k things for some level k, called at k.
ENTRY_POINTS = {
    "enumerate_R": lambda k: enumerate_R(P3, k, Sign.PLUS),
    "_indexed_product": lambda k: _indexed_product(P3, k, 1),
    "mu_level": lambda k: mu_level(Sign.PLUS, P2, k),
    "mu_oracle_level": lambda k: mu_oracle_level(Sign.MINUS, P2, k),
    "digit_test_level": lambda k: digit_test_level(Sign.PLUS, P2, k, 1, 0),
    "support_masses": lambda k: support_masses(Sign.PLUS, P2, k),
    "verify_additivity": lambda k: verify_additivity(Sign.MINUS, P2, k),
    # Four values, as many as a level-2 step function has.
    "StepFunction": lambda k: StepFunction(P2, k, itertools.repeat(0, 4)),
    "StepFunction.from_function": lambda k: StepFunction.from_function(P2, k, abs),
    "CyclotomicElement.zero": lambda k: CyclotomicElement.zero(P2, k),
    "zeta_power": lambda k: zeta_power(P2, k, 1),
    "eval_at_zeta": lambda k: eval_at_zeta({0: 1}, P2, k),
    "interpolation_rhs": lambda k: interpolation_rhs(Sign.PLUS, 1, P2, k),
    "interpolation_rhs, wrong parity": lambda k: interpolation_rhs(Sign.PLUS, 2, P2, k),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_a_level_of_a_billion_is_refused_at_once_in_little_memory(name):
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ResourceCapError) as refused:
            ENTRY_POINTS[name](10**9)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 2**20, (elapsed, peak)
    assert SHAPE.fullmatch(str(refused.value)) and " of 1000000 " in str(refused.value)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_patching_the_base_cap_moves_every_check(monkeypatch, name):
    # Level 2 passes at the default cap; at a cap of 1, p^k >= 2 is refused.
    ENTRY_POINTS[name](2)
    monkeypatch.setattr(base, "ENUMERATION_CAP", 1)
    with pytest.raises(ResourceCapError) as refused:
        ENTRY_POINTS[name](2)
    assert SHAPE.fullmatch(str(refused.value)) and " of 1 " in str(refused.value)


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--sign", "+", "--p", "2", "--n", "21", "--force"],
        ["table", "--sign", "-+", "--p", "2", "--n", "19", "--m", "19", "--force"],
        ["table", "--sign", "+", "--p", "2", "--n", "17"],
        ["value", "--sign", "+", "--p", "2", "--n", "80", "--a", "0", "--oracle"],
        ["verify", "--suite", "oracle", "--p", "2", "--max-n", "30"],
        ["verify", "--suite", "logproduct", "--p", "2", "--tprec", "2000", "--pprec", "1"],
        ["series", "--sign", "-", "--p", "2", "--tprec", "1", "--pprec", "10" * 2000],
        # A cost past the int-to-str limit is refused by its printable factors.
        ["series", "--sign", "+", "--p", "2", "--tprec", "9" * 2200, "--pprec", "1"],
        ["verify", "--suite", "logproduct", "--p", "2", "--tprec", "9" * 2200],
        ["series", "--sign", "-", "--p", "2", "--tprec", "200", "--pprec", "9" * 4300],
        # Two factor counts of 4,300 digits each add up to 4,301 digits.
        ["verify", "--suite", "logproduct", "--p", "2", "--tprec", "1", "--pprec", "9" * 4300],
    ],
)
def test_every_cli_cap_refusal_has_the_one_shape(capsys, argv):
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.endswith("\n")
    assert SHAPE.fullmatch(captured.err[len("error: ") : -1]), captured.err


@pytest.mark.parametrize(
    "args, message",
    [
        ((2, 38, "rows"), "2^38 exceeds the enumeration cap of 1000000 rows"),
        ((7, 16000, "cosets"), "7^16000 exceeds the enumeration cap of 1000000 cosets"),
        ((1001, 1, "rows", 1000, "table cap"), "1001 exceeds the table cap of 1000 rows"),
    ],
)
def test_check_cap_words_every_refusal_once(args, message):
    with pytest.raises(ResourceCapError) as refused:
        check_cap(*args)
    assert str(refused.value) == message


@pytest.mark.parametrize("p", [2, 3, 10**6 + 3])
def test_check_cap_is_exact_at_every_exponent(monkeypatch, p):
    # The bit-length shortcut decides as the full power would, at each cap.
    for cap in (0, 1, 2, 7, 8, 9, 10**6 - 1, 10**6, 10**6 + 1, 10**6 + 3):
        for k in range(0, cap.bit_length() + 3):
            if p**k > cap:
                with pytest.raises(ResourceCapError):
                    check_cap(p, k, "things", cap)
            else:
                check_cap(p, k, "things", cap)
    monkeypatch.setattr(base, "ENUMERATION_CAP", 8)
    check_cap(8, 1, "things")
    with pytest.raises(ResourceCapError, match="^9 exceeds the enumeration cap of 8 things$"):
        check_cap(9, 1, "things")
