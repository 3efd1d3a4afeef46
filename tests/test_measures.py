import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tmbench import (
    BoundSpec,
    COUNT_ALL,
    LanguageOracle,
    MeasureFunction,
    build_demo_machines,
    build_trie_machine,
    check_bound,
    check_monotone_sample,
    evaluate,
    parse_measure,
)
from tmbench.machine import all_words
from tmbench.measures import _log2_evaluate, bound_passes, compose

IDENTITY = MeasureFunction("identity")


def test_evaluate_identity():
    assert evaluate(IDENTITY, 7) == 7.0


def test_evaluate_linear():
    assert evaluate(MeasureFunction("linear", a=1, b=1), 4) == 5.0


def test_evaluate_log_shift():
    # log2(7 + 1) = 3 exactly
    assert evaluate(MeasureFunction("log", a=1, b=0), 7) == 3.0


def test_evaluate_domain_error():
    with pytest.raises(ValueError):
        evaluate(IDENTITY, 0)
    with pytest.raises(ValueError):
        evaluate(IDENTITY, -3)


def test_parameter_constraints():
    with pytest.raises(ValueError):
        MeasureFunction("linear", a=0)
    with pytest.raises(ValueError):
        MeasureFunction("linear", a=1, b=-1)
    with pytest.raises(ValueError):
        MeasureFunction("power", a=1, k=0)
    with pytest.raises(ValueError):
        MeasureFunction("sine")


@pytest.mark.parametrize("text, name", [
    ("linear:a=nan,b=0", "a"),
    ("linear:a=inf,b=0", "a"),
    ("linear:a=1,b=inf", "b"),
    ("log:a=1,b=inf", "b"),
    ("log:a=1,b=nan", "b"),
    ("power:a=1,k=nan", "k"),
    ("power:a=1,k=inf", "k"),
    ("exp2:a=inf", "a"),
])
def test_non_finite_parameters_rejected(text, name):
    with pytest.raises(ValueError, match=f"parameter {name} must be finite"):
        parse_measure(text)


@pytest.mark.parametrize("f, x", [
    (MeasureFunction("exp2", a=1), 1100),
    (MeasureFunction("exp2", a=0.5), 1e6),
    (MeasureFunction("power", a=1, k=200), 1100),
    (MeasureFunction("power", a=1, k=200), 1100.0),
    (MeasureFunction("linear", a=1e308, b=0), 10),
])
def test_overflow_saturates_to_inf(f, x):
    assert evaluate(f, x) == math.inf


@pytest.mark.parametrize("f, x, exact", [
    (MeasureFunction("power", a=1e-300, k=110), 1100, Fraction(1e-300) * 1100 ** 110),
    (MeasureFunction("exp2", a=1e-300), 1100, Fraction(1e-300) * 2 ** 1100),
])
def test_overflowing_power_brought_back_by_a(f, x, exact):
    assert evaluate(f, x) == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.parametrize("f", [
    IDENTITY,
    MeasureFunction("linear", a=2.5, b=3),
    MeasureFunction("linear", a=2.5, b=0),
    MeasureFunction("log", a=3, b=7),
    MeasureFunction("log", a=0.5, b=0),
    MeasureFunction("power", a=2, k=1.5),
    MeasureFunction("exp2", a=3),
])
@pytest.mark.parametrize("x", [1, 2.5, 37, 1000])
def test_log2_evaluate_matches_direct(f, x):
    assert _log2_evaluate(f, x) == pytest.approx(math.log2(evaluate(f, x)), rel=1e-12)


def test_log_of_overflowed_stage_is_finite():
    exp2, log = MeasureFunction("exp2", a=1), MeasureFunction("log", a=1, b=0)
    assert compose(log, exp2, 1100) == 1100.0
    assert compose(MeasureFunction("log", a=2, b=1), exp2, 1100) == 2201.0
    assert compose(log, MeasureFunction("power", a=1, k=200), 1100) == pytest.approx(
        200 * math.log2(1100), rel=1e-12)
    assert compose(log, MeasureFunction("linear", a=1e308, b=1e308), 10) == pytest.approx(
        math.log2(1e308) + math.log2(11), rel=1e-12)
    assert compose(exp2, exp2, 1100) == math.inf
    assert compose(MeasureFunction("power", a=1, k=2), exp2, 1100) == math.inf
    # a composed bound below the count fails instead of reading inf
    scanner = build_demo_machines()[0]
    for spec in (BoundSpec(g=log, mode="outer", transform=exp2),
                 BoundSpec(g=exp2, mode="inner", transform=log)):
        report = check_bound(scanner, COUNT_ALL, spec, ["0" * 1100])
        assert report.per_input[0].bound == 1100.0
        assert report.per_input[0].counted_steps == 1101
        assert not report.verdict


def test_infinite_bound_passes_any_count():
    assert bound_passes(10 ** 400, math.inf)
    spec = BoundSpec(g=MeasureFunction("exp2", a=1), mode="outer",
                     transform=MeasureFunction("exp2", a=1))
    assert spec.bound(11) == math.inf
    report = check_bound(build_demo_machines()[0], COUNT_ALL, spec, ["0" * 10, "1"])
    assert [row.bound for row in report.per_input] == [math.inf, 2.0 ** 2.0]
    assert report.verdict
    assert report.worst_margin == 1 - 4.0


def test_monotone_sample_identity():
    assert check_monotone_sample(IDENTITY, [1, 2, 3])


def test_monotone_sample_exp2():
    assert check_monotone_sample(MeasureFunction("exp2", a=0.5), [1, 2, 4, 8])


def test_monotone_sample_rejects_bad_input():
    with pytest.raises(ValueError):
        check_monotone_sample(IDENTITY, [1])
    with pytest.raises(ValueError):
        check_monotone_sample(IDENTITY, [2, 1])
    with pytest.raises(ValueError):
        check_monotone_sample(IDENTITY, [0, 1])


def test_monotone_sample_catches_numerically_constant():
    # slope so small the increment vanishes in double precision
    flat = MeasureFunction("linear", a=1e-300, b=1.0)
    assert not check_monotone_sample(flat, [1, 2])


@given(
    family=st.sampled_from(["identity", "linear", "log", "power", "exp2"]),
    a=st.floats(min_value=0.01, max_value=100, allow_nan=False),
    b=st.floats(min_value=0, max_value=100, allow_nan=False),
    k=st.floats(min_value=0.05, max_value=5, allow_nan=False),
)
def test_families_always_monotone(family, a, b, k):
    f = MeasureFunction(family, a=a, b=b, k=k)
    xs = [0.5 * (i + 1) for i in range(32)]
    assert check_monotone_sample(f, xs)


def test_bound_spec_transform_presence():
    with pytest.raises(ValueError):
        BoundSpec(g=IDENTITY, mode="outer")
    with pytest.raises(ValueError):
        BoundSpec(g=IDENTITY, mode="plain", transform=IDENTITY)


@pytest.mark.parametrize("mode", ["", "Plain", "both"])
def test_bound_spec_unknown_mode(mode):
    with pytest.raises(ValueError, match=f"^unknown bound mode '{mode}'$"):
        BoundSpec(g=IDENTITY, mode=mode, transform=IDENTITY)


def test_composition_order():
    g = MeasureFunction("linear", a=2, b=0)
    t = MeasureFunction("power", a=1, k=2)
    outer = BoundSpec(g=g, mode="outer", transform=t)
    inner = BoundSpec(g=g, mode="inner", transform=t)
    assert outer.bound(3) == 18.0
    assert inner.bound(3) == 36.0
    for x in (1, 2, 5, 10):
        assert inner.bound(x) == 2 * outer.bound(x)


def trie3():
    return build_trie_machine(LanguageOracle.builtin("contains-1"), 3).machine


def test_check_bound_trie_linear_pass():
    words = all_words("01", 3)
    spec = BoundSpec(g=MeasureFunction("linear", a=1, b=1))
    report = check_bound(trie3(), COUNT_ALL, spec, words, fuel=100)
    assert report.verdict
    assert report.worst_margin <= 0


def test_check_bound_trie_identity_fail():
    words = all_words("01", 3)
    report = check_bound(trie3(), COUNT_ALL, BoundSpec(g=IDENTITY), words, fuel=100)
    assert not report.verdict
    # every nonempty word runs for |w| + 1 > |w| steps; the empty word is
    # checked against the bound at length 1 and squeaks through
    assert all(not row.passed for row in report.per_input if row.length > 0)


def test_check_bound_scanner_outer_log_fail():
    scanner, _ = build_demo_machines()
    spec = BoundSpec(
        g=MeasureFunction("linear", a=1, b=1),
        mode="outer",
        transform=MeasureFunction("log", a=1, b=0),
    )
    inputs = ["0" * n for n in (4, 8, 16)]
    report = check_bound(scanner, COUNT_ALL, spec, inputs, fuel=1000)
    by_len = {row.length: row for row in report.per_input}
    # independent bound: steps n+1 vs log2(n+1) + 1
    for n in (4, 8, 16):
        expected_bound = math.log2(n + 1) + 1
        assert by_len[n].bound == pytest.approx(expected_bound)
        assert by_len[n].counted_steps == n + 1
    assert not by_len[8].passed
    assert not by_len[16].passed
    assert not report.verdict


def test_check_bound_empty_word_uses_length_one():
    spec = BoundSpec(g=MeasureFunction("linear", a=1, b=1))
    report = check_bound(trie3(), COUNT_ALL, spec, [""], fuel=100)
    row = report.per_input[0]
    assert row.length == 0
    assert row.bound == 2.0  # evaluated at x = 1
    assert row.passed


def test_check_bound_fuel_exhaustion_marks_failure():
    scanner, _ = build_demo_machines()
    report = check_bound(scanner, COUNT_ALL, BoundSpec(g=IDENTITY), ["00000"], fuel=2)
    assert not report.verdict
    assert report.worst_margin == math.inf


def test_check_bound_requires_inputs():
    with pytest.raises(ValueError):
        check_bound(trie3(), COUNT_ALL, BoundSpec(g=IDENTITY), [], fuel=10)


def test_check_bound_refuses_a_bare_string():
    # "0001" would otherwise run the four one-symbol words
    with pytest.raises(TypeError):
        check_bound(trie3(), COUNT_ALL, BoundSpec(g=IDENTITY), "0001", fuel=10)


def test_check_bound_reads_an_iterator_once_and_refuses_it_exhausted():
    words = all_words("01", 3)
    report = check_bound(trie3(), COUNT_ALL, BoundSpec(g=IDENTITY), words, fuel=10)
    assert len(report.per_input) == 15
    with pytest.raises(ValueError, match="non-empty"):
        check_bound(trie3(), COUNT_ALL, BoundSpec(g=IDENTITY), words, fuel=10)


def test_identity_transform_collapse():
    words = list(all_words("01", 3))
    g = MeasureFunction("linear", a=1, b=1)
    plain = check_bound(trie3(), COUNT_ALL, BoundSpec(g=g), words, fuel=100)
    outer = check_bound(trie3(), COUNT_ALL,
                        BoundSpec(g=g, mode="outer", transform=IDENTITY), words, fuel=100)
    inner = check_bound(trie3(), COUNT_ALL,
                        BoundSpec(g=g, mode="inner", transform=IDENTITY), words, fuel=100)
    assert plain == outer == inner


def test_monotone_bound_growth():
    words = list(all_words("01", 3))
    g1 = MeasureFunction("linear", a=1, b=0)
    g2 = MeasureFunction("linear", a=1, b=1)
    r1 = check_bound(trie3(), COUNT_ALL, BoundSpec(g=g1), words, fuel=100)
    r2 = check_bound(trie3(), COUNT_ALL, BoundSpec(g=g2), words, fuel=100)
    passed1 = {row.input for row in r1.per_input if row.passed}
    passed2 = {row.input for row in r2.per_input if row.passed}
    assert passed1 <= passed2


def test_parse_measure():
    assert parse_measure("identity") == IDENTITY
    assert parse_measure("linear:a=2,b=0.5") == MeasureFunction("linear", a=2, b=0.5)
    assert parse_measure("log:a=1,b=1") == MeasureFunction("log", a=1, b=1)
    assert parse_measure("power:a=1,k=2") == MeasureFunction("power", a=1, k=2)
    assert parse_measure("exp2:a=1") == MeasureFunction("exp2", a=1)
    for bad in ("cubic:a=1", "linear:a=1,k=2", "linear:q=1", "linear"):
        with pytest.raises(ValueError):
            parse_measure(bad)


@pytest.mark.parametrize("text", ["linear:a=1,a=5,b=2", "linear:a=1,b=2,b=2", "exp2:a=1,a=1",
                                  "power:k=2,a=1,k=3"])
def test_parse_measure_rejects_a_repeated_parameter(text):
    with pytest.raises(ValueError, match="repeated measure parameter"):
        parse_measure(text)
