import time
from dataclasses import replace

import pytest

from tmbench import (
    BLANK,
    COUNT_ALL,
    CertificateBudgetError,
    CheckingRelation,
    InvalidInputError,
    Machine,
    MeasureFunction,
    RIGHT,
    Verdict,
    build_demo_machines,
    decide_nc,
    decide_nt,
    run,
)
from tmbench.machine import all_words
from tmbench.nondet import deliver

LOG11 = MeasureFunction("log", a=1, b=1)
IDENTITY = MeasureFunction("identity")


def contains_1(word: str) -> bool:
    return "1" in word


def demo_checker():
    return build_demo_machines()[1]


def test_scanner_examples():
    scanner, _ = build_demo_machines()
    result = run(scanner, "001", COUNT_ALL, fuel=100)
    assert result.verdict is Verdict.ACCEPTED
    assert result.total_steps == 3
    for n in (1, 2, 7, 16):
        result = run(scanner, "0" * n, COUNT_ALL, fuel=1000)
        assert result.verdict is Verdict.REJECTED
        assert result.total_steps == n + 1


def test_enumeration_order():
    assert list(all_words(frozenset({"0", "1"}), 2)) == [
        "", "0", "1", "00", "01", "10", "11"
    ]
    # symbols are sorted; min_len drops the shorter words
    assert list(all_words("ba", 2, min_len=1)) == ["a", "b", "aa", "ab", "ba", "bb"]
    assert list(all_words("01", 3, min_len=3)) == [format(i, "03b") for i in range(8)]
    assert list(all_words("01", 1, min_len=2)) == []
    assert list(all_words("01", 0)) == [""]
    # lazy: the first words come at once, however long the enumeration
    start = time.process_time()
    assert next(all_words("01", 10 ** 6)) == ""
    later = all_words("01", 10 ** 6, min_len=40)
    assert (next(later), next(later)) == ("0" * 40, "0" * 39 + "1")
    assert time.process_time() - start < 1.0


def test_positioned_delivery():
    rel = demo_checker()
    config = deliver(rel, "0100", "1")
    assert config.head == 1
    assert config.tape == {0: "0", 1: "1", 2: "0", 3: "0"}
    assert deliver(rel, "0100", "").head == 0
    assert deliver(rel, "0100", "101").head == 5  # past the word: scans blank


def test_decide_nc_finds_witness():
    report = decide_nc(demo_checker(), LOG11, "0100")
    assert report.accepted
    assert report.witness == "1"
    assert report.max_checker_counted_steps == 1


def test_decide_nc_no_witness():
    report = decide_nc(demo_checker(), LOG11, "0000")
    assert not report.accepted
    assert report.witness is None
    # bound at length 4: floor(log2(5) + 1) = 3, so lengths 0..3 were all tried
    assert report.certificates_tried == 1 + 2 + 4 + 8


def test_decide_nc_empty_word():
    report = decide_nc(demo_checker(), LOG11, "")
    assert not report.accepted


def test_decide_nc_agrees_with_direct_membership():
    rel = demo_checker()
    for word in all_words("01", 6):
        assert decide_nc(rel, LOG11, word).accepted == contains_1(word)


def test_decide_nc_brute_force_oracle():
    # independent oracle: position y (base 2) indexes into x
    rel = demo_checker()
    import math
    for word in ["0100", "0001", "1000", "0000", "011010"]:
        max_len = math.floor(math.log2(max(len(word), 1) + 1) + 1 + 1e-9)
        expected = any(
            int(y, 2) < len(word) and word[int(y, 2)] == "1"
            for y in all_words(frozenset({"0", "1"}), max_len) if y
        ) or (len(word) > 0 and word[0] == "1")  # empty numeral = position 0
        assert decide_nc(rel, LOG11, word).accepted == expected


def test_decide_nc_budget_error():
    with pytest.raises(CertificateBudgetError):
        decide_nc(demo_checker(), MeasureFunction("linear", a=10, b=0),
                  "0" * 10, budget=100)


def test_checker_work_independent_of_length():
    rel = demo_checker()
    for n in (1, 8, 32, 64):
        report = decide_nc(rel, LOG11, "0" * (n - 1) + "1")
        assert report.accepted
        assert report.max_checker_counted_steps <= 2


def test_witness_length_bound():
    import math
    rel = demo_checker()
    for n in (1, 2, 3, 5, 16, 33, 64):
        report = decide_nc(rel, LOG11, "0" * (n - 1) + "1")
        assert report.accepted
        assert len(report.witness) <= math.floor(math.log2(n)) + 1


def test_monotone_search():
    rel = demo_checker()
    small = MeasureFunction("log", a=1, b=0)
    big = MeasureFunction("log", a=1, b=2)
    for word in ("1", "0001", "00000001"):
        if decide_nc(rel, small, word).accepted:
            assert decide_nc(rel, big, word).accepted


def test_decide_nt_identity_matches_nc():
    rel = demo_checker()
    for word in ("", "0", "1", "0100", "0000"):
        assert (decide_nt(rel, LOG11, IDENTITY, word)
                == decide_nc(rel, LOG11, word))


def test_decide_nt_admits_the_empty_certificate_under_a_bound_below_1():
    # g(1) = 0.3: only the empty certificate fits, and it points at cell 0
    rel = demo_checker()
    g = MeasureFunction("power", a=0.3, k=1)
    report = decide_nc(rel, g, "1")
    assert (report.accepted, report.witness, report.certificates_tried) == (True, "", 1)
    assert decide_nt(rel, g, IDENTITY, "1") == report
    # T(1) = 2 is past g(T(1)) = 0.6, and the empty certificate is still tried
    assert decide_nt(rel, g, MeasureFunction("exp2", a=1), "1") == report
    report = decide_nt(rel, g, IDENTITY, "0")
    assert (report.accepted, report.witness, report.certificates_tried) == (False, None, 1)


def test_decide_nt_exp_transform():
    rel = demo_checker()
    # 2^|y| <= 1 * 2^2: certificate lengths 0..2
    report = decide_nt(rel, MeasureFunction("linear", a=1, b=0),
                       MeasureFunction("exp2", a=1), "01")
    assert report.accepted
    assert report.witness == "1"
    # 2^|y| <= 0.5 * 2^2 = 2: lengths 0..1 only, "1" still works
    report = decide_nt(rel, MeasureFunction("linear", a=0.5, b=0),
                       MeasureFunction("exp2", a=1), "01")
    assert report.accepted
    assert report.witness == "1"
    assert report.certificates_tried <= 3


def test_decide_nt_log_of_overflowing_transform():
    # 2^|y| <= log2(2^1100): certificate lengths 0..10, positions up to 1023
    rel = demo_checker()
    g, t = MeasureFunction("log", a=1, b=0), MeasureFunction("exp2", a=1)
    report = decide_nt(rel, g, t, "0" * 1023 + "1" + "0" * 76)
    assert report.accepted
    assert report.witness == "1" * 10
    report = decide_nt(rel, g, t, "0" * 1024 + "1" + "0" * 75)
    assert not report.accepted
    assert report.certificates_tried == 2 ** 11 - 1


def inline_checker():
    """Accepts (x, y) iff the certificate starts with '1': seeks '#', reads
    the next symbol."""
    trans = {
        ("q_seek", "0"): ("q_seek", "0", RIGHT),
        ("q_seek", "1"): ("q_seek", "1", RIGHT),
        ("q_seek", "#"): ("q_read", "#", RIGHT),
        ("q_seek", BLANK): ("q_reject", BLANK, RIGHT),
        ("q_read", "1"): ("q_accept", "1", RIGHT),
        ("q_read", "0"): ("q_reject", "0", RIGHT),
        ("q_read", "#"): ("q_reject", "#", RIGHT),
        ("q_read", BLANK): ("q_reject", BLANK, RIGHT),
    }
    machine = Machine(
        input_alphabet=frozenset({"0", "1"}),
        tape_alphabet=frozenset({"0", "1", "#", BLANK}),
        states=frozenset({"q_seek", "q_read", "q_accept", "q_reject"}),
        start_state="q_seek",
        accept_state="q_accept",
        reject_state="q_reject",
        transitions=trans,
    )
    return CheckingRelation(checker=machine, delivery="inline")


def test_inline_delivery_layout():
    rel = inline_checker()
    config = deliver(rel, "01", "10")
    assert config.tape == {0: "0", 1: "1", 2: "#", 3: "1", 4: "0"}
    assert config.head == 0


def test_inline_search():
    report = decide_nc(inline_checker(), MeasureFunction("linear", a=1, b=0), "00")
    assert report.accepted
    assert report.witness == "1"


def test_inline_requires_separator_symbol():
    rel = inline_checker()
    bad = Machine(
        rel.checker.input_alphabet,
        frozenset({"0", "1", BLANK}),
        rel.checker.states,
        rel.checker.start_state,
        rel.checker.accept_state,
        rel.checker.reject_state,
        rel.checker.transitions,
    )
    with pytest.raises(ValueError):
        CheckingRelation(checker=bad, delivery="inline")


@pytest.mark.parametrize("delivery", ["", "Inline", "stream"])
def test_unknown_delivery(delivery):
    with pytest.raises(ValueError, match=f"^unknown delivery '{delivery}'$"):
        CheckingRelation(checker=demo_checker().checker, delivery=delivery)


def test_inline_separator_must_not_be_an_input_symbol():
    checker = inline_checker().checker
    hash_input = replace(checker, input_alphabet=checker.input_alphabet | {"#"})
    with pytest.raises(ValueError, match="^'#' must not be an input symbol$"):
        CheckingRelation(checker=hash_input, delivery="inline")


def test_positioned_requires_binary_certificates():
    with pytest.raises(ValueError):
        CheckingRelation(checker=demo_checker().checker, delivery="positioned",
                         certificate_alphabet=frozenset({"a", "b"}))


def test_search_reads_x_over_the_input_alphabet():
    # '#' and the blank are tape symbols, but not input symbols
    for x in ("0#1", "0_1", "#"):
        with pytest.raises(InvalidInputError, match="not in input alphabet"):
            decide_nc(inline_checker(), MeasureFunction("linear", a=1, b=0), x)
    with pytest.raises(InvalidInputError, match="not in input alphabet"):
        decide_nc(demo_checker(), LOG11, "0_1")


@pytest.mark.parametrize("alphabet", [{"a"}, {"0", "a"}, {BLANK}, {"#"}, {"1", "#"}])
def test_inline_certificate_alphabet_must_be_writable(alphabet):
    with pytest.raises(ValueError, match="certificate symbols"):
        CheckingRelation(inline_checker().checker, "inline", frozenset(alphabet))


def test_inline_certificate_alphabet_inside_the_tape_alphabet():
    for alphabet in ({"0"}, {"1"}, {"0", "1"}, set()):
        rel = CheckingRelation(inline_checker().checker, "inline", frozenset(alphabet))
        report = decide_nc(rel, MeasureFunction("linear", a=1, b=0), "00")
        assert report.accepted == ("1" in alphabet)


def test_infinite_bound_over_one_symbol_raises_at_once():
    # 2^1100 is past the largest double: the bound is infinite, and a
    # one-symbol alphabet adds only one certificate per length
    rel = CheckingRelation(inline_checker().checker, "inline", frozenset({"0"}))
    start = time.process_time()
    with pytest.raises(CertificateBudgetError):
        decide_nc(rel, MeasureFunction("exp2"), "0" * 1100)
    assert time.process_time() - start < 0.05
