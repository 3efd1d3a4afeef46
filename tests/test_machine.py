import math
import signal
from contextlib import contextmanager

import pytest

from tmbench import (
    BLANK,
    COUNT_ALL,
    BoundSpec,
    InvalidInputError,
    LanguageOracle,
    Machine,
    RIGHT,
    Verdict,
    build_demo_machines,
    build_trie_machine,
    check_bound,
    decide_nc,
    initial_configuration,
    parse_measure,
    run,
    run_configuration,
    step,
    validate_machine,
)


def scanner():
    return build_demo_machines()[0]


def trie(n=3, lang="contains-1"):
    return build_trie_machine(LanguageOracle.builtin(lang), n).machine


def test_generated_trie_validates():
    assert validate_machine(trie(2)) == []


def test_missing_transition_reported():
    m = scanner()
    trans = dict(m.transitions)
    del trans[("q_scan", BLANK)]
    broken = Machine(m.input_alphabet, m.tape_alphabet, m.states,
                     m.start_state, m.accept_state, m.reject_state, trans)
    defects = validate_machine(broken)
    assert any("not total" in d for d in defects)


def test_accept_equals_reject_reported():
    m = scanner()
    broken = Machine(m.input_alphabet, m.tape_alphabet, m.states,
                     m.start_state, "q_accept", "q_accept", m.transitions)
    defects = validate_machine(broken)
    assert any("not distinct" in d for d in defects)


def test_every_defect_kind_in_order():
    # transitions deliberately out of key order: the report is sorted
    broken = Machine(
        input_alphabet=frozenset({"_", "0", "z"}),
        tape_alphabet=frozenset({"0", "1", "ab", "cd"}),
        states=frozenset({"s", "t", "acc"}),
        start_state="s0",
        accept_state="acc",
        reject_state="s0",
        transitions={
            ("u", "_"): ("v", "9", "X"),
            ("t", "ab"): ("acc", "q", "L"),
            ("acc", "0"): ("s", "0", "R"),
            ("s", "x"): ("s", "0", "R"),
            ("t", "1"): ("zz", "1", "S"),
            ("s", "0"): ("t", "0", "R"),
            ("s0", "1"): ("t", "1", "L"),
        },
    )
    assert validate_machine(broken) == [
        "input alphabet contains the blank symbol",
        "tape alphabet missing the blank symbol",
        "input alphabet not a subset of tape alphabet",
        "symbol 'ab' is not a single character",
        "symbol 'cd' is not a single character",
        "start state 's0' not in state set",
        "reject state 's0' not in state set",
        "halting states not distinct (start/accept/reject must differ)",
        "transition table not total: missing (s, 1)",
        "transition table not total: missing (s, ab)",
        "transition table not total: missing (s, cd)",
        "transition table not total: missing (t, 0)",
        "transition table not total: missing (t, cd)",
        "transition from halting state (acc, 0)",
        "transition reads symbol 'x' outside tape alphabet",
        "transition from halting state (s0, 1)",
        "transition from unknown state 's0'",
        "transition (t, 1) targets unknown state 'zz'",
        "transition (t, 1) has move 'S', expected L or R",
        "transition (t, ab) writes 'q' outside tape alphabet",
        "transition from unknown state 'u'",
        "transition reads symbol '_' outside tape alphabet",
        "transition (u, _) targets unknown state 'v'",
        "transition (u, _) writes '9' outside tape alphabet",
        "transition (u, _) has move 'X', expected L or R",
    ]


def test_total_table_with_extra_keys_reports_only_the_extras():
    # keys outside (non-halting state) x (tape alphabet) must not make up
    # for a missing one, nor be counted as one
    m = scanner()
    trans = dict(m.transitions)
    trans[("q_accept", "0")] = ("q_scan", "0", RIGHT)
    assert validate_machine(Machine(m.input_alphabet, m.tape_alphabet, m.states,
                                    m.start_state, m.accept_state, m.reject_state,
                                    trans)) == ["transition from halting state (q_accept, 0)"]
    del trans[("q_scan", "1")]
    assert validate_machine(Machine(m.input_alphabet, m.tape_alphabet, m.states,
                                    m.start_state, m.accept_state, m.reject_state,
                                    trans)) == [
        "transition table not total: missing (q_scan, 1)",
        "transition from halting state (q_accept, 0)",
    ]


def test_initial_configuration_layout():
    c = initial_configuration(scanner(), "01")
    assert c.tape == {0: "0", 1: "1"}
    assert c.head == 0
    assert c.state == "q_scan"


def test_initial_configuration_empty_word():
    c = initial_configuration(scanner(), "")
    assert c.tape == {}
    assert c.scanned() == BLANK


def test_initial_configuration_bad_symbol():
    with pytest.raises(InvalidInputError):
        initial_configuration(scanner(), "2")


def test_step_trie_start_on_1():
    m = trie(3)
    c = initial_configuration(m, "1")
    c, record = step(m, c)
    assert record.write == BLANK
    assert record.move == RIGHT
    assert c.state == "q_1"


def test_step_halted_is_fixed_point():
    m = scanner()
    c = initial_configuration(m, "1")
    c.state = m.accept_state
    assert step(m, c) is None


def test_step_scanner_on_zero_stays():
    m = scanner()
    c = initial_configuration(m, "01")
    c, record = step(m, c)
    assert c.state == "q_scan"
    assert record.move == RIGHT


def test_run_trie_linear_time():
    result = run(trie(3), "010", COUNT_ALL, fuel=100)
    assert result.verdict is Verdict.ACCEPTED
    assert result.total_steps == 4


def test_run_rejects_zero_fuel():
    with pytest.raises(ValueError):
        run(scanner(), "0", COUNT_ALL, fuel=0)


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once it has run for seconds, so that
    a hang fails the test instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


FUEL_ENTRY_POINTS = {
    "run traced": lambda fuel: run(scanner(), "000", COUNT_ALL, fuel=fuel),
    "run untraced": lambda fuel: run(scanner(), "000", COUNT_ALL, fuel=fuel,
                                     record_trace=False),
    "run_configuration traced": lambda fuel: run_configuration(
        scanner(), initial_configuration(scanner(), "000"), COUNT_ALL, fuel),
    "run_configuration untraced": lambda fuel: run_configuration(
        scanner(), initial_configuration(scanner(), "000"), COUNT_ALL, fuel,
        record_trace=False),
    "check_bound": lambda fuel: check_bound(
        scanner(), COUNT_ALL, BoundSpec(g=parse_measure("linear:a=1,b=1")), ["000"], fuel=fuel),
    "decide_nc": lambda fuel: decide_nc(
        build_demo_machines()[1], parse_measure("log:a=1,b=1"), "0001", COUNT_ALL, fuel=fuel),
}


@pytest.mark.parametrize("entry", sorted(FUEL_ENTRY_POINTS))
@pytest.mark.parametrize("fuel", [100.0, math.inf, "5"])
def test_a_non_integer_fuel_raises_type_error(entry, fuel):
    # the fuel is checked before the step loop, whose TypeError handler would
    # take this TypeError for a table event: a traced run would spin forever
    with time_limit(5), pytest.raises(TypeError):
        FUEL_ENTRY_POINTS[entry](fuel)
    assert FUEL_ENTRY_POINTS[entry](100) is not None


def test_run_scanner_all_zeros():
    # hand trace: four symbol reads plus the blank read
    result = run(scanner(), "0000", COUNT_ALL, fuel=100)
    assert result.verdict is Verdict.REJECTED
    assert result.total_steps == 5


def test_run_fuel_exhaustion():
    result = run(scanner(), "0000", COUNT_ALL, fuel=2)
    assert result.verdict is Verdict.FUEL_EXHAUSTED
    assert result.total_steps == 2


def test_determinism():
    a = run(scanner(), "0010", COUNT_ALL, fuel=50)
    b = run(scanner(), "0010", COUNT_ALL, fuel=50)
    assert a == b
    assert a.trace == b.trace


@pytest.mark.parametrize("word", ["", "0", "1", "0010", "0000"])
def test_fuel_monotonicity(word):
    small = run(scanner(), word, COUNT_ALL, fuel=len(word) + 1)
    for extra in (0, 1, 10, 1000):
        again = run(scanner(), word, COUNT_ALL, fuel=len(word) + 1 + extra)
        assert again == small


def test_trace_consistency():
    result = run(trie(3), "011", COUNT_ALL, fuel=100)
    assert len(result.trace) == result.total_steps
    assert sum(r.counted for r in result.trace) == result.counted_steps


@pytest.mark.parametrize("word", ["", "0", "111", "010101"])
def test_tape_locality(word):
    result = run(scanner(), word, COUNT_ALL, fuel=100)
    s = result.total_steps
    cells = result.final.tape.keys()
    assert all(-s <= i <= len(word) + s for i in cells)
