import copy
import dataclasses
import math
import pickle
import signal
import time
from contextlib import contextmanager

import pytest

from tmbench import (
    BLANK,
    COUNT_ALL,
    BoundSpec,
    Configuration,
    InvalidInputError,
    BUILTIN_LANGUAGES,
    Machine,
    RIGHT,
    StepRecord,
    Verdict,
    build_demo_machines,
    build_trie_machine,
    check_bound,
    decide_nc,
    initial_configuration,
    parse_measure,
    run,
    run_configuration,
    validate_machine,
)

from reference import scanned, step


def scanner():
    return build_demo_machines()[0]


def trie(n=3, lang="contains-1"):
    return build_trie_machine(BUILTIN_LANGUAGES[lang], n).machine


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


def wide_machine(size):
    """A machine over size tape symbols, the blank's included, that accepts
    on its first step."""
    symbols = [chr(0x100 + i) for i in range(size - 1)]
    return Machine(frozenset(symbols), frozenset(symbols + [BLANK]),
                   frozenset({"q", "acc", "rej"}), "q", "acc", "rej",
                   {("q", s): ("acc", s, RIGHT) for s in symbols + [BLANK]})


def test_a_tape_alphabet_past_255_symbols_is_a_defect():
    # a tape cell is a byte, and one code past the symbols' is the sentinel
    assert validate_machine(wide_machine(255)) == []
    assert run(wide_machine(255), chr(0x100)).verdict is Verdict.ACCEPTED
    for size in (256, 300):
        message = f"tape alphabet has {size} symbols, more than 255"
        assert validate_machine(wide_machine(size)) == [message]
        with pytest.raises(ValueError, match=f"^invalid machine: {message}$"):
            run(wide_machine(size), chr(0x100))


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
    assert scanned(c) == BLANK


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


@pytest.mark.parametrize("record_trace", [True, False])
def test_run_configuration_names_an_unknown_state(record_trace):
    m = scanner()
    config = Configuration("nope", {}, 0)
    with pytest.raises(ValueError, match="configuration state 'nope' is not a state"):
        run_configuration(m, config, COUNT_ALL, 1, record_trace)
    assert (config.state, config.tape, config.head) == ("nope", {}, 0)
    # the machine still runs after the refusal
    assert run(m, "01", COUNT_ALL, fuel=10).verdict is Verdict.ACCEPTED


@pytest.mark.parametrize("record_trace", [True, False])
def test_run_configuration_names_a_cell_outside_the_tape_alphabet(record_trace):
    m = scanner()
    for tape, culprit in [
        ({0: "0", 2: "x", 3: "1"}, "x"),
        ({0: "0", 100: "x"}, "x"),  # far past the reach of fuel 5
        # several: the leftmost cell's, whatever the order they were stored in
        ({3: "z", 0: "0", 100: "y", -100: "w", 1: "1"}, "w"),
    ]:
        config = Configuration("q_scan", dict(tape), 0)
        with pytest.raises(InvalidInputError) as raised:
            run_configuration(m, config, COUNT_ALL, 5, record_trace)
        assert str(raised.value) == f"symbol {culprit!r} not in tape alphabet"
        assert (config.state, config.tape, config.head) == ("q_scan", tape, 0)


@pytest.mark.parametrize("head, verdict, heads", [
    (0, Verdict.REJECTED, [0, 1]),  # reads '0', then the blank at 1
    (10 ** 12, Verdict.ACCEPTED, [10 ** 12, 10 ** 12 + 1]),  # reads '0', then '1'
])
def test_run_configuration_lays_out_only_the_cells_near_the_head(head, verdict, heads):
    # cells 10^12 apart: a run of fuel 5 reads only those within 5 of its head
    tape = {0: "0", 10 ** 12: "0", 10 ** 12 + 1: "1"}
    config = Configuration("q_scan", dict(tape), head)
    start = time.process_time()
    result = run_configuration(scanner(), config, COUNT_ALL, 5, record_trace=True)
    assert time.process_time() - start < 0.5
    assert result.verdict is verdict and [r.head for r in result.trace] == heads
    assert config.tape == tape and config.head == heads[-1] + 1


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
    "run traced": lambda fuel: run(scanner(), "000", COUNT_ALL, fuel=fuel,
                                   record_trace=True),
    "run untraced": lambda fuel: run(scanner(), "000", COUNT_ALL, fuel=fuel,
                                     record_trace=False),
    "run_configuration traced": lambda fuel: run_configuration(
        scanner(), initial_configuration(scanner(), "000"), COUNT_ALL, fuel,
        record_trace=True),
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


def test_runs_record_no_trace_by_default():
    assert run(scanner(), "0000", COUNT_ALL, fuel=100).trace is None
    config = initial_configuration(scanner(), "0000")
    assert run_configuration(scanner(), config, COUNT_ALL, 100).trace is None
    assert run(scanner(), "0000", COUNT_ALL, fuel=100, record_trace=True).trace


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
    a = run(scanner(), "0010", COUNT_ALL, fuel=50, record_trace=True)
    b = run(scanner(), "0010", COUNT_ALL, fuel=50, record_trace=True)
    assert a == b
    assert a.trace == b.trace


@pytest.mark.parametrize("word", ["", "0", "1", "0010", "0000"])
def test_fuel_monotonicity(word):
    small = run(scanner(), word, COUNT_ALL, fuel=len(word) + 1, record_trace=True)
    for extra in (0, 1, 10, 1000):
        again = run(scanner(), word, COUNT_ALL, fuel=len(word) + 1 + extra, record_trace=True)
        assert again == small


def test_trace_consistency():
    result = run(trie(3), "011", COUNT_ALL, fuel=100, record_trace=True)
    assert len(result.trace) == result.total_steps
    assert sum(r.counted for r in result.trace) == result.counted_steps


@pytest.mark.parametrize("word", ["", "0", "111", "010101"])
def test_tape_locality(word):
    result = run(scanner(), word, COUNT_ALL, fuel=100)
    s = result.total_steps
    cells = result.final.tape.keys()
    assert all(-s <= i <= len(word) + s for i in cells)


def test_step_records_are_slotted_values():
    result = run(trie(3), "011", COUNT_ALL, fuel=100, record_trace=True)
    record = result.trace[0]
    assert not hasattr(record, "__dict__")
    fields = [getattr(record, f.name) for f in dataclasses.fields(StepRecord)]
    built = StepRecord(*fields)
    assert record == built and hash(record) == hash(built) and repr(record) == repr(built)
    assert [f.name for f in dataclasses.fields(StepRecord)] == [
        "state", "head", "read", "write", "move", "target", "counted"]
    moved = dataclasses.replace(record, head=record.head + 1)
    assert moved != record and dataclasses.replace(moved, head=record.head) == record
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and hash(twin) == hash(record)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.head = 0
    assert pickle.loads(pickle.dumps(result)) == result
