"""Differential tests: the compiled step loop and the compiled certificate
deliveries against the dict stepper `step()` (tests/reference.py) and
`deliver()`, the lean driver against `run()`, plus the per-(machine, cost
model) compile cache."""

import copy
import dataclasses
import math
import pickle
import sys
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from tmbench import (
    BLANK,
    COUNT_ALL,
    FREE_BLIND,
    LEFT,
    BUILTIN_LANGUAGES,
    RIGHT,
    CertificateBudgetError,
    CertificateSearchReport,
    CheckingRelation,
    InvalidInputError,
    Configuration,
    CostModel,
    Machine,
    MeasureFunction,
    Verdict,
    build_demo_machines,
    build_trie_machine,
    counted_set,
    decide_nc,
    decide_nt,
    emit_machine,
    parse_machine_file,
    run,
)
from tmbench.machine import (_compile, _CompiledMachine, all_words, initial_configuration,
                             run_configuration)
from tmbench.measures import IDENTITY
from tmbench.nondet import _max_length, deliver

from reference import cost_models, fuels, looping_machines, machines, reference, step


def check_against_reference(m, word, cost, fuel, record_trace=False):
    """run() from the start configuration agrees with the dict stepper."""
    verdict, total, counted, trace, final = reference(
        m, initial_configuration(m, word), counted_set(m, cost), fuel)
    result = run(m, word, cost, fuel=fuel, record_trace=record_trace)
    assert (result.verdict, result.total_steps, result.counted_steps) == (
        verdict, total, counted)
    assert result.trace == (trace if record_trace else None)
    assert (result.final.state, result.final.head, result.final.tape) == (
        final.state, final.head, final.tape)
    return result


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_run_matches_dict_stepper(data):
    m = data.draw(machines())
    cost = data.draw(cost_models(m))
    word = data.draw(st.text(alphabet=sorted(m.input_alphabet), max_size=12))
    fuel = data.draw(fuels)
    check_against_reference(m, word, cost, fuel, data.draw(st.booleans()))


def driver_outcome(m, word, cost, fuel):
    """The lean driver on word, as a batch of one start labelled with word:
    (word, verdict, total, counted)."""
    compiled = _compile(m, cost)
    (outcome,) = compiled.outcomes([(word, compiled.encode(word, compiled.inputs), 0)], fuel)
    return outcome


def check_driver_against_run(m, word, cost, fuel, driver_first=True):
    """The driver and run() agree on verdict, total and counted steps, in
    either order on the one compiled table."""
    if driver_first:
        outcome = driver_outcome(m, word, cost, fuel)
    result = run(m, word, cost, fuel=fuel, record_trace=False)
    if not driver_first:
        outcome = driver_outcome(m, word, cost, fuel)
    assert outcome == (word, result.verdict, result.total_steps, result.counted_steps)
    return outcome


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_driver_matches_run(data):
    m = data.draw(machines())
    cost = data.draw(cost_models(m))
    word = data.draw(st.text(alphabet=sorted(m.input_alphabet), max_size=12))
    check_driver_against_run(m, word, cost, data.draw(fuels), data.draw(st.booleans()))


def test_driver_matches_run_at_fuel_cut_offs_inside_sweeps():
    # 200 steps of the right sweep, a turn, 200 of the left sweep and a halt
    m = sweeper()
    word = "0110" * 25 + "0" * 100
    for fuel in (1, 31, 33, 150, 199, 200, 201, 202, 300, 399, 400, 401, 402, 500):
        _, verdict, total, _ = check_driver_against_run(m, word, COUNT_ALL, fuel, fuel % 2 == 0)
        assert total == min(fuel, 402)
        assert verdict is (Verdict.ACCEPTED if fuel >= 402 else Verdict.FUEL_EXHAUSTED)


def test_driver_matches_run_on_a_tape_that_grows_at_both_ends():
    cost = CostModel(free_states={"L"})
    for fuel in (7, 100, 5000):
        _, verdict, total, counted = check_driver_against_run(bouncer(), "0110", cost, fuel)
        assert (verdict, total) == (Verdict.FUEL_EXHAUSTED, fuel) and 0 < counted < fuel


@pytest.mark.parametrize("fuel", [100.0, math.inf, "5", 0, -3])
def test_driver_refuses_a_fuel_as_run_does(fuel):
    m = sweeper()
    with pytest.raises((TypeError, ValueError)) as from_run:
        run(m, "01", fuel=fuel)
    with pytest.raises(from_run.type) as from_driver:
        driver_outcome(m, "01", COUNT_ALL, fuel)
    assert from_driver.type is from_run.type
    assert str(from_driver.value) == str(from_run.value)
    assert from_run.type is (ValueError if isinstance(fuel, int) else TypeError)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_run_configuration_matches_dict_stepper(data):
    m = data.draw(machines())
    cost = data.draw(cost_models(m))
    keys = counted_set(m, cost)
    tape_symbols = sorted(m.tape_alphabet)
    cells = data.draw(st.dictionaries(st.integers(-6, 6), st.sampled_from(tape_symbols),
                                      max_size=6))
    tape = {i: s for i, s in cells.items() if s != BLANK}
    start = data.draw(st.sampled_from(sorted(m.states)))
    head = data.draw(st.integers(-8, 8))
    fuel = data.draw(fuels)
    config = Configuration(start, dict(tape), head)
    twin = Configuration(start, dict(tape), head)
    verdict, total, counted, trace, final = reference(m, twin, keys, fuel)
    result = run_configuration(m, config, cost, fuel, record_trace=True)
    assert (result.verdict, result.total_steps, result.counted_steps, result.trace) == (
        verdict, total, counted, trace)
    assert result.final is config
    assert (config.state, config.head, config.tape) == (final.state, final.head, final.tape)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_single_steps_of_run_configuration_match_the_dict_stepper(data):
    """run_configuration with fuel 1 is the library's single step: step by
    step, it moves a configuration as the dict stepper does and records the
    one StepRecord the stepper returns; on a halted configuration, where the
    stepper returns None, it takes no step."""
    m = data.draw(machines())
    tape_symbols = sorted(m.tape_alphabet)
    cells = data.draw(st.dictionaries(st.integers(-6, 6), st.sampled_from(tape_symbols),
                                      max_size=6))
    tape = {i: s for i, s in cells.items() if s != BLANK}
    start = data.draw(st.sampled_from(sorted(m.states)))
    head = data.draw(st.integers(-8, 8))
    config = Configuration(start, dict(tape), head)
    twin = Configuration(start, dict(tape), head)
    for _ in range(data.draw(st.integers(1, 40))):
        applied = step(m, twin)
        result = run_configuration(m, config, COUNT_ALL, fuel=1, record_trace=True)
        assert result.final is config
        assert (config.state, config.head, config.tape) == (twin.state, twin.head, twin.tape)
        if applied is None:
            assert (result.total_steps, result.counted_steps, result.trace) == (0, 0, ())
            assert result.verdict is (Verdict.ACCEPTED if twin.state == m.accept_state
                                      else Verdict.REJECTED)
            break
        assert (result.total_steps, result.counted_steps, result.trace) == (1, 1, (applied[1],))
        assert (result.verdict is Verdict.FUEL_EXHAUSTED) == (not m.is_halting(twin.state))


def reference_search(rel, x, max_len, cost, fuel):
    """The walk over every certificate up to max_len, each delivered by
    deliver() and run by the dict stepper: (accepted, witness, tried, most)."""
    keys = counted_set(rel.checker, cost)
    tried = most = 0
    for y in all_words("01", max_len):
        tried += 1
        verdict, _, counted, _, _ = reference(rel.checker, deliver(rel, x, y), keys, fuel)
        most = max(most, counted)
        if verdict is Verdict.ACCEPTED:
            return True, y, tried, most
    return False, None, tried, most


def search(rel, x, max_len, cost, fuel):
    """decide_nc's report over the certificates up to max_len."""
    # a linear bound with a negligible slope admits exactly max_len
    g = MeasureFunction("linear", a=1e-6, b=max_len)
    report = decide_nc(rel, g, x, cost, fuel=fuel)
    return (report.accepted, report.witness, report.certificates_tried,
            report.max_checker_counted_steps)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_certificate_deliveries_match_deliver(data):
    delivery = data.draw(st.sampled_from(["inline", "positioned"]))
    checker = data.draw(machines(st.just("01#" if delivery == "inline" else "01")))
    rel = CheckingRelation(checker, delivery)
    cost = data.draw(cost_models(checker))
    x = data.draw(st.text(alphabet=sorted(checker.input_alphabet), max_size=10))
    max_len = data.draw(st.integers(0, 4))
    fuel = data.draw(fuels)
    assert search(rel, x, max_len, cost, fuel) == reference_search(rel, x, max_len, cost, fuel)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_positioned_search_matches_every_certificate_on_long_inputs(data):
    # up to 255 certificates over up to 128 cells, most of them past x
    checker = data.draw(machines(st.just("01")))
    rel = CheckingRelation(checker, "positioned")
    cost = data.draw(cost_models(checker))
    x = data.draw(st.text(alphabet=sorted(checker.input_alphabet), min_size=11, max_size=40))
    max_len = data.draw(st.integers(5, 7))
    fuel = data.draw(st.one_of(st.integers(1, 12), st.integers(60, 400)))
    assert search(rel, x, max_len, cost, fuel) == reference_search(rel, x, max_len, cost, fuel)


def positioned(transitions):
    """A positioned checker over {0,1} with start state q."""
    states = {q for q, _ in transitions} | {"acc", "rej"}
    return CheckingRelation(Machine(frozenset("01"), frozenset("01" + BLANK), frozenset(states),
                                    "q", "acc", "rej", transitions), "positioned")


def accepts_on(symbol):
    return {("q", s): ("acc" if s == symbol else "rej", s, RIGHT) for s in "01" + BLANK}


# on '0' it seeks right to the blank past x and rejects; on '1' it accepts
SEEKER = {("q", "0"): ("s", "0", RIGHT), ("q", "1"): ("acc", "1", RIGHT),
          ("q", BLANK): ("rej", BLANK, RIGHT), ("s", "0"): ("s", "0", RIGHT),
          ("s", "1"): ("s", "1", RIGHT), ("s", BLANK): ("rej", BLANK, RIGHT)}


@pytest.mark.parametrize("transitions, x, report", [
    # the empty certificate names cell 0
    (accepts_on("1"), "1" + "0" * 39, (True, "", 1, 1)),
    # the first blank past x is cell 37, first named by its 6 binary digits
    # after the 2^6 - 1 shorter certificates and 37 of length 6
    (accepts_on(BLANK), "0" * 37, (True, "100101", 2 ** 6 + 37, 1)),
    # no witness: every one of the 2^8 - 1 certificates is tried
    (accepts_on("1"), "0" * 40, (False, None, 2 ** 8 - 1, 1)),
    # cell 0 seeks past all 40 cells; the witness at cell 20 takes one step
    (SEEKER, "0" * 20 + "1" + "0" * 19, (True, "10100", 2 ** 5 + 20, 41)),
])
def test_positioned_search_on_long_inputs(transitions, x, report):
    rel = positioned(transitions)
    assert search(rel, x, 7, COUNT_ALL, 100) == report
    assert reference_search(rel, x, 7, COUNT_ALL, 100) == report


# --- the positioned memo: a run's outcome is a function of its window --------

def record_runs(monkeypatch, most=math.inf):
    """The total steps of each run that reaches _CompiledMachine.execute
    from now on, in a list that fills as they end; a run past the most
    fails the test, so a search that runs far too often stops at once."""
    totals = []
    execute = _CompiledMachine.execute

    def recording(self, starts, *args):
        for result in execute(self, starts, *args):
            totals.append(result[2])
            assert len(totals) <= most, f"more than {most} runs"
            yield result
    monkeypatch.setattr(_CompiledMachine, "execute", recording)
    return totals


def pair_checker(first, second, move):
    """Accepts iff its cell holds first and the next cell in direction move
    holds second: every run reads its cell and one neighbour, radius 1."""
    tape = "01" + BLANK
    transitions = {("q", s): ("saw" + s, s, move) for s in tape}
    transitions.update({("saw" + s, r): ("acc" if (s, r) == (first, second) else "rej", r, move)
                        for s in tape for r in tape})
    return positioned(transitions)


@pytest.mark.parametrize("first, second, move", [
    ("0", "1", RIGHT), ("1", "1", RIGHT), ("0", BLANK, RIGHT), ("1", "0", RIGHT),
    ("0", "1", LEFT), ("1", BLANK, LEFT), ("1", "1", LEFT), ("0", "0", LEFT),
])
@pytest.mark.parametrize("x", [
    "0001101001" * 4, "1100" * 9, "0" * 30 + "1",
    "1" + "0" * 30,  # a run that ends at x's end, where windows are cut short
    "0" * 31,  # one run from cell 0 to the end
    "000111" * 6,  # runs exactly 2r + 1 = 3 long
])
def test_positioned_memo_keys_on_the_neighbours_a_run_reads(first, second, move, x):
    # equal cells with different neighbours must not share an outcome
    rel = pair_checker(first, second, move)
    assert search(rel, x, 7, COUNT_ALL, 100) == reference_search(rel, x, 7, COUNT_ALL, 100)


@st.composite
def runs_of_symbols(draw, alphabet):
    """A word of a few long runs of one symbol each."""
    runs = draw(st.lists(st.tuples(st.sampled_from(alphabet), st.integers(10, 30)),
                         min_size=1, max_size=4))
    return "".join(symbol * n for symbol, n in runs)


@st.composite
def full_byte_machines(draw, base=machines()):
    """A machine of base (`machines()` by default) widened to 255 tape
    symbols, the most a byte cell holds beside the sentinel: wide symbol j
    reads like tape symbol j modulo the base's tape alphabet size, and a
    drawn set of entries writes a wide symbol instead of their own."""
    m = draw(base)
    tape = sorted(m.tape_alphabet)
    wide = [chr(0x100 + j) for j in range(255 - len(tape))]
    transitions = dict(m.transitions)
    for q in {q for q, _ in m.transitions}:
        for j, symbol in enumerate(wide):
            transitions[(q, symbol)] = m.transitions[(q, tape[j % len(tape)])]
    for key in draw(st.sets(st.sampled_from(sorted(m.transitions)))):
        target, _, move = transitions[key]
        transitions[key] = (target, draw(st.sampled_from(wide)), move)
    return dataclasses.replace(m, tape_alphabet=m.tape_alphabet | set(wide),
                               transitions=transitions)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_positioned_search_with_a_tape_alphabet_of_255_symbols(data):
    checker = data.draw(full_byte_machines(machines(st.just("01"))))
    rel = CheckingRelation(checker, "positioned")
    assert _compile(checker, COUNT_ALL).edge == 255
    cost = data.draw(cost_models(checker))
    x = data.draw(runs_of_symbols(sorted(checker.input_alphabet)))
    max_len = data.draw(st.integers(5, 7))
    fuel = data.draw(st.one_of(st.integers(1, 12), st.integers(60, 400)))
    assert search(rel, x, max_len, cost, fuel) == reference_search(rel, x, max_len, cost, fuel)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_traced_runs_on_a_tape_alphabet_of_255_symbols(data):
    m = data.draw(full_byte_machines())
    cost = data.draw(cost_models(m))
    word = data.draw(st.text(alphabet=sorted(m.input_alphabet), max_size=12))
    check_traced(m, word, cost, data.draw(fuels))


@st.composite
def stepped_checkers(draw):
    """A positioned checker that takes a drawn number of steps, 1 to 4, per
    start symbol, those of '0' and '1' unequal, moving a drawn way; its last
    step accepts on a drawn set of (start, last read) symbol pairs, all of
    which start on a blank, so every search walks all of x."""
    tape = "01" + BLANK
    steps = dict(zip(tape, draw(st.lists(st.integers(1, 4), min_size=3, max_size=3,
                                         ).filter(lambda k: k[0] != k[1]))))
    pairs = draw(st.sets(st.tuples(st.just(BLANK), st.sampled_from(tape))))
    transitions = {}
    for s in tape:
        move = draw(st.sampled_from([LEFT, RIGHT]))
        state, reads = "q", s  # q reads s; every later state reads any symbol
        for j in range(1, steps[s]):
            transitions.update({(state, r): (f"{s}{j}", r, move) for r in reads})
            state, reads = f"{s}{j}", tape
        transitions.update({(state, r): ("acc" if (s, r) in pairs else "rej", r, move)
                            for r in reads})
    return positioned(transitions)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_positioned_memo_hits_and_changes_radius_on_runs_of_one_symbol(data):
    rel = data.draw(stepped_checkers())
    cost = data.draw(cost_models(rel.checker))
    x = "0" * 10 + "1" * 10 + data.draw(runs_of_symbols("01"))
    with pytest.MonkeyPatch.context() as monkeypatch:
        totals = record_runs(monkeypatch)
        report = search(rel, x, 8, cost, 100)
    assert report == reference_search(rel, x, 8, cost, 100)
    assert len(totals) < len(x)  # memo hits
    assert len(set(totals)) >= 2  # radius changes


def test_positioned_search_runs_each_distinct_window_once(monkeypatch):
    totals = record_runs(monkeypatch, 3)
    x = "0" * 4095 + "1"
    # a bound that admits 2^12 cells: the witness is the last of them
    assert search(positioned(accepts_on("1")), x, 12, COUNT_ALL, 100) == (
        True, "1" * 12, 2 ** 12 + 4095, 1)
    assert totals == [1, 1]  # cell 0 and the '1'
    # a run of 2^22 - 1 cells is taken in one step: a bound that admits
    # exactly length 22, whose last cell is the '1'
    totals.clear()
    g = MeasureFunction("linear", a=1e-6, b=17.9)
    start = time.process_time()
    report = decide_nc(positioned(accepts_on("1")), g, "0" * (2 ** 22 - 1) + "1",
                       budget=2 ** 23)
    assert time.process_time() - start < 0.5
    assert report == CertificateSearchReport(True, "1" * 22, 2 ** 23 - 1, 1)
    assert totals == [1, 1]


def test_positioned_search_ends_in_closed_form_past_x(monkeypatch):
    record_runs(monkeypatch, 3)
    g = MeasureFunction("linear", a=1e-6, b=40)
    start = time.process_time()
    report = decide_nc(positioned(accepts_on("1")), g, "0" * 40, budget=2 ** 41)
    assert time.process_time() - start < 1.0
    assert report == CertificateSearchReport(False, None, 2 ** 41 - 1, 1)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_run_configuration_shares_the_compiled_machine_of_run(data):
    m = data.draw(machines())
    cost = data.draw(cost_models(m))
    word = data.draw(st.text(alphabet=sorted(m.input_alphabet), max_size=12))
    fuel = data.draw(fuels)
    expected = run(m, word, cost, fuel=fuel, record_trace=False)
    for record_trace in (False, True):
        config = initial_configuration(m, word)
        result = run_configuration(m, config, cost, fuel, record_trace)
        assert (result.verdict, result.total_steps, result.counted_steps) == (
            expected.verdict, expected.total_steps, expected.counted_steps)
        assert (config.state, config.head, config.tape) == (
            expected.final.state, expected.final.head, expected.final.tape)
    assert list(m.__dict__["_compiled"]) == [cost]


# --- cost-model laws ---------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cost_model_laws(data):
    m = data.draw(machines())
    word = data.draw(st.text(alphabet=sorted(m.input_alphabet), max_size=12))
    fuel = data.draw(fuels)
    every = run(m, word, COUNT_ALL, fuel=fuel, record_trace=True)
    assert every.counted_steps == every.total_steps
    # freeing no state, or counting every transition, is counting all
    for same in (CostModel(free_states=()), CostModel(predicate=lambda *_: True)):
        assert counted_set(m, same) == counted_set(m, COUNT_ALL)
        assert run(m, word, same, fuel=fuel, record_trace=True) == every
    free = data.draw(st.sets(st.sampled_from(sorted(m.states))))
    result = run(m, word, CostModel(free_states=free), fuel=fuel, record_trace=True)
    taken_free = sum(record.state in free for record in result.trace)
    assert result.counted_steps + taken_free == result.total_steps == every.total_steps
    assert counted_set(m, FREE_BLIND) <= counted_set(m, COUNT_ALL)


# --- transformed certificate search --------------------------------------------

measure_functions = st.builds(
    MeasureFunction, st.sampled_from(["identity", "linear", "log", "power", "exp2"]),
    a=st.floats(0.05, 3), b=st.floats(0, 3), k=st.floats(0.2, 2.5))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_identity_transform_search_matches_plain_search(data):
    delivery = data.draw(st.sampled_from(["inline", "positioned"]))
    checker = data.draw(machines(st.just("01#" if delivery == "inline" else "01")))
    rel = CheckingRelation(checker, delivery)
    cost = data.draw(cost_models(checker))
    g = data.draw(measure_functions)
    x = data.draw(st.text(alphabet=sorted(checker.input_alphabet), max_size=8))

    def outcome(search, *transform):
        try:
            return search(rel, g, *transform, x, cost, fuel=200, budget=2 ** 10)
        except CertificateBudgetError:
            return CertificateBudgetError

    assert outcome(decide_nt, IDENTITY) == outcome(decide_nc)


@pytest.mark.parametrize("g", [MeasureFunction("exp2"), MeasureFunction("power", k=0.3),
                               MeasureFunction("power", a=2, k=1.5),
                               MeasureFunction("log", a=1, b=1)])
@pytest.mark.parametrize("n", [1000, 1100, 4096])
def test_identity_transform_search_matches_plain_search_on_long_inputs(g, n):
    """The two searches agree where the bound is past the budget, past the
    largest double (exp2 at 1100 and 4096), or admits a real search."""
    rel = build_demo_machines()[1]
    x = "0" * (n - 5) + "10000"

    def outcome(search, *transform):
        try:
            return search(rel, g, *transform, x, fuel=64)
        except CertificateBudgetError:
            return CertificateBudgetError

    assert outcome(decide_nt, IDENTITY) == outcome(decide_nc)


def test_infinite_bound_exceeds_the_budget():
    rel = build_demo_machines()[1]
    with pytest.raises(CertificateBudgetError):
        decide_nc(rel, MeasureFunction("exp2"), "0" * 1100)


def bouncer():
    """Sweeps right past the word's end, writes 'a', sweeps left past its
    start, writes 'a', and so on: the tape grows at both ends forever."""
    t = {}
    for s in "01":
        t[("R", s)] = ("R", s, RIGHT)
        t[("L", s)] = ("L", s, LEFT)
    t[("R", "a")] = ("R", "a", RIGHT)
    t[("L", "a")] = ("L", "a", LEFT)
    t[("R", BLANK)] = ("L", "a", LEFT)
    t[("L", BLANK)] = ("R", "a", RIGHT)
    return Machine(frozenset("01"), frozenset("01a" + BLANK), frozenset("RLYN"), "R", "Y",
                   "N", t)


def test_tape_grows_past_both_ends():
    m = bouncer()
    cost = CostModel(free_states={"L"})
    verdict, total, counted, trace, final = reference(
        m, initial_configuration(m, "0110"), counted_set(m, cost), 5000)
    # untraced first, then traced on the same compiled table: the trace
    # records are filled for entries the untraced run already filled
    for record_trace in (False, True):
        result = run(m, "0110", cost, fuel=5000, record_trace=record_trace)
        assert (result.verdict, result.total_steps, result.counted_steps) == (
            verdict, total, counted)
        assert result.trace == (trace if record_trace else None)
        assert (result.final.state, result.final.head, result.final.tape) == (
            final.state, final.head, final.tape)
    assert min(result.final.tape) < -30 and max(result.final.tape) > 30


def test_a_tape_alphabet_of_255_symbols_matches_the_dict_stepper():
    """255 tape symbols, the blank's included, fill a byte cell: the sentinel
    takes code 255. The first state rewrites each cell to the next symbol,
    and the second sweeps back over them."""
    symbols = [chr(0x100 + i) for i in range(254)]
    t = {("s", c): ("s", symbols[(i + 1) % 254], RIGHT) for i, c in enumerate(symbols)}
    t[("s", BLANK)] = ("b", symbols[-1], LEFT)
    for c in symbols:
        t[("b", c)] = ("b", c, LEFT)
    t[("b", BLANK)] = ("acc", BLANK, RIGHT)
    m = Machine(frozenset(symbols), frozenset(symbols + [BLANK]),
                frozenset({"s", "b", "acc", "rej"}), "s", "acc", "rej", t)
    assert _compile(m, COUNT_ALL).edge == 255
    word = "".join(symbols[::7]) * 3
    for fuel in (20, 105, 1000):
        check_against_reference(m, word, COUNT_ALL, fuel, record_trace=True)
        check_against_reference(m, word, COUNT_ALL, fuel)
    assert sweeps_of(m)


# --- sweeps: a self-loop over a run of cells as one macro-step --------------

def sweeps_of(m, cost=COUNT_ALL):
    """The sweeps of m's compiled table under cost whose entry still steps
    into their marker row, i.e. those not put back as plain entries."""
    compiled = _compile(m, cost)
    return [sweep for j, sweep in enumerate(compiled.sweeps)
            if compiled.table[sweep.entry][0] == compiled.marks + j]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sweeps_match_dict_stepper(data):
    m = data.draw(looping_machines())
    cost = data.draw(cost_models(m))
    # runs of one symbol up to 150 cells long cross several window sizes
    blocks = data.draw(st.lists(st.tuples(st.sampled_from(sorted(m.input_alphabet)),
                                          st.integers(1, 150)), max_size=5))
    word = "".join(symbol * length for symbol, length in blocks)
    fuel = data.draw(st.one_of(st.integers(1, 400), st.integers(400, 4000)))
    check_against_reference(m, word, cost, fuel, data.draw(st.booleans()))


def sweeper(extra=""):
    """Sweeps right over 0s and 1s, turning 0 into 1, to the blank past the
    word, then left over them back to the blank before it, and accepts.
    Each symbol of extra ends a sweep as the blank does: with none, each
    sweep's one stop code is the blank; with one, each sweep has two."""
    t = {("r", "0"): ("r", "1", RIGHT), ("r", "1"): ("r", "1", RIGHT),
         ("r", BLANK): ("l", BLANK, LEFT),
         ("l", "0"): ("l", "0", LEFT), ("l", "1"): ("l", "1", LEFT),
         ("l", BLANK): ("acc", BLANK, RIGHT)}
    for s in extra:
        t[("r", s)] = ("l", s, LEFT)
        t[("l", s)] = ("acc", s, RIGHT)
    return Machine(frozenset("01" + extra), frozenset("01" + extra + BLANK),
                   frozenset({"r", "l", "acc", "rej"}), "r", "acc", "rej", t)


def test_fuel_runs_out_inside_a_sweep_in_both_directions():
    m = sweeper()
    word = "0110" * 25 + "0" * 100
    right_sweep_ends, left_sweep_ends = len(word), 2 * len(word) + 1
    fuels = [1, 2, 31, 32, 33, 100, 199, right_sweep_ends, right_sweep_ends + 1,
             right_sweep_ends + 2, 300, 350, left_sweep_ends - 1, left_sweep_ends,
             left_sweep_ends + 1, left_sweep_ends + 2]
    for fuel in fuels:
        check_against_reference(m, word, COUNT_ALL, fuel)
    # one sweep a direction: the entries a sweep passes over are not filled
    assert len(sweeps_of(m)) == 2


@pytest.mark.parametrize("record_trace", [False, True])
@pytest.mark.parametrize("extra, scans", [("", ["find", "find"]), ("x", ["mask", "mask"])])
def test_both_scans_end_runs_as_the_dict_stepper_does(extra, scans, record_trace):
    """The sweeper's sweeps find their runs' ends with find, and with one
    more stop code, x, with the mask, whose windows on a fresh sweep span
    32, 64 and 128 cells. Fuel ends inside each of the first three windows
    in each direction; full runs take the left sweep to the sentinel and
    grow the tape, and stop the right sweep at an x inside the third
    window."""
    word = "0110" * 75
    n = len(word)
    inside = (20, 60, 150)  # cells into the first, second and third window
    fuels = [*inside, *(n + 2 + f for f in inside), 2 * n + 1, 2 * n + 2, 5000]
    runs = {word: 2 * n + 2}
    if extra:
        runs[word[:100] + "x" + word[100:]] = 2 * 100 + 2
    for w, steps in runs.items():
        for fuel in fuels:
            m = sweeper(extra)  # fresh sweeps: their windows start at 32 cells
            result = check_against_reference(m, w, COUNT_ALL, fuel, record_trace)
        assert (result.verdict, result.total_steps) == (Verdict.ACCEPTED, steps)
        assert min(result.final.tape) == 0
        assert [sweep.scan for sweep in _compile(m, COUNT_ALL).sweeps] == scans


@pytest.mark.parametrize("stops, kind", [("", "mask"), ("x", "find"), ("xy", "mask")])
def test_sweeps_reach_the_sentinel_at_both_ends_and_grow_the_tape(stops, kind):
    # right: writes 'a' over the blanks forever; left: walks over blanks
    # forever; the stop symbols, never on the tape, halt. On the empty word
    # the tape is one blank between sentinels, so the first sweep's first,
    # plain step lands on the sentinel.
    for move in (RIGHT, LEFT):
        t = {("q", s): ("q", "a" if move == RIGHT else s, move) for s in "0a" + BLANK}
        t.update({("q", s): ("acc", s, move) for s in stops})
        m = Machine(frozenset("0"), frozenset("0a" + stops + BLANK),
                    frozenset({"q", "acc", "rej"}), "q", "acc", "rej", t)
        for word, record_trace in (("000", False), ("", False), ("", True), ("000", True)):
            for fuel in (1, 2, 3, 4, 5, 17, 100, 1000, 5000):
                result = check_against_reference(m, word, COUNT_ALL, fuel, record_trace)
                assert result.final.head == (fuel if move == RIGHT else -fuel)
                assert result.final.state == "q"
        assert [sweep.scan for sweep in sweeps_of(m)] == [kind]


def test_a_sweep_makes_no_python_call():
    """The Python calls of an untraced run, counted with sys.settrace, do
    not grow with its sweeps: the step loop runs each sweep in place."""
    m = bouncer()
    run(m, "0110", fuel=20_000)  # fills every entry the runs below use
    compiled = _compile(m, COUNT_ALL)

    def calls_and_sweeps(fuel):
        calls = 0

        def on_call(frame, event, arg):
            nonlocal calls
            calls += 1

        before = sum(sweep.runs for sweep in compiled.sweeps)
        previous = sys.gettrace()
        sys.settrace(on_call)
        try:
            run(m, "0110", fuel=fuel)
        finally:
            sys.settrace(previous)
        return calls, sum(sweep.runs for sweep in compiled.sweeps) - before

    (few, short), (many, long) = calls_and_sweeps(300), calls_and_sweeps(20_000)
    assert short < 30 and long > 150
    assert few == many


def test_sweep_writes_changed_symbols():
    # flips every bit on the way right, then turns and flips them back
    t = {("r", "0"): ("r", "1", RIGHT), ("r", "1"): ("r", "0", RIGHT),
         ("r", BLANK): ("l", BLANK, LEFT),
         ("l", "0"): ("l", "1", LEFT), ("l", "1"): ("l", "0", LEFT),
         ("l", BLANK): ("r", BLANK, RIGHT)}
    m = Machine(frozenset("01"), frozenset("01" + BLANK), frozenset({"r", "l", "acc", "rej"}),
                "r", "acc", "rej", t)
    word = "0010111" * 30
    for fuel in (len(word), len(word) + 1, 3 * len(word), 5000):
        result = check_against_reference(m, word, COUNT_ALL, fuel)
    assert result.final.tape != {}
    assert all(sweep.writes is not None for sweep in sweeps_of(m))


def test_custom_predicate_counts_some_symbols_of_a_run():
    m = sweeper()
    ones = CostModel(predicate=lambda q, s, w, move, t: s == "1")
    word = "0110100" * 40
    for fuel in (1, 50, 137, len(word), 600, 5000):
        result = check_against_reference(m, word, ones, fuel)
    assert 0 < result.counted_steps < result.total_steps
    assert all(sweep.counted is not None for sweep in sweeps_of(m, ones))


@pytest.mark.parametrize("first_traced", [False, True])
def test_traced_and_untraced_runs_share_one_compiled_object(first_traced):
    m = sweeper()
    cost = CostModel(predicate=lambda q, s, w, move, t: move == LEFT)
    word = "01" * 60
    for record_trace in (first_traced, not first_traced, first_traced):
        for fuel in (90, 5000):
            check_against_reference(m, word, cost, fuel, record_trace)
    assert sweeps_of(m, cost)


def test_ping_pong_entries_go_back_to_plain_steps():
    """One-cell runs cost more as sweeps than as steps: after a trial the
    entries hold their plain tuples again, and the run stays exact."""
    t = {("q", "0"): ("q", "0", RIGHT), ("q", "1"): ("q", "1", LEFT),
         ("q", BLANK): ("acc", BLANK, RIGHT)}
    m = Machine(frozenset("01"), frozenset("01" + BLANK), frozenset({"q", "acc", "rej"}),
                "q", "acc", "rej", t)
    check_against_reference(m, "01", COUNT_ALL, 1001)
    compiled = _compile(m, COUNT_ALL)
    entries = [compiled.table[compiled.row["q"] + compiled.code[s]] for s in "01"]
    # a marker entry is a tuple too: a put-back entry targets q's own row
    assert all(type(entry) is tuple and entry[0] == compiled.row["q"] for entry in entries)
    assert len(compiled.sweeps) == 2 and not sweeps_of(m)
    check_against_reference(m, "01", COUNT_ALL, 999)


def test_long_sweeps_keep_their_sweep():
    scanner = build_demo_machines()[0]
    check_against_reference(scanner, "0" * 5000, COUNT_ALL, 5002)
    for n in range(1, 20):
        run(scanner, "0" * n + "1", fuel=100, record_trace=False)
    (sweep,) = sweeps_of(scanner)
    assert sweep.runs == 20


# a sweep's first cell is a plain step into its marker row, and the next
# lookup raises the halt's IndexError: these runs end or turn right there

@pytest.mark.parametrize("record_trace", [False, True])
def test_fuel_that_ends_on_a_sweeps_first_step_names_the_sweeping_state(record_trace):
    m = sweeper()
    word = "0110" * 25 + "0" * 100
    # the right sweep's first step, then the left sweep's: the turn at the
    # blank past the word takes one step
    for fuel, state in ((1, "r"), (len(word) + 2, "l")):
        for _ in range(2):  # on a fresh table, then on the filled one
            result = check_against_reference(m, word, COUNT_ALL, fuel, record_trace)
            assert (result.verdict, result.total_steps) == (Verdict.FUEL_EXHAUSTED, fuel)
            assert result.final.state == state
        _, verdict, total, _ = check_driver_against_run(m, word, COUNT_ALL, fuel)
        assert (verdict, total) == (Verdict.FUEL_EXHAUSTED, fuel)


@pytest.mark.parametrize("record_trace", [False, True])
def test_run_configuration_takes_one_step_from_a_sweeping_state(record_trace):
    m = sweeper()
    tape = {-2: "1", -1: "0", 0: "1", 1: "0", 2: "0"}
    for _ in range(2):  # on a fresh table, then on the filled one
        for state in ("r", "l"):
            config, twin = Configuration(state, dict(tape), 0), Configuration(state, dict(tape), 0)
            verdict, total, counted, trace, final = reference(m, twin, m.transitions, 1)
            result = run_configuration(m, config, COUNT_ALL, 1, record_trace)
            assert (result.verdict, result.total_steps, result.counted_steps) == (
                verdict, total, counted) == (Verdict.FUEL_EXHAUSTED, 1, 1)
            assert result.trace == (trace if record_trace else None)
            assert (config.state, config.head, config.tape) == (
                final.state, final.head, final.tape)
            assert config.state == state


def zigzag():
    """One state sweeping both ways: q sweeps right over 0s, turning them
    into 1s, and left over 1s, turning them into 0s; at a blank it turns
    right through p. Each round on 0^n 1^k reaches one cell further."""
    t = {("q", "0"): ("q", "1", RIGHT), ("q", "1"): ("q", "0", LEFT),
         ("q", BLANK): ("p", BLANK, RIGHT)}
    t.update({("p", s): ("q", s, RIGHT) for s in "01" + BLANK})
    return Machine(frozenset("01"), frozenset("01" + BLANK), frozenset({"q", "p", "acc", "rej"}),
                   "q", "acc", "rej", t)


@pytest.mark.parametrize("record_trace", [False, True])
def test_one_state_sweeps_both_ways(record_trace):
    m = zigzag()
    word = "0" * 30 + "1" * 10
    for fuel in [*range(1, 130), 500, 2000]:
        check_against_reference(m, word, COUNT_ALL, fuel, record_trace)
    row = _compile(m, COUNT_ALL).row["q"]
    assert sorted(sweep.d for sweep in sweeps_of(m) if sweep.row == row) == [-1, 1]
    assert all(sweep.runs > 16 for sweep in sweeps_of(m))


# --- traced runs: (entry, head) pairs, records built after the loop -----------

def shares_equal_records(trace):
    """Equal records of the trace are one object, and unequal ones are
    never merged into one."""
    return len({id(r) for r in trace}) == len(set(trace))


def check_traced(m, word, cost, fuel):
    """A traced run agrees with the dict stepper and shares its equal
    records."""
    result = check_against_reference(m, word, cost, fuel, record_trace=True)
    assert shares_equal_records(result.trace)
    return result


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_traced_runs_fill_entries_and_exhaust_their_fuel_mid_trace(data):
    """The first runs of a fresh machine are traced: each unfilled entry is
    filled where the trace first reaches it, and a fuel of 1 to 40 mostly
    runs out inside the trace. A looping machine's traced runs take sweeps
    left and right, with writes and counted subsets, from their first run
    on, and their fuel runs out inside a sweep too."""
    m = data.draw(st.one_of(machines(), looping_machines()))
    cost = data.draw(cost_models(m))
    for _ in range(data.draw(st.integers(1, 3))):
        word = data.draw(st.text(alphabet=sorted(m.input_alphabet), max_size=12))
        check_traced(m, word, cost, data.draw(st.one_of(st.integers(1, 40), fuels)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_traced_runs_after_untraced_runs_put_sweeps(data):
    m = data.draw(looping_machines())
    cost = data.draw(cost_models(m))
    alphabet = sorted(m.input_alphabet)
    warm = data.draw(st.text(alphabet=alphabet, min_size=1, max_size=60))
    run(m, warm, cost, fuel=400, record_trace=False)
    assume(sweeps_of(m, cost))
    word = data.draw(st.one_of(st.just(warm), st.text(alphabet=alphabet, max_size=60)))
    fuel = data.draw(st.one_of(st.integers(1, 40), st.just(400)))
    check_traced(m, word, cost, fuel)
    # and an untraced run after the traced one still agrees
    check_against_reference(m, word, cost, fuel)


def test_a_fresh_scanners_first_run_is_traced_through_one_sweep():
    """The traced run takes the whole run of 0s in one sweep, whose keys
    give back every step the dict stepper takes."""
    scanner = build_demo_machines()[0]
    result = check_traced(scanner, "0" * 5000, COUNT_ALL, 5002)
    assert len(result.trace) == result.total_steps == 5001
    (sweep,) = sweeps_of(scanner)
    assert sweep.runs == 1


# --- traced runs share one record per distinct (entry, head) key ---------------

def bb5():
    """Marxen & Buntrock's 5-state busy beaver champion, blank for 0."""
    items = "A0 1RB A1 1LC B0 1RC B1 1RB C0 1RD C1 0LE D0 1LA D1 1LD E0 1RH E1 0LA".split()
    symbol = {"0": BLANK, "1": "1"}
    t = {(key[0], symbol[key[1]]): (action[2], symbol[action[0]], action[1])
         for key, action in zip(items[::2], items[1::2])}
    return Machine(frozenset("1"), frozenset("1" + BLANK), frozenset("ABCDEHZ"), "A", "H",
                   "Z", t)


def test_bb5_trace_shares_its_records_and_leaves_no_memo():
    import tmbench.machine as machine_module

    m = bb5()
    # the memo of records lives for one call: traced runs add no attribute
    # to the compiled object or the module
    compiled = _compile(m, COUNT_ALL)
    attributes, module = set(vars(compiled)), set(vars(machine_module))
    trace = check_traced(m, "", COUNT_ALL, 100_000).trace
    assert len(trace) == 100_000 and len({id(r) for r in trace}) == 2_254
    for fuel in (100_000, 5_000):
        assert run(m, "", fuel=fuel, record_trace=True).trace == trace[:fuel]
    assert set(vars(compiled)) == attributes and set(vars(machine_module)) == module


def test_traced_run_whose_tape_grows_left_mid_trace():
    """A fresh bouncer's first run is traced: its head goes left of cell 0,
    the tape grows left several times, and the heads there are negative."""
    result = check_traced(bouncer(), "0110", CostModel(free_states={"L"}), 3000)
    heads = [r.head for r in result.trace]
    assert heads[0] == 0 and min(heads) < -30 and max(heads) > 30


def test_traced_run_from_a_configuration_left_of_cell_zero():
    m = bouncer()
    cost = CostModel(free_states={"L"})
    tape = {-7: "a", -4: "1", -1: "0", 2: "1"}
    config, twin = Configuration("L", dict(tape), -1), Configuration("L", dict(tape), -1)
    verdict, total, counted, trace, final = reference(m, twin, counted_set(m, cost), 2000)
    result = run_configuration(m, config, cost, 2000, record_trace=True)
    assert (result.verdict, result.total_steps, result.counted_steps, result.trace) == (
        verdict, total, counted, trace)
    assert (config.state, config.head, config.tape) == (final.state, final.head, final.tape)
    assert min(r.head for r in trace) < -7 and shares_equal_records(result.trace)


def test_pickle_and_copies_keep_a_shared_trace():
    result = run(bouncer(), "0110", fuel=3000, record_trace=True)
    objects = len({id(r) for r in result.trace})
    assert objects < len(result.trace)
    for twin in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result), copy.copy(result)):
        assert twin == result and twin.final.tape == result.final.tape
        assert len({id(r) for r in twin.trace}) == objects
        assert shares_equal_records(twin.trace)


# --- encoding words onto a tape -------------------------------------------------

def encoding(compiled, word):
    return [compiled.code[ch] for ch in word]


# printable Latin-1 but the blank: 187 symbols, so codes from 128 on too
WIDE_LATIN = [c for c in map(chr, range(0x21, 0x100)) if c.isprintable() and c != BLANK]


@pytest.mark.parametrize("symbols", ["01", "0é", "01αβ", [chr(0x100 + i) for i in range(254)],
                                     WIDE_LATIN])
def test_encode_matches_the_symbol_numbers(symbols):
    m = Machine(frozenset(symbols), frozenset([*symbols, BLANK]),
                frozenset({"q", "acc", "rej"}), "q", "acc", "rej",
                {("q", s): ("acc", s, RIGHT) for s in [*symbols, BLANK]})
    compiled = _compile(m, COUNT_ALL)
    word = "".join(symbols) * 3
    assert list(compiled.encode(word, m.input_alphabet)) == encoding(compiled, word)
    assert list(compiled.encode("", m.input_alphabet)) == []
    tape_word = BLANK + word + BLANK
    assert list(compiled.encode(tape_word, m.tape_alphabet)) == encoding(compiled, tape_word)
    for bad, culprit in [(word + BLANK, BLANK), ("x" + word, "x"), (word + "\x00", "\x00"),
                         (word + "ÿ", "ÿ"), (word + "Ω" + "x", "Ω"), (chr(0x1F600), chr(0x1F600))]:
        for alphabet, what in [(m.input_alphabet, "input"), (m.tape_alphabet, "tape")]:
            if culprit in alphabet:
                continue
            with pytest.raises(InvalidInputError) as raised:
                compiled.encode(bad, alphabet)
            assert str(raised.value) == f"symbol {culprit!r} not in {what} alphabet"


# --- the compile cache ------------------------------------------------------

def scanner_with_blind_start():
    t = {("skip", s): ("scan", s, RIGHT) for s in "01" + BLANK}
    t.update({("scan", "0"): ("scan", "0", RIGHT), ("scan", "1"): ("acc", "1", RIGHT),
              ("scan", BLANK): ("rej", BLANK, RIGHT)})
    return Machine(frozenset("01"), frozenset("01" + BLANK),
                   frozenset({"skip", "scan", "acc", "rej"}), "skip", "acc", "rej", t)


def test_two_cost_models_count_independently():
    m = scanner_with_blind_start()
    first = run(m, "0001", COUNT_ALL, record_trace=True)
    blind = run(m, "0001", FREE_BLIND, record_trace=True)
    again = run(m, "0001", COUNT_ALL, record_trace=True)
    assert (first.total_steps, first.counted_steps) == (4, 4)
    assert (blind.total_steps, blind.counted_steps) == (4, 3)
    assert again == first


def test_equal_cost_models_share_one_compiled_entry():
    m = scanner_with_blind_start()
    a = CostModel(free_states=["skip"])
    b = CostModel(free_states=["skip"])
    assert a == b and a is not b
    assert _compile(m, a) is _compile(m, b)
    run(m, "01", b)
    assert len(m.__dict__["_compiled"]) == 1
    run(m, "01", COUNT_ALL)
    assert len(m.__dict__["_compiled"]) == 2


def test_running_leaves_equality_repr_and_file_unchanged():
    m = scanner_with_blind_start()
    fresh = scanner_with_blind_start()
    before_repr, before_text = repr(m), emit_machine(m)
    run(m, "01", COUNT_ALL)
    run(m, "01", FREE_BLIND)
    assert m == fresh
    assert repr(m) == before_repr
    assert emit_machine(m) == before_text
    assert parse_machine_file(emit_machine(m)) == m


@settings(max_examples=200, deadline=None)
@given(machines())
def test_file_round_trip_of_random_machines(m):
    text = emit_machine(m)
    assert parse_machine_file(text) == m
    assert emit_machine(parse_machine_file(text)) == text


def test_a_run_fills_only_the_entries_it_uses():
    trie = build_trie_machine(BUILTIN_LANGUAGES["palindrome"], 12).machine
    assert run(trie, "0110", fuel=100, record_trace=False).verdict is Verdict.ACCEPTED
    table = _compile(trie, COUNT_ALL).table
    assert sum(entry is not None for entry in table) == 5
    assert len(table) > 20_000


def test_parsed_machine_is_not_validated_again(monkeypatch):
    import tmbench.machine as machine_module

    m = parse_machine_file(emit_machine(scanner_with_blind_start()))

    def fail(_):
        raise AssertionError("validated twice")

    monkeypatch.setattr(machine_module, "validate_machine", fail)
    assert run(m, "01").verdict is Verdict.ACCEPTED


# --- certificate budget as a running count -----------------------------------

@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_budget_check_matches_the_sum(k):
    # slope 1/2 and offset k on a word of length 2*max_len admit the
    # lengths 0..max_len + k
    half = MeasureFunction("linear", a=0.5, b=k)
    for max_len in range(12):
        total = sum(2 ** length for length in range(max_len + k + 1))
        x = "0" * (2 * max_len)
        for budget in {1, total - 1, total, total + 1, 10 ** 6}:
            if budget < 1:
                continue
            if total > budget:
                with pytest.raises(CertificateBudgetError):
                    _max_length(half, IDENTITY, x, budget)
            else:
                assert _max_length(half, IDENTITY, x, budget) == max_len + k


def test_linear_bound_on_long_input_exceeds_budget_at_once():
    rel = CheckingRelation(scanner_with_blind_start(), "positioned")
    linear = MeasureFunction("linear", a=1, b=0)
    start = time.process_time()
    with pytest.raises(CertificateBudgetError):
        decide_nc(rel, linear, "0" * 200_000)
    with pytest.raises(CertificateBudgetError):
        decide_nt(rel, linear, linear, "0" * 200_000)
    assert time.process_time() - start < 1.0


# --- _fill: the entries a run fills lazily ----------------------------------

def filled_one_by_one(m, cost):
    """m's compiled table under cost, as the runs use it, with every entry
    filled by _fill, as the runs fill them lazily; an entry filled already
    keeps its sweep or the plain entry a sweep was put back as."""
    compiled = _compile(m, cost)
    for row in range(0, len(compiled.table), compiled.width):
        for symbol in range(compiled.edge):
            compiled._fill(row + symbol)
    return compiled


def test_fill_counts_free_entries_as_free():
    m = scanner_with_blind_start()
    compiled = filled_one_by_one(m, FREE_BLIND)
    counted = counted_set(m, FREE_BLIND)
    flags = set()
    for key in m.transitions:
        entry = compiled.table[compiled.row[key[0]] + compiled.code[key[1]]]
        flag = entry[3]  # a marker entry holds the counted flag as a plain one does
        assert flag == (key in counted)
        flags.add(flag)
    assert flags == {0, 1}
    assert run(m, "0001", FREE_BLIND).counted_steps == 3


def test_fill_builds_sweeps_for_self_loops_and_keeps_a_put_back_one():
    m = sweeper()
    filled_one_by_one(m, COUNT_ALL)
    assert len(sweeps_of(m)) == 4  # r and l over 0 and 1
    # a ping-pong self-loop goes back to its plain entry, and _fill keeps it
    t = {("q", "0"): ("q", "0", RIGHT), ("q", "1"): ("q", "1", LEFT),
         ("q", BLANK): ("acc", BLANK, RIGHT)}
    ping = Machine(frozenset("01"), frozenset("01" + BLANK), frozenset({"q", "acc", "rej"}),
                   "q", "acc", "rej", t)
    check_against_reference(ping, "01", COUNT_ALL, 1001)
    compiled = filled_one_by_one(ping, COUNT_ALL)
    entries = [compiled.table[compiled.row["q"] + compiled.code[s]] for s in "01"]
    assert all(type(entry) is tuple and entry[0] == compiled.row["q"] for entry in entries)
    check_against_reference(ping, "01", COUNT_ALL, 999)


# --- the batch driver: many starts through one lazy loop ---------------------

def reference_from(m, cost, word, head, fuel):
    """The dict stepper from the start state on word's cells, head on cell
    head: (verdict, total, counted)."""
    config = Configuration(m.start_state, dict(enumerate(word)), head)
    return reference(m, config, counted_set(m, cost), fuel)[:3]


def check_batch(m, cost, starts, fuel):
    """One batch over the (word, head) starts, each labelled with its
    index, agrees, start by start, with the dict stepper and with launch;
    returns the batch's outcomes."""
    compiled = _compile(m, cost)
    encoded = [(i, compiled.encode(word, m.input_alphabet), head)
               for i, (word, head) in enumerate(starts)]
    outcomes = list(compiled.outcomes(encoded, fuel))
    assert len(outcomes) == len(starts)
    for i, ((word, head), (_, cells, _), outcome) in enumerate(zip(starts, encoded, outcomes)):
        assert outcome == (i,) + reference_from(m, cost, word, head, fuel)
        result = compiled.launch(cells, head, fuel)
        assert outcome == (i, result.verdict, result.total_steps, result.counted_steps)
    return outcomes


def test_a_batch_matches_its_starts_run_one_by_one():
    long = "0110" * 25 + "0" * 100  # 402 steps from cell 0
    # halts, fuel cut-offs inside the right and the left sweep, and heads
    # on, inside and past the cells
    starts = [(long, 0), ("", 0), ("01", 0), (long, 150), ("0110", 9), (long, 250),
              ("1", 40), (long, 0)]
    for fuel in (150, 300, 500):
        verdicts = [v for _, v, _, _ in check_batch(sweeper(), COUNT_ALL, starts, fuel)]
        assert Verdict.ACCEPTED in verdicts
        assert (Verdict.FUEL_EXHAUSTED in verdicts) == (fuel < 402)
    # a bouncer never halts, and its tape grows at both ends
    cost = CostModel(free_states={"L"})
    starts = [("0110", 0), ("", 0), ("01", 7), ("0110", 2)]
    outcomes = check_batch(bouncer(), cost, starts, 3000)
    assert all(v is Verdict.FUEL_EXHAUSTED and 0 < c < t == 3000 for _, v, t, c in outcomes)
    tape = run(bouncer(), "0110", cost, fuel=3000, record_trace=False).final.tape
    assert min(tape) < -30 and max(tape) > 30


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_batches_of_random_starts_match_the_dict_stepper(data):
    m = data.draw(st.one_of(machines(), looping_machines()))
    cost = data.draw(cost_models(m))
    words = st.text(alphabet=sorted(m.input_alphabet), max_size=30)
    starts = data.draw(st.lists(st.tuples(words, st.integers(0, 40)), min_size=1, max_size=6))
    check_batch(m, cost, starts, data.draw(st.one_of(st.integers(1, 60), fuels)))


def test_a_batch_hands_back_its_labels_in_start_order():
    # a fresh machine: its entries are filled as the batch's runs reach them
    m = sweeper()
    compiled = _compile(m, COUNT_ALL)
    unfilled = compiled.table.count(None)
    assert unfilled == len(compiled.table)
    long = "0110" * 25 + "0" * 100  # 402 steps from cell 0
    # halts, and fuel cut-offs inside the right and the left sweep; labels
    # of any kind, one of them twice
    starts = [("halt", "1", 0), ((1, 2), long, 0), (None, "", 5), ("cut", long, 100),
              (7, "01", 0), ("halt", "", 0)]
    outcomes = list(compiled.outcomes(
        [(label, compiled.encode(word, m.input_alphabet), head) for label, word, head in starts],
        150))
    assert compiled.table.count(None) < unfilled
    assert [label for label, *_ in outcomes] == [label for label, _, _ in starts]
    assert [outcome[1:] for outcome in outcomes] == [
        reference_from(m, COUNT_ALL, word, head, 150) for _, word, head in starts]
    assert [v for _, v, _, _ in outcomes] == [
        Verdict.ACCEPTED, Verdict.FUEL_EXHAUSTED, Verdict.ACCEPTED, Verdict.FUEL_EXHAUSTED,
        Verdict.ACCEPTED, Verdict.ACCEPTED]


def test_on_words_reads_any_iterable_of_words_once_and_lazily():
    m = sweeper()
    compiled = _compile(m, COUNT_ALL)
    long = "0110" * 25 + "0" * 100
    words = ["01", long, "", "1", long]
    read = []

    def one_shot():
        for word in words:
            read.append(word)
            yield word

    outcomes = list(compiled.on_words(words, 300))
    assert list(compiled.on_words(one_shot(), 300)) == outcomes
    assert read == words
    assert outcomes == [(word,) + reference_from(m, COUNT_ALL, word, 0, 300) for word in words]
    # an early stop at the first run out of fuel reads no word past it
    read.clear()
    witness = next(word for word, v, _, _ in compiled.on_words(one_shot(), 300)
                   if v is Verdict.FUEL_EXHAUSTED)
    assert witness == long and read == ["01", long]


def test_a_bad_symbol_raises_mid_batch():
    m = sweeper()
    compiled = _compile(m, COUNT_ALL)
    results = compiled.on_words(["01", "0x1", "10"], 50)
    assert next(results) == ("01",) + reference_from(m, COUNT_ALL, "01", 0, 50)
    with pytest.raises(InvalidInputError, match="symbol 'x' not in input alphabet"):
        next(results)
    # the machine still runs after the batch that raised
    check_against_reference(m, "10", COUNT_ALL, 50)


def test_a_batch_stopped_early_leaves_the_machine_reusable():
    m = sweeper()
    compiled = _compile(m, COUNT_ALL)
    long = "0110" * 25 + "0" * 100
    read = []

    def starts():
        for word in ("01", long, long, "1"):
            read.append(word)
            yield word, compiled.encode(word, m.input_alphabet), 0

    # any() stops at the first accepting run and reads no start past it
    assert any(v is Verdict.ACCEPTED for _, v, _, _ in compiled.outcomes(starts(), 500))
    assert read == ["01"]
    # a batch left mid-way, inside a fuel cut-off's sweep, leaves no trace
    batch = compiled.outcomes(starts(), 300)
    next(batch)
    assert next(batch) == (long, Verdict.FUEL_EXHAUSTED, 300, 300)
    del batch
    for fuel in (300, 500):
        check_against_reference(m, long, COUNT_ALL, fuel)
        check_traced(m, long, COUNT_ALL, fuel)
    assert list(compiled.outcomes(starts(), 500)) == [
        (word,) + reference_from(m, COUNT_ALL, word, 0, 500) for word in ("01", long, long, "1")]


@pytest.mark.parametrize("fuel", [100.0, math.inf, "5", 0, -3])
def test_a_bad_fuel_raises_when_a_batch_is_called(fuel):
    compiled = _compile(sweeper(), COUNT_ALL)
    read = []

    def starts():
        read.append(True)
        yield "01", compiled.encode("01", compiled.inputs), 0

    with pytest.raises((TypeError, ValueError)) as raised:
        compiled.outcomes(starts(), fuel)
    assert raised.type is (ValueError if isinstance(fuel, int) else TypeError)
    with pytest.raises(raised.type):
        compiled.on_words(["01"], fuel)
    assert not read
