"""Differential tests: the compiled step loop and the compiled certificate
deliveries against the dict stepper `step()` and `deliver()`, plus the
per-(machine, cost model) compile cache."""

import dataclasses
import time

import pytest
from hypothesis import given, settings, strategies as st

from tmbench import (
    BLANK,
    COUNT_ALL,
    FREE_BLIND,
    LEFT,
    LanguageOracle,
    RIGHT,
    CertificateBudgetError,
    CheckingRelation,
    Configuration,
    CostModel,
    Machine,
    MachineParseError,
    MeasureFunction,
    Verdict,
    build_trie_machine,
    counted_set,
    decide_nc,
    decide_nt,
    emit_machine,
    initial_configuration,
    parse_machine_file,
    run,
    run_configuration,
    step,
)
from tmbench.machine import _compile
from tmbench.nondet import _exceeds_budget, certificates_up_to, deliver

def reference(m, config, keys, fuel):
    """The dict stepper from config: (verdict, total, counted, trace, final)."""
    trace = []
    while len(trace) < fuel:
        applied = step(m, config)
        if applied is None:
            break
        record = applied[1]
        trace.append(dataclasses.replace(record, counted=(record.state, record.read) in keys))
    if config.state == m.accept_state:
        verdict = Verdict.ACCEPTED
    elif config.state == m.reject_state:
        verdict = Verdict.REJECTED
    else:
        verdict = Verdict.FUEL_EXHAUSTED
    return verdict, len(trace), sum(r.counted for r in trace), tuple(trace), config


@st.composite
def machines(draw, symbols=st.sampled_from(["0", "01", "01a", "01#"])):
    """Random valid machines: 2-6 working states, 2-4 tape symbols with the blank."""
    others = draw(symbols)
    live = [f"q{i}" for i in range(draw(st.integers(2, 6)))]
    states = live + ["acc", "rej"]
    tape = others + BLANK
    inputs = draw(st.sets(st.sampled_from(others.replace("#", "")), min_size=1))
    transitions = {
        (q, s): (draw(st.sampled_from(states)), draw(st.sampled_from(tape)),
                 draw(st.sampled_from([LEFT, RIGHT])))
        for q in live for s in tape
    }
    return Machine(frozenset(inputs), frozenset(tape), frozenset(states), live[0],
                   "acc", "rej", transitions)


@st.composite
def cost_models(draw, m):
    kind = draw(st.sampled_from(["all", "blind", "states", "custom"]))
    if kind == "all":
        return COUNT_ALL
    if kind == "blind":
        return FREE_BLIND
    if kind == "states":
        return CostModel.free_states_model(draw(st.sets(st.sampled_from(sorted(m.states)))))
    return CostModel.custom(lambda q, s, w, move, t: move == LEFT or w != s)


fuels = st.one_of(st.integers(1, 12), st.integers(200, 3000))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_run_matches_dict_stepper(data):
    m = data.draw(machines())
    cost = data.draw(cost_models(m))
    word = data.draw(st.text(alphabet=sorted(m.input_alphabet), max_size=12))
    fuel = data.draw(fuels)
    record_trace = data.draw(st.booleans())
    verdict, total, counted, trace, final = reference(
        m, initial_configuration(m, word), counted_set(m, cost), fuel)
    result = run(m, word, cost, fuel=fuel, record_trace=record_trace)
    assert (result.verdict, result.total_steps, result.counted_steps) == (
        verdict, total, counted)
    assert result.trace == (trace if record_trace else None)
    assert (result.final.state, result.final.head, result.final.tape) == (
        final.state, final.head, final.tape)


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
    result = run_configuration(m, config, keys, fuel)
    assert (result.verdict, result.total_steps, result.counted_steps, result.trace) == (
        verdict, total, counted, trace)
    assert result.final is config
    assert (config.state, config.head, config.tape) == (final.state, final.head, final.tape)


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
    keys = counted_set(checker, cost)
    tried = most = 0
    witness = None
    for y in certificates_up_to(rel.certificate_alphabet, max_len):
        tried += 1
        verdict, _, counted, _, _ = reference(checker, deliver(rel, x, y), keys, fuel)
        most = max(most, counted)
        if verdict is Verdict.ACCEPTED:
            witness = y
            break
    # a linear bound with a negligible slope admits exactly max_len
    g = MeasureFunction("linear", a=1e-6, b=max_len)
    report = decide_nc(rel, g, x, cost, fuel=fuel)
    assert (report.accepted, report.witness, report.certificates_tried,
            report.max_checker_counted_steps) == (witness is not None, witness, tried, most)


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
    cost = CostModel.free_states_model({"L"})
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


def test_tape_alphabet_wider_than_a_byte():
    """300 tape symbols do not fit a bytearray; the tape widens to array('L')."""
    symbols = [chr(0x100 + i) for i in range(300)]
    t = {("s", c): ("s", symbols[(i + 1) % 300], RIGHT) for i, c in enumerate(symbols)}
    t[("s", BLANK)] = ("b", symbols[-1], LEFT)
    for c in symbols:
        t[("b", c)] = ("b", c, LEFT)
    t[("b", BLANK)] = ("acc", BLANK, RIGHT)
    m = Machine(frozenset(symbols), frozenset(symbols + [BLANK]),
                frozenset({"s", "b", "acc", "rej"}), "s", "acc", "rej", t)
    word = "".join(symbols[::7])
    verdict, total, counted, trace, final = reference(
        m, initial_configuration(m, word), counted_set(m, COUNT_ALL), 1000)
    result = run(m, word, fuel=1000)
    assert (result.verdict, result.total_steps, result.trace) == (verdict, total, trace)
    assert result.final.tape == final.tape


# --- the compile cache ------------------------------------------------------

def scanner_with_blind_start():
    t = {("skip", s): ("scan", s, RIGHT) for s in "01" + BLANK}
    t.update({("scan", "0"): ("scan", "0", RIGHT), ("scan", "1"): ("acc", "1", RIGHT),
              ("scan", BLANK): ("rej", BLANK, RIGHT)})
    return Machine(frozenset("01"), frozenset("01" + BLANK),
                   frozenset({"skip", "scan", "acc", "rej"}), "skip", "acc", "rej", t)


def test_two_cost_models_count_independently():
    m = scanner_with_blind_start()
    first = run(m, "0001", COUNT_ALL)
    blind = run(m, "0001", FREE_BLIND)
    again = run(m, "0001", COUNT_ALL)
    assert (first.total_steps, first.counted_steps) == (4, 4)
    assert (blind.total_steps, blind.counted_steps) == (4, 3)
    assert again == first


def test_equal_cost_models_share_one_compiled_entry():
    m = scanner_with_blind_start()
    a = CostModel.free_states_model(["skip"])
    b = CostModel.free_states_model(["skip"])
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
    if "#" in m.tape_alphabet:
        # Known defect: the format has no escape for '#', so comment
        # stripping eats the symbol; this fails once the format can hold it.
        with pytest.raises(MachineParseError):
            parse_machine_file(text)
        return
    assert parse_machine_file(text) == m
    assert emit_machine(parse_machine_file(text)) == text


def test_a_run_fills_only_the_entries_it_uses():
    trie = build_trie_machine(LanguageOracle.builtin("palindrome"), 12).machine
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


# --- certificate budget in closed form ----------------------------------------

@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_budget_check_matches_the_sum(k):
    for max_len in range(12):
        total = sum(k ** length for length in range(max_len + 1))
        for budget in {1, total - 1, total, total + 1, 10 ** 6}:
            if budget >= 1:
                assert _exceeds_budget(k, max_len, budget) == (total > budget)


def test_linear_bound_on_long_input_exceeds_budget_at_once():
    rel = CheckingRelation(scanner_with_blind_start(), "positioned")
    linear = MeasureFunction("linear", a=1, b=0)
    start = time.process_time()
    with pytest.raises(CertificateBudgetError):
        decide_nc(rel, linear, "0" * 200_000)
    with pytest.raises(CertificateBudgetError):
        decide_nt(rel, linear, linear, "0" * 200_000)
    assert time.process_time() - start < 1.0
