import pytest

from tmbench import (
    BLANK,
    COUNT_ALL,
    FREE_BLIND,
    CostModel,
    BUILTIN_LANGUAGES,
    Machine,
    RIGHT,
    build_demo_machines,
    build_trie_machine,
    counted_set,
    is_blind_state,
    parse_cost_model,
    run,
)


def scanner():
    return build_demo_machines()[0]


def machine_with_blind_state():
    """q_skip moves right regardless of the symbol, then behaves as the scanner."""
    trans = {
        ("q_skip", "0"): ("q_scan", "0", RIGHT),
        ("q_skip", "1"): ("q_scan", "1", RIGHT),
        ("q_skip", BLANK): ("q_scan", BLANK, RIGHT),
        ("q_scan", "0"): ("q_scan", "0", RIGHT),
        ("q_scan", "1"): ("q_accept", "1", RIGHT),
        ("q_scan", BLANK): ("q_reject", BLANK, RIGHT),
    }
    return Machine(
        input_alphabet=frozenset({"0", "1"}),
        tape_alphabet=frozenset({"0", "1", BLANK}),
        states=frozenset({"q_skip", "q_scan", "q_accept", "q_reject"}),
        start_state="q_skip",
        accept_state="q_accept",
        reject_state="q_reject",
        transitions=trans,
    )


def test_blind_state_positive():
    assert is_blind_state(machine_with_blind_state(), "q_skip")


def test_scanner_state_not_blind():
    # target depends on the scanned symbol
    assert not is_blind_state(scanner(), "q_scan")


def test_fixed_writer_not_blind():
    trans = {
        ("q_w", "0"): ("q_accept", "0", RIGHT),
        ("q_w", "1"): ("q_accept", "0", RIGHT),  # overwrites the read symbol
        ("q_w", BLANK): ("q_accept", "0", RIGHT),
    }
    m = Machine(frozenset({"0", "1"}), frozenset({"0", "1", BLANK}),
                frozenset({"q_w", "q_accept", "q_reject"}),
                "q_w", "q_accept", "q_reject", trans)
    assert not is_blind_state(m, "q_w")


def test_blind_state_domain_errors():
    m = scanner()
    with pytest.raises(ValueError):
        is_blind_state(m, "q_missing")
    with pytest.raises(ValueError):
        is_blind_state(m, m.accept_state)


def test_counted_set_count_all():
    m = scanner()
    assert counted_set(m, COUNT_ALL) == frozenset(m.transitions.keys())


def test_counted_set_free_blind_scanner():
    # no blind states, so nothing is free
    m = scanner()
    assert counted_set(m, FREE_BLIND) == frozenset(m.transitions.keys())


def test_counted_set_free_blind_excludes_blind_entries():
    m = machine_with_blind_state()
    keys = counted_set(m, FREE_BLIND)
    assert all(state != "q_skip" for state, _ in keys)
    assert any(state == "q_scan" for state, _ in keys)


def test_counted_set_free_states():
    report = build_trie_machine(BUILTIN_LANGUAGES["contains-1"], 2)
    m = report.machine
    prefix_states = {q for q in m.states if q not in (m.accept_state, m.reject_state)}
    inner = prefix_states - {m.start_state}
    keys = counted_set(m, CostModel(free_states=inner))
    assert keys == frozenset(k for k in m.transitions if k[0] == m.start_state)


def test_counted_set_free_states_unknown():
    with pytest.raises(ValueError):
        counted_set(scanner(), CostModel(free_states={"nope"}))
    with pytest.raises(ValueError):
        counted_set(scanner(), CostModel(free_states=frozenset({"nope"}), free_blind=True))


def test_free_states_refuses_a_bare_string():
    # "q_scan" would otherwise name the states q, _, s, c, a and n
    with pytest.raises(TypeError):
        CostModel(free_states="q_scan")
    assert CostModel(free_states=frozenset("ab")).free_states == {"a", "b"}


def test_cost_model_is_its_fields():
    assert CostModel() == COUNT_ALL
    assert CostModel(free_blind=True) == FREE_BLIND
    assert CostModel(free_states=["a", "b"]) == CostModel(free_states=frozenset("ab"))
    assert run(scanner(), "01", CostModel(free_states={"q_scan"})).counted_steps == 0
    assert parse_cost_model("count-all") == CostModel()
    assert parse_cost_model("free-blind") == CostModel(free_blind=True)
    assert parse_cost_model("free-states:a,b,a") == CostModel(free_states=frozenset("ab"))


def test_count_all_compiles_without_a_counted_set(monkeypatch):
    import tmbench.machine as machine_module
    from tmbench.machine import _compile

    def fail(*_):
        raise AssertionError("counted_set called")

    monkeypatch.setattr(machine_module, "counted_set", fail)
    compiled = _compile(scanner(), COUNT_ALL)
    assert compiled.counted_keys is None
    with pytest.raises(AssertionError):
        _compile(scanner(), FREE_BLIND)


def test_custom_predicate():
    m = scanner()
    cost = CostModel(predicate=lambda q, read, write, move, target: read == "0")
    assert counted_set(m, cost) == frozenset({("q_scan", "0")})
    result = run(m, "0010", cost, fuel=100)
    assert result.counted_steps == 2  # two '0' reads before the '1'


def test_counted_length_trie():
    result = run(build_trie_machine(BUILTIN_LANGUAGES["contains-1"], 3).machine,
                 "010", COUNT_ALL, fuel=100)
    assert result.counted_steps == 4


def test_counted_length_empty_word():
    result = run(build_trie_machine(BUILTIN_LANGUAGES["contains-1"], 3).machine,
                 "", COUNT_ALL, fuel=100)
    assert result.counted_steps == 1


def test_scanner_free_blind_equals_total():
    result = run(scanner(), "0000", FREE_BLIND, fuel=100)
    assert result.counted_steps == result.total_steps == 5


@pytest.mark.parametrize("word", ["", "0", "0001", "110", "000000"])
def test_count_all_dominance(word):
    result = run(machine_with_blind_state(), word, COUNT_ALL, fuel=100)
    assert result.counted_steps == result.total_steps


@pytest.mark.parametrize("word", ["", "0", "0001", "110"])
def test_monotone_selection(word):
    m = machine_with_blind_state()
    small = run(m, word, FREE_BLIND, fuel=100)
    big = run(m, word, COUNT_ALL, fuel=100)
    assert counted_set(m, FREE_BLIND) <= counted_set(m, COUNT_ALL)
    assert small.counted_steps <= big.counted_steps


def test_unreachable_blind_state_changes_nothing():
    m = scanner()
    trans = dict(m.transitions)
    for sym in ("0", "1", BLANK):
        trans[("q_idle", sym)] = ("q_idle", sym, RIGHT)
    extended = Machine(m.input_alphabet, m.tape_alphabet,
                       m.states | {"q_idle"}, m.start_state,
                       m.accept_state, m.reject_state, trans)
    for word in ("", "0", "0010", "0000"):
        assert (run(extended, word, FREE_BLIND, fuel=100).counted_steps
                == run(m, word, FREE_BLIND, fuel=100).counted_steps)


def test_parse_cost_model():
    assert parse_cost_model("count-all") == COUNT_ALL
    assert parse_cost_model("free-blind") == FREE_BLIND
    model = parse_cost_model("free-states:q_a,q_b")
    assert model.free_states == frozenset({"q_a", "q_b"})
    with pytest.raises(ValueError):
        parse_cost_model("free-states:")
    with pytest.raises(ValueError):
        parse_cost_model("half-price")
