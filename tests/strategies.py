"""The Hypothesis strategies the differential tests draw from: random
valid machines, machines whose entries mostly loop on their own state,
cost models for a machine, and fuels."""

from hypothesis import strategies as st

from tmbench import BLANK, COUNT_ALL, FREE_BLIND, LEFT, RIGHT, CostModel, Machine


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
        return CostModel(free_states=draw(st.sets(st.sampled_from(sorted(m.states)))))
    return CostModel(predicate=lambda q, s, w, move, t: move == LEFT or w != s)


fuels = st.one_of(st.integers(1, 12), st.integers(200, 3000))


@st.composite
def looping_machines(draw):
    """Random valid machines whose entries mostly loop on their own state,
    so that runs take sweeps in both directions, with and without writes."""
    others = draw(st.sampled_from(["01", "01a"]))
    live = [f"q{i}" for i in range(draw(st.integers(1, 4)))]
    states = live + ["acc", "rej"]
    tape = others + BLANK
    transitions = {}
    for q in live:
        for s in tape:
            target = q if draw(st.integers(0, 3)) else draw(st.sampled_from(states))
            write = s if draw(st.booleans()) else draw(st.sampled_from(tape))
            transitions[(q, s)] = (target, write, draw(st.sampled_from([LEFT, RIGHT])))
    return Machine(frozenset(others), frozenset(tape), frozenset(states), live[0],
                   "acc", "rej", transitions)
