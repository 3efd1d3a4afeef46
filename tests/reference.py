"""The dict stepper: the reference every differential test checks the
compiled step loop against. It applies one transition at a time to a
Configuration whose tape is a dict of its non-blank cells, as the
definition of a run reads, with no table, sweep or packed tape. The
library's own single step is `tmbench.machine.run_configuration` with
fuel 1, which the package does not export.

Next to it, the Hypothesis strategies of random valid machines, of cost
models and of fuels that the differential tests draw from."""

import dataclasses
from typing import Optional

from hypothesis import strategies as st

from tmbench import (
    BLANK,
    COUNT_ALL,
    FREE_BLIND,
    LEFT,
    RIGHT,
    Configuration,
    CostModel,
    Machine,
    StepRecord,
    Verdict,
)


def scanned(c: Configuration) -> str:
    """The symbol under c's head."""
    return c.tape.get(c.head, BLANK)


def step(m: Machine, c: Configuration) -> Optional[tuple[Configuration, StepRecord]]:
    """Apply one transition in place; returns None when c is already halted."""
    if m.is_halting(c.state):
        return None
    read = scanned(c)
    target, write, move = m.transitions[(c.state, read)]
    record = StepRecord(
        state=c.state, head=c.head, read=read, write=write, move=move,
        target=target, counted=True,
    )
    if write == BLANK:
        c.tape.pop(c.head, None)
    else:
        c.tape[c.head] = write
    c.head += 1 if move == RIGHT else -1
    c.state = target
    return c, record


def reference(m, config, keys, fuel):
    """The dict stepper from config: (verdict, total, counted, trace, final).
    A step is counted when its (state, read) entry is in keys, so
    m.transitions counts every step."""
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
