"""The dict stepper: the reference every differential test checks the
compiled step loop against. It applies one transition at a time to a
Configuration whose tape is a dict of its non-blank cells, as the
definition of a run reads, with no table, sweep or packed tape. The
library's own single step is `tmbench.machine.run_configuration` with
fuel 1, which the package does not export.

It needs only the standard library and tmbench, so that a tool outside
the test suite can check against it too (tools/small_machines.py). The
Hypothesis strategies the differential tests draw from are in
strategies.py."""

import dataclasses
from typing import Optional

from tmbench import BLANK, RIGHT, Configuration, Machine, StepRecord, Verdict


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
