"""The dict stepper: the reference every differential test checks the
compiled step loop against. It applies one transition at a time to a
Configuration whose tape is a dict of its non-blank cells, as the
definition of a run reads, with no table, sweep or packed tape. The
library's own single step is `run_configuration` with fuel 1."""

from typing import Optional

from tmbench import BLANK, RIGHT, Configuration, Machine, StepRecord


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
