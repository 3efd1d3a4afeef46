"""Transition-cost models: which transition-table entries count toward the
length of a computation.

A cost model is a property of the transition table alone. It never looks at
tape contents, head position, or step index, so the counted set can be
computed once per (machine, model) pair and applied to any run.

A CostModel is its fields: COUNT_ALL is CostModel() and FREE_BLIND is
CostModel(free_blind=True).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # machine imports this module to compile cost models
    from tmbench.machine import Machine

# predicate arguments: (source state, read symbol, write symbol, move, target state)
TransitionPredicate = Callable[[str, str, str, str, str], bool]


@dataclass(frozen=True)
class CostModel:
    """The entries of a state in free_states, of a blind state when
    free_blind is set, and, with a predicate, of a transition it refuses,
    are free; every other entry counts."""

    free_states: frozenset[str] = frozenset()
    free_blind: bool = False
    predicate: Optional[TransitionPredicate] = None

    def __post_init__(self):
        # any iterable of names but a string, whose letters would be names;
        # frozen so that the model can key a cache
        if isinstance(self.free_states, str):
            raise TypeError("free_states must be a collection of state names, not a string")
        object.__setattr__(self, "free_states", frozenset(self.free_states))


COUNT_ALL = CostModel()
FREE_BLIND = CostModel(free_blind=True)


def is_blind_state(m: Machine, q: str) -> bool:
    """True iff q only moves the head: a single target state and direction,
    and every symbol is written back unchanged, for all of the tape alphabet."""
    if q not in m.states:
        raise ValueError(f"unknown state {q!r}")
    if m.is_halting(q):
        raise ValueError(f"state {q!r} is halting, blindness is undefined")
    target_dir: Optional[tuple[str, str]] = None
    for sym in m.tape_alphabet:
        target, write, move = m.transitions[(q, sym)]
        if write != sym:
            return False
        if target_dir is None:
            target_dir = (target, move)
        elif (target, move) != target_dir:
            return False
    return True


def counted_set(m: Machine, cost: CostModel) -> frozenset[tuple[str, str]]:
    """The (state, symbol) table entries this model counts."""
    unknown = cost.free_states - m.states
    if unknown:
        raise ValueError(f"free-states names unknown states: {sorted(unknown)}")
    free = cost.free_states
    if cost.free_blind:
        non_halting = m.states - {m.accept_state, m.reject_state}
        free = free | {q for q in non_halting if is_blind_state(m, q)}
    keep = cost.predicate
    return frozenset((q, sym) for (q, sym), (target, write, move) in m.transitions.items()
                     if q not in free and (keep is None or keep(q, sym, write, move, target)))


def parse_cost_model(text: str) -> CostModel:
    """Parse the command-line syntax: count-all | free-blind | free-states:q1,q2,..."""
    if text == "count-all":
        return COUNT_ALL
    if text == "free-blind":
        return FREE_BLIND
    if text.startswith("free-states:"):
        names = [s for s in text[len("free-states:"):].split(",") if s]
        if not names:
            raise ValueError("free-states: requires at least one state name")
        return CostModel(free_states=names)
    raise ValueError(f"unknown cost model {text!r}")
