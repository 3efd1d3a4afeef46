"""Input machines the benchmark builds through tmbench's public Machine type.

Tables are written out here, not taken from tmbench, so that the library
receives them only as inputs.
"""

from __future__ import annotations

BLANK = "_"


def _machine(tm, table: dict, start: str, accept: str, reject: str,
             input_alphabet: str, tape_alphabet: str):
    states = {q for q, _ in table} | {t for t, _, _ in table.values()} | {accept, reject}
    return tm.Machine(
        input_alphabet=frozenset(input_alphabet),
        tape_alphabet=frozenset(tape_alphabet),
        states=frozenset(states),
        start_state=start,
        accept_state=accept,
        reject_state=reject,
        transitions=dict(table),
    )


# Busy-beaver champions in the usual 'A0 -> 1RB' notation, 0 being the blank.
# H is the halting state; Z is an unreachable reject state tmbench requires.
CHAMPIONS = {
    "bb2": "A0 1RB A1 1LB B0 1LA B1 1RH",
    "bb3": "A0 1RB A1 1RH B0 1LB B1 0RC C0 1LC C1 1LA",
    "bb4": "A0 1RB A1 1LB B0 1LA B1 0LC C0 1RH C1 1LD D0 1RD D1 0RA",
    # Marxen & Buntrock's 5-state champion: halts after 47,176,870 steps
    "bb5": "A0 1RB A1 1LC B0 1RC B1 1RB C0 1RD C1 0LE D0 1LA D1 1LD E0 1RH E1 0LA",
}


def champion(tm, name: str):
    items = CHAMPIONS[name].split()
    sym = {"0": BLANK, "1": "1"}
    table = {}
    for key, action in zip(items[::2], items[1::2]):
        table[(key[0], sym[key[1]])] = (action[2], sym[action[0]], action[1])
    return _machine(tm, table, "A", "H", "Z", "1", "1" + BLANK)


def bouncer(tm, left_mark: str, right_mark: str):
    """Sweeps right to the blank past the word and writes right_mark, then
    left to the blank before it and writes left_mark, forever: the tape grows
    at both ends. The turn states TL and TR are blind (one unconditional
    move), so free-blind does not count them; R and L are the sweeps."""
    table = {}
    for s in "01" + BLANK:
        table[("TL", s)] = ("L", s, "L")
        table[("TR", s)] = ("R", s, "R")
    for s in "01":
        table[("R", s)] = ("R", s, "R")
        table[("L", s)] = ("L", s, "L")
    table[("R", BLANK)] = ("TL", right_mark, "L")
    table[("L", BLANK)] = ("TR", left_mark, "R")
    return _machine(tm, table, "R", "H", "Z", "01", "01" + BLANK)


def inline_checker(tm):
    """Checker for inline delivery (x#y on the tape): scans right over x, the
    separator and y, accepting on the first '1' and rejecting at the blank."""
    table = {
        ("S", "0"): ("S", "0", "R"),
        ("S", "#"): ("S", "#", "R"),
        ("S", "1"): ("Y", "1", "R"),
        ("S", BLANK): ("N", BLANK, "R"),
    }
    machine = _machine(tm, table, "S", "Y", "N", "01", "01#" + BLANK)
    return tm.CheckingRelation(checker=machine, delivery="inline")
