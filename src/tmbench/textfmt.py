"""Line-oriented machine file format.

    # comment
    states: q_scan q_accept q_reject
    start: q_scan
    accept: q_accept
    reject: q_reject
    input_alphabet: 0 1
    tape_alphabet: 0 1 _
    trans: q_scan 0 -> q_scan 0 R

Symbols are single characters; '_' is the blank and must appear in the tape
alphabet but not the input alphabet. One trans line per (state, symbol) pair.
A '#' starts a comment unless a backslash precedes it: '\\#' stands for a '#'
in a symbol or a state name, so the symbol '#' is written '\\#'.
"""

from __future__ import annotations

import re

from tmbench.machine import BLANK, LEFT, RIGHT, Machine, require_valid


class MachineParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


HEADER_KEYS = ("states", "start", "accept", "reject", "input_alphabet", "tape_alphabet")
COMMENT = re.compile(r"(?<!\\)#")


def strip_comment(line: str) -> str:
    """line without its comment: a '#' that no backslash precedes starts
    one, and each '\\#' before it stands for '#'."""
    return COMMENT.split(line, 1)[0].replace("\\#", "#")


def parse_machine_file(text: str) -> Machine:
    """Parse the text format into a validated Machine, marked valid so that
    running it does not validate it again.

    A line whose first token is 'trans:', the bulk of a large file, goes
    straight to the trans checks; any other spelling of the key is split at
    its ':' first. Each header is checked on its own line, so the first
    error in file order is the one reported.
    """
    headers: dict[str, list[str]] = {}
    transitions: dict[tuple[str, str], tuple[str, str, str]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw) if "#" in raw else raw
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] != "trans:":
            key, sep, rest = line.partition(":")
            key = key.strip()
            if not sep:
                raise MachineParseError(line_no, f"expected '<key>: ...', got {raw.strip()!r}")
            if key != "trans":
                if key not in HEADER_KEYS:
                    raise MachineParseError(line_no, f"unknown key {key!r}")
                if key in headers:
                    raise MachineParseError(line_no, f"duplicate {key!r} line")
                headers[key] = tokens = rest.split()
                if key in ("start", "accept", "reject") and len(tokens) != 1:
                    raise MachineParseError(line_no, f"{key!r} takes exactly one state")
                if key.endswith("_alphabet"):
                    for sym in tokens:
                        if len(sym) != 1:
                            raise MachineParseError(
                                line_no, f"symbol {sym!r} is not a single character")
                    if key == "tape_alphabet" and BLANK not in tokens:
                        raise MachineParseError(line_no, "tape alphabet must include '_'")
                    if key == "input_alphabet" and BLANK in tokens:
                        raise MachineParseError(line_no, "input alphabet must not include '_'")
                continue
            tokens = ["trans:", *rest.split()]
        if len(tokens) != 7 or tokens[3] != "->":
            raise MachineParseError(
                line_no, "expected 'trans: <state> <sym> -> <state> <sym> <L|R>'")
        _, src, read, _, target, write, move = tokens
        if len(read) != 1 or len(write) != 1:
            raise MachineParseError(line_no, "symbols must be single characters")
        if move not in (LEFT, RIGHT):
            raise MachineParseError(line_no, f"move must be L or R, got {move!r}")
        if (src, read) in transitions:
            raise MachineParseError(line_no, f"duplicate transition for ({src}, {read})")
        transitions[(src, read)] = (target, write, move)

    for required in HEADER_KEYS:
        if required not in headers:
            raise MachineParseError(0, f"missing {required!r}")

    machine = Machine(
        input_alphabet=frozenset(headers["input_alphabet"]),
        tape_alphabet=frozenset(headers["tape_alphabet"]),
        states=frozenset(headers["states"]),
        start_state=headers["start"][0],
        accept_state=headers["accept"][0],
        reject_state=headers["reject"][0],
        transitions=transitions,
    )
    try:
        require_valid(machine)
    except ValueError as exc:
        raise MachineParseError(0, str(exc)) from None
    return machine


def emit_machine(m: Machine) -> str:
    """Render in the text format; output is canonical (sorted) so emitting the
    same machine twice is byte-identical. Each '#' in a symbol or a state
    name is written '\\#', so it parses back rather than starting a comment."""
    lines = [
        "states: " + " ".join(sorted(m.states)),
        "start: " + m.start_state,
        "accept: " + m.accept_state,
        "reject: " + m.reject_state,
        "input_alphabet: " + " ".join(sorted(m.input_alphabet)),
        "tape_alphabet: " + " ".join(sorted(m.tape_alphabet)),
    ]
    for (src, read), (target, write, move) in sorted(m.transitions.items()):
        lines.append(f"trans: {src} {read} -> {target} {write} {move}")
    return "\n".join(lines).replace("#", "\\#") + "\n"
