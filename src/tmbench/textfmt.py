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
from collections import namedtuple
from itertools import chain

from tmbench.machine import BLANK, LEFT, RIGHT, Machine, require_valid


class MachineParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


HEADER_KEYS = ("states", "start", "accept", "reject", "input_alphabet", "tape_alphabet")
COMMENT = re.compile(r"(?<!\\)#")
# characters per block of the parser's line walk
_BLOCK = 1 << 16


def strip_comment(line: str) -> str:
    """line without its comment: a '#' that no backslash precedes starts
    one, and each '\\#' before it stands for '#'."""
    return COMMENT.split(line, 1)[0].replace("\\#", "#")


def _pieces(text: str):
    """text in pieces, each cut right after the last '\\n' at or before
    _BLOCK characters past its start (or, for a longer line, after that
    line): every line break lies within one piece, so the pieces' lines are
    text.splitlines()."""
    start, end = 0, len(text)
    while end - start > _BLOCK:
        cut = (text.rfind("\n", start, start + _BLOCK) + 1
               or text.find("\n", start + _BLOCK) + 1 or end)
        yield text[start:cut]
        start = cut
    yield text[start:]


def lines(text: str):
    """text's lines without their comments, lazily: the lines of
    str.splitlines, split a block at a time (see _pieces), and only a block
    that holds a '#' has its lines' comments stripped. Machine files and
    word files share this syntax."""
    return chain.from_iterable(map(strip_comment, piece.splitlines()) if "#" in piece
                               else piece.splitlines() for piece in _pieces(text))


def parse_machine_file(text: str) -> Machine:
    """Parse the text format into a validated Machine, marked valid so that
    running it does not validate it again.

    The lines are split a block at a time (see lines), so the text's whole
    line list is never held. A line whose first token is 'trans:', the bulk
    of a large file, goes straight to the trans checks; any other spelling
    of the key is split at its ':' first. Each header is checked on its own
    line, so the first error in file order is the one reported.

    The parsed machine holds one name object per state: the state and the
    target of each trans line after the 'states:' line, and the start,
    accept and reject names, are looked up among that line's tokens and
    replaced by the token's own string. A trans line before the 'states:'
    line shares nothing and keeps its own strings (emitted files put the
    headers first).
    """
    headers: dict[str, list[str]] = {}
    transitions: dict[tuple[str, str], tuple[str, str, str]] = {}
    names: dict[str, str] = {}  # each 'states:' token to itself
    name = names.get
    for line_no, line in enumerate(lines(text), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] != "trans:":
            key, sep, rest = line.partition(":")
            key = key.strip()
            if not sep:
                raw = text.splitlines()[line_no - 1].strip()
                raise MachineParseError(line_no, f"expected '<key>: ...', got {raw!r}")
            if key != "trans":
                if key not in HEADER_KEYS:
                    raise MachineParseError(line_no, f"unknown key {key!r}")
                if key in headers:
                    raise MachineParseError(line_no, f"duplicate {key!r} line")
                headers[key] = tokens = rest.split()
                if key == "states":
                    names.update(zip(tokens, tokens))
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
        if move != RIGHT and move != LEFT:
            raise MachineParseError(line_no, f"move must be L or R, got {move!r}")
        # each line's action is a new tuple, so an earlier one is never it
        action = (name(target, target), write, move)
        if transitions.setdefault((name(src, src), read), action) is not action:
            raise MachineParseError(line_no, f"duplicate transition for ({src}, {read})")

    for required in HEADER_KEYS:
        if required not in headers:
            raise MachineParseError(0, f"missing {required!r}")

    machine = Machine(
        input_alphabet=frozenset(headers["input_alphabet"]),
        tape_alphabet=frozenset(headers["tape_alphabet"]),
        states=frozenset(names.values()),  # the objects that name() hands out
        start_state=name(headers["start"][0], headers["start"][0]),
        accept_state=name(headers["accept"][0], headers["accept"][0]),
        reject_state=name(headers["reject"][0], headers["reject"][0]),
        transitions=transitions,
    )
    try:
        require_valid(machine)
    except ValueError as exc:
        raise MachineParseError(0, str(exc)) from None
    return machine


# A machine as its file lists it, every part in the order written: the
# states, the named states, the alphabets, and the transitions as
# ((state, read), (target, write, move)) rows.
Listing = namedtuple("Listing", ["states", "start_state", "accept_state", "reject_state",
                                 "input_alphabet", "tape_alphabet", "rows"])


def emit_machine(m: Machine | Listing) -> str:
    """Render in the text format; output is canonical (sorted) so emitting the
    same machine twice is byte-identical. A Listing is written in its own
    order, so a caller whose listing comes in sorted order skips the sort
    and the dict. Each '#' in a symbol or a state name is written '\\#',
    so it parses back rather than starting a comment."""
    if isinstance(m, Machine):
        m = Listing(sorted(m.states), m.start_state, m.accept_state, m.reject_state,
                    *map(sorted, (m.input_alphabet, m.tape_alphabet, m.transitions.items())))
    states, start, accept, reject, inputs, tape, rows = m
    lines = [f"{key}: {value}\n" for key, value in zip(HEADER_KEYS, (
        " ".join(states), start, accept, reject, " ".join(inputs), " ".join(tape)))]
    lines += [f"trans: {src} {read} -> {target} {write} {move}\n"
              for (src, read), (target, write, move) in rows]
    return "".join(lines).replace("#", "\\#")
