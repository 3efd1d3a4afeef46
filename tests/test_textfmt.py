from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tmbench import (
    BLANK,
    COUNT_ALL,
    RIGHT,
    BUILTIN_LANGUAGES,
    Machine,
    MachineParseError,
    build_demo_machines,
    build_trie_machine,
    emit_machine,
    parse_machine_file,
    run,
    textfmt,
    validate_machine,
)
from tmbench.machine import all_words

from strategies import machines

SCANNER_TEXT = """\
# scans right, accepts on the first '1'
states: q_scan q_accept q_reject
start: q_scan
accept: q_accept
reject: q_reject
input_alphabet: 0 1
tape_alphabet: 0 1 _
trans: q_scan 0 -> q_scan 0 R
trans: q_scan 1 -> q_accept 1 R
trans: q_scan _ -> q_reject _ R
"""


def test_parse_scanner():
    machine = parse_machine_file(SCANNER_TEXT)
    assert validate_machine(machine) == []
    assert machine == build_demo_machines()[0]


def test_round_trip_is_identity():
    scanner, rel = build_demo_machines()
    for machine in (scanner, rel.checker,
                    build_trie_machine(BUILTIN_LANGUAGES["div3"], 3).machine):
        assert parse_machine_file(emit_machine(machine)) == machine


HASH_TEXT = r"""# '\#' is the symbol '#'; a bare '#' starts a comment
states: q_seek q_accept q_reject  # three states
start: q_seek
accept: q_accept
reject: q_reject
input_alphabet: 0 1
tape_alphabet: 0 1 \# _  # '#' separates
trans: q_seek 0 -> q_seek 0 R
trans: q_seek 1 -> q_seek 1 R
trans: q_seek \# -> q_accept \# R  # found it
trans: q_seek _ -> q_reject _ R
"""


def test_escaped_hash_is_the_symbol():
    machine = parse_machine_file(HASH_TEXT)
    assert machine.tape_alphabet == frozenset("01#_")
    assert machine.transitions[("q_seek", "#")] == ("q_accept", "#", "R")
    text = emit_machine(machine)
    assert "tape_alphabet: \\# 0 1 _\n" in text
    assert "trans: q_seek \\# -> q_accept \\# R\n" in text
    assert parse_machine_file(text) == machine
    assert emit_machine(parse_machine_file(text)) == text
    # a state name may hold '#' too
    renamed = parse_machine_file(HASH_TEXT.replace("q_seek", "q\\#seek"))
    assert renamed.start_state == "q#seek"
    assert parse_machine_file(emit_machine(renamed)) == renamed


def test_emit_is_canonical():
    machine = build_demo_machines()[0]
    assert emit_machine(machine) == emit_machine(machine)


def test_round_trip_runs_identically():
    machine = build_trie_machine(BUILTIN_LANGUAGES["palindrome"], 3).machine
    reparsed = parse_machine_file(emit_machine(machine))
    for word in all_words("01", 4):
        assert (run(reparsed, word, COUNT_ALL, fuel=20, record_trace=True)
                == run(machine, word, COUNT_ALL, fuel=20, record_trace=True))


def test_duplicate_transition_rejected():
    text = SCANNER_TEXT + "trans: q_scan 0 -> q_reject 0 R\n"
    with pytest.raises(MachineParseError, match="duplicate transition"):
        parse_machine_file(text)


def test_missing_reject_rejected():
    text = "\n".join(l for l in SCANNER_TEXT.splitlines() if not l.startswith("reject:"))
    with pytest.raises(MachineParseError, match="missing 'reject'"):
        parse_machine_file(text)


def test_missing_blank_rejected():
    text = SCANNER_TEXT.replace("tape_alphabet: 0 1 _", "tape_alphabet: 0 1")
    with pytest.raises(MachineParseError, match="must include '_'"):
        parse_machine_file(text)


def test_multichar_symbol_rejected():
    text = SCANNER_TEXT.replace("input_alphabet: 0 1", "input_alphabet: 0 one")
    with pytest.raises(MachineParseError, match="single character"):
        parse_machine_file(text)


def test_unknown_state_in_transition_rejected():
    text = SCANNER_TEXT.replace("trans: q_scan 1 -> q_accept 1 R",
                                "trans: q_scan 1 -> q_gone 1 R")
    with pytest.raises(MachineParseError, match="unknown state"):
        parse_machine_file(text)


def test_bad_move_rejected():
    text = SCANNER_TEXT.replace("trans: q_scan 0 -> q_scan 0 R",
                                "trans: q_scan 0 -> q_scan 0 X")
    with pytest.raises(MachineParseError, match="move must be L or R"):
        parse_machine_file(text)


def test_parse_error_carries_line_number():
    text = SCANNER_TEXT + "trans: q_scan 0 -> q_reject 0 R\n"
    with pytest.raises(MachineParseError) as excinfo:
        parse_machine_file(text)
    assert excinfo.value.line_no == len(SCANNER_TEXT.splitlines()) + 1


SCANNER_LINE = "trans: q_scan 0 -> q_scan 0 R"


@pytest.mark.parametrize("line", [
    "trans:\tq_scan\t0\t->\tq_scan\t0\tR",
    "trans : q_scan 0 -> q_scan 0 R",
    "trans:q_scan 0 -> q_scan 0 R",
    "  trans:   q_scan 0 ->  q_scan 0 R  ",
    "trans: q_scan 0 -> q_scan 0 R  # loops on 0",
    "trans: q_scan 0 -> q_scan 0 R#",
])
def test_trans_line_spellings(line):
    machine = parse_machine_file(SCANNER_TEXT.replace(SCANNER_LINE, line))
    assert machine == build_demo_machines()[0]


@pytest.mark.parametrize("line, message", [
    ("trans: q_scan 0 -> q_scan 0 X", "line 8: move must be L or R, got 'X'"),
    ("trans: q_scan 0 => q_scan 0 R",
     "line 8: expected 'trans: <state> <sym> -> <state> <sym> <L|R>'"),
    ("trans: q_scan 00 -> q_scan 0 R", "line 8: symbols must be single characters"),
    ("trans: q_scan 0 -> q_scan 00 R", "line 8: symbols must be single characters"),
    ("trans: q_scan 0 -> q_scan 0 R R",
     "line 8: expected 'trans: <state> <sym> -> <state> <sym> <L|R>'"),
    ("trans: q_scan 0 -> q_scan 0 # R",
     "line 8: expected 'trans: <state> <sym> -> <state> <sym> <L|R>'"),
    ("trans q_scan 0 -> q_scan 0 R", "line 8: expected '<key>: ...', got "
                                     "'trans q_scan 0 -> q_scan 0 R'"),
    ("trams: q_scan 0 -> q_scan 0 R", "line 8: unknown key 'trams'"),
])
def test_malformed_trans_line_reports_its_line(line, message):
    with pytest.raises(MachineParseError) as excinfo:
        parse_machine_file(SCANNER_TEXT.replace(SCANNER_LINE, line))
    assert str(excinfo.value) == message
    assert excinfo.value.line_no == 8


@pytest.mark.parametrize("first, second", [
    (SCANNER_LINE, SCANNER_LINE),
    (SCANNER_LINE + "  # first", SCANNER_LINE),
    (SCANNER_LINE, "trans:q_scan 0 -> q_reject _ L"),
])
def test_duplicate_trans_line_reports_the_second(first, second):
    lines = SCANNER_TEXT.replace(SCANNER_LINE, first).splitlines()
    lines.insert(9, "")
    lines.insert(10, second)
    with pytest.raises(MachineParseError) as excinfo:
        parse_machine_file("\n".join(lines) + "\n")
    assert str(excinfo.value) == "line 11: duplicate transition for (q_scan, 0)"
    assert excinfo.value.line_no == 11


def test_the_keys_of_one_state_share_its_name():
    # every name in the machine is the 'states:' line's own object
    machine = parse_machine_file(
        emit_machine(build_trie_machine(BUILTIN_LANGUAGES["div3"], 8).machine))
    own = {id(q) for q in machine.states}
    names = [machine.start_state, machine.accept_state, machine.reject_state]
    names += [src for src, _ in machine.transitions]
    names += [target for target, _, _ in machine.transitions.values()]
    assert all(id(q) in own for q in names)
    assert len({id(q) for q in names}) == len(machine.states)
    assert len(machine.transitions) == 3 * (len(machine.states) - 2)


@settings(max_examples=200, deadline=None)
@given(machines(), st.data())
def test_lines_in_any_order_parse_to_the_same_machine(machine, data):
    # headers shuffled too, so trans lines come before the 'states:' line
    lines = emit_machine(machine).splitlines(keepends=True)
    assert parse_machine_file("".join(data.draw(st.permutations(lines)))) == machine


# every line break that str.splitlines knows
BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
          "\u2029"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(BREAKS) | st.text(alphabet="ab \r\n", max_size=12))
       .map("".join), st.integers(1, 9))
def test_the_block_walk_splits_lines_as_splitlines(text, block):
    # blocks of a few characters put '\r\n' across a cut and a line across
    # several blocks
    with mock.patch.object(textfmt, "_BLOCK", block):
        pieces = list(textfmt._pieces(text))
    assert "".join(pieces) == text
    assert [line for piece in pieces for line in piece.splitlines()] == text.splitlines()


@pytest.mark.parametrize("block", range(1, 10))
def test_a_file_parses_alike_in_blocks_of_any_size(monkeypatch, block):
    monkeypatch.setattr(textfmt, "_BLOCK", block)
    text = SCANNER_TEXT.replace("\n", "\r\n")
    assert parse_machine_file(text) == build_demo_machines()[0]
    with pytest.raises(MachineParseError) as excinfo:
        parse_machine_file(text.replace(SCANNER_LINE, SCANNER_LINE[:-1] + "X"))
    assert str(excinfo.value) == "line 8: move must be L or R, got 'X'"


def test_a_duplicate_past_the_first_block_reports_its_line():
    text = emit_machine(build_trie_machine(BUILTIN_LANGUAGES["div3"], 14).listing())
    lines = text.splitlines(keepends=True)
    at = len(lines) // 2
    assert len("".join(lines[:at])) > textfmt._BLOCK
    lines.insert(at, lines[10])
    with pytest.raises(MachineParseError) as excinfo:
        parse_machine_file("".join(lines))
    assert excinfo.value.line_no == at + 1
    assert "duplicate transition" in str(excinfo.value)


@pytest.mark.parametrize("line, replacement, message", [
    ("start: q_scan", "start: q_scan q_accept", "line 3: 'start' takes exactly one state"),
    ("reject: q_reject", "reject:", "line 5: 'reject' takes exactly one state"),
    ("accept: q_accept", "accept: q_accept\naccept: q_accept",
     "line 5: duplicate 'accept' line"),
    ("input_alphabet: 0 1", "input_alphabet: 0 one",
     "line 6: symbol 'one' is not a single character"),
    ("input_alphabet: 0 1", "input_alphabet: 0 1 _",
     "line 6: input alphabet must not include '_'"),
    ("tape_alphabet: 0 1 _", "tape_alphabet: 0 1", "line 7: tape alphabet must include '_'"),
])
def test_header_errors_report_their_line(line, replacement, message):
    with pytest.raises(MachineParseError) as excinfo:
        parse_machine_file(SCANNER_TEXT.replace(line, replacement))
    assert str(excinfo.value) == message
    assert excinfo.value.line_no == int(message.split()[1][:-1])


@pytest.mark.parametrize("replacements, message", [
    # a header error before a trans-line error
    ([("start: q_scan", "start: q_scan q_accept"), (SCANNER_LINE, SCANNER_LINE[:-1] + "X")],
     "line 3: 'start' takes exactly one state"),
    # two header errors, the input alphabet's first
    ([("input_alphabet: 0 1", "input_alphabet: 0 1 _"),
      ("tape_alphabet: 0 1 _", "tape_alphabet: 0 1")],
     "line 6: input alphabet must not include '_'"),
    # a header error in a file that also lacks a header
    ([("start: q_scan", "start: q_scan q_accept"), ("reject: q_reject", "")],
     "line 3: 'start' takes exactly one state"),
])
def test_the_first_error_in_file_order_is_reported(replacements, message):
    text = SCANNER_TEXT
    for old, new in replacements:
        text = text.replace(old, new)
    with pytest.raises(MachineParseError) as excinfo:
        parse_machine_file(text)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("line, stripped", [
    ("trans: q 0 -> q 0 R", "trans: q 0 -> q 0 R"),
    ("trans: q 0 -> q 0 R  # loops", "trans: q 0 -> q 0 R  "),
    ("trans: q \\# -> q \\# R # on '#'", "trans: q # -> q # R "),
    ("0\\#0", "0#0"),
    ("# all comment", ""),
])
def test_strip_comment(line, stripped):
    assert textfmt.strip_comment(line) == stripped


def renamed_scanner(scan="q_scan", accept="q_accept", symbol="0"):
    """The scanner with its start and accept states and its symbol '0' renamed."""
    t = {(scan, symbol): (scan, symbol, RIGHT), (scan, "1"): (accept, "1", RIGHT),
         (scan, BLANK): ("q_reject", BLANK, RIGHT)}
    return Machine(frozenset({symbol, "1"}), frozenset({symbol, "1", BLANK}),
                   frozenset({scan, accept, "q_reject"}), scan, accept, "q_reject", t)


@pytest.mark.parametrize("scan, accept, symbol, culprits", [
    ("", "q_accept", "0", [""]),
    ("q scan", "q_accept", "0", ["q scan"]),
    ("q_scan", "acc\u2028", "0", ["acc\u2028"]),
    ("q\tscan", "", "0", ["", "q\tscan"]),
    ("q_scan", "q_accept", " ", [" "]),
    ("q_scan", "q_accept", "\x85", ["\x85"]),
])
def test_names_the_format_cannot_hold_are_defects(scan, accept, symbol, culprits):
    defects = [f"symbol {symbol!r} is whitespace"] if symbol != "0" else [
        f"state name {q!r} is empty or holds whitespace" for q in culprits]
    assert validate_machine(renamed_scanner(scan, accept, symbol)) == defects


def test_names_the_format_can_hold_are_not_defects():
    m = renamed_scanner("scan:\\#->", "#", "#")
    assert validate_machine(m) == []
    assert parse_machine_file(emit_machine(m)) == m


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet=" \t\n\x0b\x85\u2028#\\:->_q0", max_size=4),
                min_size=3, max_size=5, unique=True),
       st.sampled_from(["1", "1 ", "1#", "1\\", "1\t"]))
def test_every_valid_machine_survives_the_round_trip(states, symbols):
    start, accept, reject = states[:3]
    tape = sorted(symbols + BLANK)
    t = {(q, s): (states[(i + j) % len(states)], s, RIGHT)
         for i, q in enumerate([start, *states[3:]]) for j, s in enumerate(tape)}
    m = Machine(frozenset("1"), frozenset(tape), frozenset(states), start, accept, reject, t)
    defects = validate_machine(m)
    unwritable = [q for q in states if q.split() != [q]] + [s for s in tape if s.isspace()]
    assert sum("whitespace" in d for d in defects) == len(unwritable)
    if not defects:
        assert parse_machine_file(emit_machine(m)) == m


@pytest.mark.parametrize("block", [1, 9, 1 << 16])
def test_a_line_without_its_colon_is_quoted_raw(monkeypatch, block):
    # the quote is the file's line, comment and escapes included, whatever
    # block the line falls in
    monkeypatch.setattr(textfmt, "_BLOCK", block)
    text = SCANNER_TEXT.replace(SCANNER_LINE, "trans q_scan \\# -> q_scan 0 R  # no colon")
    with pytest.raises(MachineParseError) as excinfo:
        parse_machine_file(text.replace("\n", "\r\n"))
    assert str(excinfo.value) == ("line 8: expected '<key>: ...', got "
                                  "'trans q_scan \\\\# -> q_scan 0 R  # no colon'")
