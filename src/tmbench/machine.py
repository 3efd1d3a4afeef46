"""Deterministic single-tape Turing machine model and simulator.

A machine halts exactly in its accept or reject state; every other
(state, symbol) pair must have a transition. The tape is two-way infinite;
the head starts on cell 0, which holds the first input symbol. Moves are
'L'/'R', i.e. head index -1/+1.

Runs execute on a compiled form of the machine (_CompiledMachine), built
once per (machine, cost model) and cached on the machine. A run, traced or
not, takes a self-loop over a run of cells (a sweep) as one plain step and
one exact macro-step over the rest, after Marxen & Buntrock, "Attacking the
Busy Beaver 5" (1990); a traced sweep records each cell it passes as a step
of its own (see _Sweep). Every run, from a word, from a configuration or
from an (input, certificate) pair, goes through `_CompiledMachine.execute`,
the one place that lays out a tape and steps, and the one place that reads
a run's final state as its Verdict. It runs a batch of starts lazily: a
single run is a batch of one (`launch`), and the loops that run a machine
on many inputs (`check_bound`, the CLI's profile, the certificate
searches) take the lean driver `outcomes`, which binds the loop's locals
once per batch. Each start carries a label
of the caller's, which the driver hands back with the run's end: (label,
verdict, total, counted) per start, the last three as a RunResult holds
them, so no caller pairs outcomes with its inputs. The tests keep a
dict-based stepper as the reference the compiled loop is checked against.

`run` is the one runner the package exports. `initial_configuration` and
`run_configuration`, a start configuration and a run from any
configuration, are not exported: the benchmark's tracer wraps them by name,
and they stay here, called only by it and the tests, until it wraps the
live paths instead. Trie verification is likewise one entry point,
`verify_trie` (see tmbench.convergence).

The compiled table of a Machine is filled entry by entry as runs reach its
entries, and holds a row only for a state that runs have reached: it starts
as the start state's row, and each state a run first reaches appends its
own. The halting rows sit at the table's logical size, fixed by the
machine, not at its length, and a run reads its Verdict off its final row
with no list as long as the machine. So a single run on a large machine
costs only the entries it uses, and the CLI's profile, whose `--lengths`
may reach only a few entries of a large machine, stays lazy. A compiled
form is built one way, from its columns: symbols, input alphabet, table
and logical size. `_compile` builds a Machine's from the start state's row
and then names it, while a caller that has the whole table in integers
builds one with no Machine and no names at all: a built trie's table,
which its oracle's answers give. `verify_trie` and
`find_convergence_index` do not run that table through `execute`: they
walk its entries a level of prefixes at a time (see tmbench.convergence),
and only the tests run it through the lean driver, as the walk's
reference.

`all_words` is the one enumeration of words in length-then-lexicographic
order: the certificate search, trie synthesis and verification, and the
CLI's word families all draw from it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from itertools import product
from operator import add, index
from typing import Iterable, Iterator, Mapping, Optional

from tmbench.cost import COUNT_ALL, CostModel, counted_set

BLANK = "_"
LEFT = "L"
RIGHT = "R"
DEFAULT_FUEL = 10_000  # the step limit of a run when the caller names none

# transition value: (target state, written symbol, move)
Transition = tuple[str, str, str]


class InvalidInputError(ValueError):
    """Input word contains a symbol outside the machine's input alphabet."""


class Verdict(enum.Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    FUEL_EXHAUSTED = "fuel-exhausted"


@dataclass(frozen=True)
class Machine:
    """A deterministic single-tape machine.

    A machine is an immutable value once it has run: running it caches its
    validation and its compiled table, per cost model, on the instance, so
    its transition mapping must not be mutated afterwards. The cache is not
    a field, so equality, repr and the file format do not see it.
    """

    input_alphabet: frozenset[str]
    tape_alphabet: frozenset[str]
    states: frozenset[str]
    start_state: str
    accept_state: str
    reject_state: str
    transitions: Mapping[tuple[str, str], Transition]

    def is_halting(self, state: str) -> bool:
        return state == self.accept_state or state == self.reject_state


@dataclass(frozen=True, slots=True)
class StepRecord:
    """One applied transition: where it fired and what it did.

    A record is a slotted value: it has no __dict__, takes no attribute
    but its seven fields and cannot be weakly referenced. A traced run
    builds its records after the loop (_CompiledMachine.trace), one per
    distinct (entry, head) pair, so the equal records of one trace are one
    object: trace[i] is trace[j] can hold. Being frozen, a shared record
    cannot be changed through one step and seen at another.

    The records pass builds each record as a draft (see _drafts), whose
    fields are set by plain attribute stores, and then retypes it to
    StepRecord by assigning its __class__. The draft's class has exactly
    StepRecord's slots and no other state, so the two lay their instances
    out alike: Python allows the assignment only then, and what it yields
    is a genuine StepRecord, equal to and hashing like the one the
    constructor builds from the same fields.
    """

    state: str
    head: int
    read: str
    write: str
    move: str
    target: str
    counted: bool


def _drafts(cls: type) -> type:
    """A plain class with the slots of cls, a frozen slotted dataclass: its
    instances take ordinary attribute stores, which cost a fraction of the
    frozen __init__'s object.__setattr__ calls, and once filled become
    values of cls by `draft.__class__ = cls` (see StepRecord)."""
    return type(f"_{cls.__name__}Draft", (), {"__slots__": cls.__slots__})


_StepRecordDraft = _drafts(StepRecord)


@dataclass
class Configuration:
    state: str
    tape: dict[int, str]  # only non-blank cells are stored
    head: int

    def __getattr__(self, name):
        # The final configuration of a compiled run holds its cells packed
        # and decodes them into the tape dict on first read.
        packed = self.__dict__.get("_packed")
        if name != "tape" or packed is None:
            raise AttributeError(name)
        symbols, cells, origin = packed
        edge = len(symbols)
        self.tape = {i - origin: symbols[v] for i, v in enumerate(cells) if 0 < v < edge}
        del self._packed
        return self.tape


@dataclass(frozen=True)
class RunResult:
    verdict: Verdict
    total_steps: int
    counted_steps: int
    trace: Optional[tuple[StepRecord, ...]] = None
    final: Optional[Configuration] = field(default=None, compare=False)


def validate_machine(m: Machine) -> list[str]:
    """Check all structural invariants; returns a list of defects (empty = ok).

    One unsorted pass over the transitions sets aside the entries with a
    defect. The keys in (non-halting state) x (tape alphabet) are the
    entries less the set-aside ones outside it, and the table is total
    exactly when they number the product of the two sizes. Missing keys are
    listed, and defective entries sorted, only when there are any.
    """
    defects: list[str] = []
    states, tape = m.states, m.tape_alphabet

    if BLANK in m.input_alphabet:
        defects.append("input alphabet contains the blank symbol")
    if BLANK not in tape:
        defects.append("tape alphabet missing the blank symbol")
    if not m.input_alphabet <= tape:
        defects.append("input alphabet not a subset of tape alphabet")
    # a tape cell is a byte, and the code after the last symbol's is the sentinel
    if len(tape) > 255:
        defects.append(f"tape alphabet has {len(tape)} symbols, more than 255")
    for sym in sorted(tape):
        if len(sym) != 1:
            defects.append(f"symbol {sym!r} is not a single character")
        elif sym.isspace():
            defects.append(f"symbol {sym!r} is whitespace")
    # the file format splits lines at whitespace, as str.split does; one
    # scan over the joined names finds whether any name breaks that
    joined = "".join(states)
    if "" in states or joined.split() != [joined]:
        for q in sorted(states):
            if q.split() != [q]:
                defects.append(f"state name {q!r} is empty or holds whitespace")

    named = {"start": m.start_state, "accept": m.accept_state, "reject": m.reject_state}
    for role, q in named.items():
        if q not in states:
            defects.append(f"{role} state {q!r} not in state set")
    if len({m.start_state, m.accept_state, m.reject_state}) != 3:
        defects.append("halting states not distinct (start/accept/reject must differ)")

    non_halting = states - {m.accept_state, m.reject_state}
    moves = (LEFT, RIGHT)
    suspects = [(q, sym) for (q, sym), (target, write, move) in m.transitions.items()
                if not (q in non_halting and sym in tape and target in states
                        and write in tape and move in moves)]
    in_table = len(m.transitions) - sum(
        not (q in non_halting and sym in tape) for q, sym in suspects)
    if in_table != len(non_halting) * len(tape):
        for q in sorted(non_halting):
            for sym in sorted(tape):
                if (q, sym) not in m.transitions:
                    defects.append(f"transition table not total: missing ({q}, {sym})")
    for q, sym in sorted(suspects):
        target, write, move = m.transitions[(q, sym)]
        if q in (m.accept_state, m.reject_state):
            defects.append(f"transition from halting state ({q}, {sym})")
        if q not in states:
            defects.append(f"transition from unknown state {q!r}")
        if sym not in tape:
            defects.append(f"transition reads symbol {sym!r} outside tape alphabet")
        if target not in states:
            defects.append(f"transition ({q}, {sym}) targets unknown state {target!r}")
        if write not in tape:
            defects.append(f"transition ({q}, {sym}) writes {write!r} outside tape alphabet")
        if move not in moves:
            defects.append(f"transition ({q}, {sym}) has move {move!r}, expected L or R")
    return defects


def require_valid(m: Machine) -> dict:
    """Raise ValueError if m is defective. A machine that passes gets a
    compile cache, whose presence marks it valid, and is never checked
    again; returns that cache."""
    cache = m.__dict__.get("_compiled")
    if cache is None:
        defects = validate_machine(m)
        if defects:
            raise ValueError("invalid machine: " + "; ".join(defects))
        cache = _mark_valid(m)
    return cache


def _mark_valid(m: Machine) -> dict:
    """Give m an empty compile cache, which marks it valid; for machines
    valid by construction."""
    cache: dict = {}
    object.__setattr__(m, "_compiled", cache)
    return cache


# bench/tracer.py wraps this by name; it goes with ROADMAP item 1(a)
def initial_configuration(m: Machine, input_word: str) -> Configuration:
    """Start configuration: input in cells 0..len-1, head at cell 0.

    The empty word leaves the tape all blank, so the head scans blank
    immediately.
    """
    for ch in input_word:
        if ch not in m.input_alphabet:
            raise InvalidInputError(f"symbol {ch!r} not in input alphabet")
    tape = {i: ch for i, ch in enumerate(input_word)}
    return Configuration(state=m.start_state, tape=tape, head=0)


class _Sweep:
    """A compiled self-loop: a state that stays put on every symbol of a
    set, writing it and moving one way. The step loop
    (_CompiledMachine.execute) runs the maximal run of those symbols from
    the head in one macro-step, with no Python call. It reads what it needs
    of the sweep once per run, from the sweep's tuple in `markers`:
    (row, d, stop, inside, counted, writes, sweep). row is the state's row
    and d its move, -1/+1; writes is a bytes.translate table, None when
    each symbol is written back; the cost model counts the cells of the
    run whose symbol is in counted (None: all of them; empty: none, and
    the loop adds 0 without reading the cells). The sweep holds no
    reference back to its tuple, so the two make no cycle.

    The run ends at the first cell whose symbol is a stop code, one of the
    tape codes outside the set; the sentinel ends every run. The machine
    alone picks the scan that finds it. With exactly one stop code, stop,
    bytearray.find (rfind moving left) looks for it in place, copying
    nothing: the 'find' scan. Otherwise stop is None and inside, which maps
    each symbol of the set to 1 and every other byte to 0, translates a
    copy of each of a series of doubling windows and finds its first 0:
    the 'mask' scan. Its first window ends a little past the last run's
    length, `last`, so a run costs time in its own length and its
    predecessor's, never the tape's. The mask stays for several stop codes
    because one find per code is not bounded by the run: each scans to its
    own code or to the bound, so a stop code that is rare on the tape would
    make every run cost the tape's length. Either scan is clipped at the
    fuel left and at the sentinels, tape indices 0 and len(tape) - 1.

    `entry` is the table index of the self-loop, whose step goes into this
    sweep's marker row (see _CompiledMachine). A sweep is judged once, at
    its TRIAL-th run: `cells` tallies the cells of its first TRIAL runs,
    each run's first step counted, and if they average fewer than SHORT,
    the loop puts back `plain`, the entry as one step into its own row.
    A sweep that passes stays a sweep for good, whatever its later runs
    (the choice moves only the speed of a run, never its result). `runs`
    counts every run, and `last` is read and kept by the mask scan alone.
    """

    __slots__ = ("entry", "plain", "runs", "cells", "last")

    # a sweep whose first TRIAL runs average fewer cells than SHORT costs
    # more in the loop's exceptions than it saves
    TRIAL = 16
    SHORT = 4

    def __init__(self, entry: int, plain: tuple[int, int, int, int]):
        self.entry, self.plain = entry, plain
        self.runs = self.cells = self.last = 0


def _positive(fuel) -> int:
    """fuel as an int, if it is a positive one: a non-integer, a whole
    float included, raises TypeError, and zero or less ValueError."""
    fuel = index(fuel)
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    return fuel


class _Cells(dict):
    """str.translate's table from one alphabet to tape cells: ord(symbol) to
    chr(its number), a code below 256. translate looks the symbols of a word
    up in order, so the first one outside the alphabet raises
    InvalidInputError, which names it and the alphabet. It must not raise a
    LookupError: translate would pass that symbol through unchanged."""

    def __init__(self, code: dict[str, int], alphabet: Iterable[str], what: str):
        super().__init__({ord(s): chr(code[s]) for s in alphabet})
        self.what = what

    def __missing__(self, key: int):
        raise InvalidInputError(f"symbol {chr(key)!r} not in {self.what} alphabet")


class _CompiledMachine:
    """A valid machine's transition table under one cost model, in integers.

    Symbols are numbered with blank 0; the next number, `edge`, is a sentinel
    cell at both ends of the tape. States are numbered by rows premultiplied
    by the row width edge + 1, so the entry for (state, symbol) is
    table[state + symbol]. The table starts as the start state's row, 0,
    and `number` appends a row for each other state when a run first
    reaches it, so a run builds nothing for the states it never reaches.
    `row` maps each numbered state to its row, and `states` each row back
    to its state. `size`, fixed at compile time, is the table's logical
    length: a row for every state but the halting two, whose rows sit at
    size (accept) and size + width (reject), past every row the table can
    hold, so indexing one raises IndexError, which is how the step loop
    notices a halt. An entry is (target, written symbol, head move -1/+1,
    counted 0/1), filled in the first time a run needs it, so a run costs
    the entries it uses rather than the whole table. A built trie's table
    is complete already and has no names: no `row`, `states`,
    `transitions` or `counted_keys`, which only _compile sets.
    Unfilled entries and the sentinel column hold None: unpacking it raises
    TypeError, which is how the step loop notices a tape end or an entry to
    fill without testing for either on every step.

    An entry whose target is its own state is a plain step too, but into
    the marker row `marks` + j, past the halting rows, with j its sweep's
    index in `markers`, whose tuple holds what the step loop reads of the
    sweep and ends with its _Sweep: indexing a marker row raises IndexError
    as a halt does, so the step loop needs no test to notice a sweep,
    traced or not, and it then takes the rest of the run of cells the state
    loops over in that direction as one macro-step (see _Sweep and
    execute).

    A traced run steps the same table and records one integer per step,
    its key: entry + size * head, with size the logical size, so a table
    that grows during the run leaves its keys valid, and head the cell
    number; a sweep records the keys of the cells it passes.
    After the loop, `trace` builds one StepRecord per distinct key and
    shares it among the steps with that key. Untraced runs allocate
    nothing for traces, and traced runs nothing that outlives the call.

    A tape is a bytearray of symbol numbers framed by sentinels, so a valid
    machine has at most 255 tape symbols (see validate_machine). A word
    becomes cells through one translate table per alphabet, input and tape
    (_Cells, in `cell_tables`), which names the first symbol outside it. The
    compiled form holds no reference to the machine, so caching it there
    makes no cycle.

    `execute` holds the one step loop: it lays out a tape per (label,
    cells, head) start of a batch and yields each run's end, the start's
    label first and its Verdict next. A run reads its Verdict off its final
    row once, as it ends, and no step reads it: a row below size ran out of
    fuel, size accepted and the row past it rejected.
    `launch` takes the single result of a batch of one, labelled None, to
    build a RunResult; `outcomes`, the lean driver of the loops that run a
    machine on many inputs, yields only the label, the verdict and the
    total and counted steps per start, and `on_words` runs it on words from
    the start configuration, each labelled with its word.
    """

    def __init__(self, symbols: list[str], inputs: frozenset[str], table: list, size: int):
        """A compiled machine from its columns, with no names: symbols are
        numbered in their order, blank first, inputs is the input alphabet,
        table holds the rows in integers, the start state's first, and size
        is the logical size, where the halting rows, accept's then
        reject's, sit. A table that is complete already (a built trie's:
        size is its length) must hold only plain entries but in the
        sentinel column, so nothing is filled or swept by name, and it runs
        through the lean driver (outcomes, on_words), which yields (label,
        verdict, total, counted) per start: without state names it has no
        final configuration or trace to build. tmbench.convergence walks
        such a table's entries itself, and only the tests run it so. _compile alone names a
        Machine's table: it sets transitions, counted_keys, row and states."""
        self.symbols, self.inputs, self.table, self.size = symbols, inputs, table, size
        self.edge, self.width = len(symbols), len(symbols) + 1
        self.marks, self.markers = size + 2 * self.width, []
        self.code = {s: i for i, s in enumerate(symbols)}
        # encode's translate table per alphabet
        self.cell_tables = {a: _Cells(self.code, a, what)
                            for a, what in ((inputs, "input"), (frozenset(symbols), "tape"))}
        self.blank = bytearray([0])
        self.sentinel = bytearray([self.edge])
        self.right_end = self.blank + self.sentinel

    def _fields(self, entry: int) -> tuple:
        """The transition at entry by name: the fields of its StepRecord but
        the head, (state, read, write, move, target, counted)."""
        symbol = entry % self.width
        state, read = key = (self.states[entry - symbol], self.symbols[symbol])
        target, write, move = self.transitions[key]
        counted = self.counted_keys is None or key in self.counted_keys
        return state, read, write, move, target, counted

    def number(self, state: str) -> int:
        """state's row, numbered now if no run has reached it before: a new
        row of None is appended to the table in place, so the rows after the
        start state's go to states in the order runs first reach them."""
        row = self.row.get(state)
        if row is None:
            row = self.row[state] = len(self.table)
            self.states[row] = state
            self.table.extend([None] * self.width)
        return row

    def _fill(self, entry: int) -> None:
        """Fill the table entry if it is empty: its plain entry (row, code,
        +-1, counted), or if it loops on its state, the same step into a
        new sweep's marker row."""
        if self.table[entry] is None:
            state, _, write, move, target, counted = self._fields(entry)
            plain = (self.number(target), self.code[write], 1 if move == RIGHT else -1,
                     int(counted))
            self.table[entry] = self._sweep(entry, move, plain) if target == state else plain

    def _sweep(self, entry: int, move: str, plain: tuple) -> tuple:
        """A new sweep over every symbol that entry's state loops on, moving
        move, at entry, whose plain entry is plain, and its tuple in markers
        (see _Sweep); returns entry's step into the sweep's marker row. Its
        stop codes are the other tape codes."""
        loop, stops, counted = bytearray(), bytearray(), bytearray()
        writes = bytearray(range(256))
        row = entry - entry % self.width
        for code in range(self.edge):
            state, _, write, m, target, c = self._fields(row + code)
            if target == state and m == move:
                loop.append(code)
                writes[code] = self.code[write]
                if c:
                    counted.append(code)
            else:
                stops.append(code)
        stop = stops[0] if len(stops) == 1 else None
        inside = None if stop is not None else bytes(code in loop for code in range(256))
        self.markers.append((plain[0], plain[2], stop, inside,
                             None if counted == loop else bytes(counted),
                             None if writes == bytes(range(256)) else bytes(writes),
                             _Sweep(entry, plain)))
        return (self.marks + len(self.markers) - 1,) + plain[1:]

    def encode(self, word: str, alphabet: frozenset[str]) -> bytes:
        """word's cells as symbol numbers; alphabet is the machine's input or
        tape alphabet, and the first symbol of word outside it raises
        InvalidInputError (see _Cells)."""
        return word.translate(self.cell_tables[alphabet]).encode("latin-1")

    def launch(self, cells, head: int, fuel: int, record_trace: bool = False,
               first: int = 0, q: int = 0) -> RunResult:
        """execute's run of one start as a RunResult, with its trace if
        record_trace."""
        fuel = _positive(fuel)
        keys = [] if record_trace else None  # a step's key: its entry and head in one integer
        batch = self.execute([(None, cells, head)], fuel, False, first, q, keys)
        _, verdict, total, counted, q, tape, i, origin = next(batch)
        final = Configuration.__new__(Configuration)
        final.state = self.states[q]
        final.head = i - origin
        final._packed = (self.symbols, tape, origin)
        return RunResult(verdict, total, counted,
                         self.trace(keys) if keys is not None else None, final)

    def outcomes(self, starts: Iterable[tuple], fuel: int) -> Iterator[tuple]:
        """The lean driver: execute's runs from the start state, one per
        (label, cells, head) of starts, each yielding only its label, its
        Verdict, the total and the counted steps, the last three as
        RunResult holds them. The runs are lazy, so a caller may stop
        early; fuel is checked now, before any start is read."""
        return self.execute(starts, _positive(fuel), True)  # lean

    def on_words(self, words: Iterable[str], fuel: int) -> Iterator[tuple]:
        """outcomes of the runs on each word from the start configuration,
        each labelled with its word; words is read once, lazily."""
        encode, inputs = self.encode, self.inputs
        return self.outcomes(((word, encode(word, inputs), 0) for word in words), fuel)

    def execute(self, starts: Iterable[tuple], fuel: int, lean: bool = False, first: int = 0,
                q: int = 0, keys: Optional[list] = None) -> Iterator[tuple]:
        """Run once per (label, cells, head) of starts, lazily: from state
        row q, the start state's by default, on a fresh tape that holds the
        encoded cells from cell first on, blank elsewhere, with the head on
        cell head (at least first), until a halt or fuel total steps; a
        traced run passes the list that gets each step's key, the steps
        of a sweep's too (see trace), each taken with the logical size
        as multiplier, so that rows numbered during the run leave earlier
        keys valid. Yields per start its label, whatever the caller chose,
        the Verdict, read off the final row, the total and counted steps, and
        unless lean, the final state row, the tape, the head's index in it
        and cell 0's.

        The tape is the cells, blanks up to the head, and one blank more,
        between sentinels; most runs halt before it needs to grow. fuel
        must be a positive int (see _positive): the loop's TypeError
        handler would take a non-integer fuel's TypeError for a table
        event. The loop's locals are bound once per batch.

        One IndexError handler takes both rows past the table's end: a
        halting row ends the run, and a marker row (at least marks) runs its
        sweep in place, with exact total and counted steps, and goes on in
        the sweep's own row; the sweep's scan finds where its run ends (see
        _Sweep). It reads what it needs of the sweep with one unpack of its
        tuple in `markers`, which ends with the _Sweep, and judges the sweep
        at its TRIAL-th run only. A traced run's keys get one key per cell of the run, in
        step order, before any write. A run whose fuel ends on a sweep's
        first step maps the marker back to the sweep's row too."""
        table, markers, marks = self.table, self.markers, self.marks
        sentinel, blank, right_end = self.sentinel, self.blank, self.right_end
        edge, fill, size = self.edge, self._fill, self.size
        exhausted, accepted, rejected = Verdict.FUEL_EXHAUSTED, Verdict.ACCEPTED, Verdict.REJECTED
        trial, few = _Sweep.TRIAL, _Sweep.TRIAL * _Sweep.SHORT
        q0 = q
        for label, cells, head in starts:
            pad = head - first - len(cells)
            tape = sentinel + cells + (blank * pad + right_end if pad > 0 else right_end)
            i, origin = head - first + 1, 1 - first
            q = q0
            total = counted = 0
            while True:
                try:
                    if keys is None:
                        for k in range(fuel - total):
                            q, w, d, c = table[q + tape[i]]
                            tape[i] = w
                            i += d
                            counted += c
                    else:
                        for k in range(fuel - total):
                            e = q + tape[i]
                            q, w, d, c = table[e]
                            tape[i] = w
                            keys.append(e + size * (i - origin))
                            i += d
                            counted += c
                except IndexError:  # a halting row or a sweep's marker row
                    total += k
                    if q < marks:
                        break
                    q, d, stop, inside, c, writes, sweep = markers[q - marks]
                    # the run is tape[start:end], within bound: the fuel left,
                    # clipped to the cells between the sentinels
                    if d > 0:
                        start = end = i
                        bound = i + fuel - total
                        if bound >= len(tape):
                            bound = len(tape) - 1
                        if stop is not None:
                            end = tape.find(stop, i, bound)
                            if end < 0:
                                end = bound
                        else:
                            window = sweep.last + 32
                            while end < bound:
                                hi = end + window if end + window < bound else bound
                                j = tape[end:hi].translate(inside).find(0)
                                if j >= 0:
                                    end += j
                                    break
                                end = hi
                                window *= 2
                        i = end
                    else:
                        start = end = i + 1
                        bound = end - fuel + total
                        if bound < 1:
                            bound = 1
                        if stop is not None:
                            start = tape.rfind(stop, bound, end) + 1 or bound
                        else:
                            window = sweep.last + 32
                            while start > bound:
                                lo = start - window if start - window > bound else bound
                                j = tape[lo:start].translate(inside).rfind(0)
                                if j >= 0:
                                    start = lo + j + 1
                                    break
                                start = lo
                                window *= 2
                        i = start - 1
                    n = end - start
                    total += n
                    if c is None:
                        counted += n
                    if keys is not None or writes is not None or c:
                        seg = tape[start:end]
                        if keys is not None:  # a left sweep steps from its end cell to its start
                            base = q + size * (start - origin)
                            passed = map(add, seg, range(base, base + size * n, size))
                            keys.extend(passed if d > 0 else reversed(list(passed)))
                        if c:  # deleting the counted cells leaves the rest
                            counted += n - len(seg.translate(None, c))
                        if writes is not None:
                            tape[start:end] = seg.translate(writes)
                    if stop is None:
                        sweep.last = n
                    runs = sweep.runs = sweep.runs + 1
                    if runs <= trial:  # judged once, at the trial's last run
                        sweep.cells += n + 1  # and the run's first, plain step
                        if runs == trial and sweep.cells < few:
                            table[sweep.entry] = sweep.plain
                except TypeError:  # a sentinel or an unfilled entry
                    total += k
                    if tape[i] != edge:
                        fill(q + tape[i])
                        continue
                    grow = len(tape)
                    if i == 0:
                        tape[:1] = sentinel + blank * grow
                        i += grow
                        origin += grow
                    else:
                        tape[i:] = blank * grow + sentinel
                else:
                    total = fuel
                    if q >= marks:  # the last step was a sweep's first
                        q = markers[q - marks][0]
                    break
            verdict = exhausted if q < size else accepted if q == size else rejected
            end = label, verdict, total, counted
            yield end if lean else end + (q, tape, i, origin)

    def trace(self, keys: list) -> tuple[StepRecord, ...]:
        """The StepRecords of a traced run's keys, one record per distinct
        key: steps with the same entry and head share one record object.

        A key is entry + size * head, size the table's logical size, which
        no row reaches, however far the table has grown; as 0 <= entry <
        size, divmod gives back the head, negative too, and the entry. A
        record is built on a key's first step only, as a draft of
        StepRecord's slots filled by plain stores and then retyped to
        StepRecord (see StepRecord): the frozen __init__ sets each field
        with object.__setattr__, and a record built by it costs about four
        times as much (Python 3.11). Its fields but the head are worked out
        from the names once per entry (_fields): a sweep passes cells whose
        own entries the table may never fill, so the table is no source for
        them. The memos of records and of fields live for this call only,
        so nothing grows across runs."""
        size, draft, record = self.size, _StepRecordDraft, StepRecord
        shared: dict = {}
        named: dict = {}
        get = shared.get
        records = []
        append = records.append
        for key in keys:
            r = get(key)
            if r is None:
                head, entry = divmod(key, size)
                fields = named.get(entry)
                if fields is None:
                    fields = named[entry] = self._fields(entry)
                r = shared[key] = draft()
                r.state, r.read, r.write, r.move, r.target, r.counted = fields
                r.head = head
                r.__class__ = record
            append(r)
        return tuple(records)


def _compile(m: Machine, cost: CostModel) -> _CompiledMachine:
    """m compiled under cost: validated and built on first use, then cached
    on m per CostModel value. The table starts as the start state's row of
    None, and number appends the others' as runs reach them; this is the
    one place that gives a compiled machine its names."""
    cache = require_valid(m)
    compiled = cache.get(cost)
    if compiled is None:
        counted = None if cost == COUNT_ALL else counted_set(m, cost)
        width = len(m.tape_alphabet) + 1
        size = (len(m.states) - 2) * width
        compiled = _CompiledMachine([BLANK] + sorted(m.tape_alphabet - {BLANK}),
                                    m.input_alphabet, [None] * width, size)
        compiled.transitions = m.transitions
        compiled.counted_keys = counted  # None counts every entry
        compiled.row = {m.start_state: 0, m.accept_state: size, m.reject_state: size + width}
        compiled.states = {row: state for state, row in compiled.row.items()}
        cache[cost] = compiled
    return compiled


# bench/tracer.py wraps this by name; it goes with ROADMAP item 1(a)
def run_configuration(
    m: Machine,
    config: Configuration,
    cost: CostModel,
    fuel: int,
    record_trace: bool = False,
) -> RunResult:
    """Iterate from an arbitrary configuration under a cost model until halt
    or fuel runs out.

    config is updated in place to the final configuration, which the result
    holds. A run of fuel steps reads only the cells within fuel of the head,
    so only the stored cells there are laid out, densely, and the others
    pass to the final tape unchanged. With fuel 1 this is the library's one
    single step: a halted configuration takes no step. A state the machine
    does not have raises ValueError, and a stored cell outside the tape
    alphabet, however far from the head, InvalidInputError naming the
    leftmost such cell's symbol; either leaves config as it was.
    """
    compiled = _compile(m, cost)
    if config.state not in m.states:
        raise ValueError(f"configuration state {config.state!r} is not a state of the machine")
    fuel, head = _positive(fuel), config.head
    # every stored cell, near or far, leftmost first, before any is laid out
    compiled.encode("".join(sym for _, sym in sorted(config.tape.items())), m.tape_alphabet)
    near, far = {}, {}
    for i, sym in config.tape.items():
        (near if abs(i - head) <= fuel else far)[i] = sym
    lo, hi = min([*near, head]), max([*near, head])
    cells = [BLANK] * (hi - lo + 1)
    for i, sym in near.items():
        cells[i - lo] = sym
    result = compiled.launch(compiled.encode("".join(cells), m.tape_alphabet),
                             head, fuel, record_trace, lo, compiled.number(config.state))
    far.update(result.final.tape)
    config.state, config.head, config.tape = result.final.state, result.final.head, far
    return replace(result, final=config)


def run(m: Machine, input_word: str, cost: CostModel = COUNT_ALL, fuel: int = DEFAULT_FUEL,
        record_trace: bool = False) -> RunResult:
    """Simulate m on input_word under a cost model, bounded by fuel total
    steps. fuel must be a positive integer: a non-integer, a whole float
    included, raises TypeError, and zero or less raises ValueError. The
    result holds the run's StepRecords only if record_trace."""
    compiled = _compile(m, cost)
    return compiled.launch(compiled.encode(input_word, compiled.inputs), 0, fuel, record_trace)


def all_words(alphabet: Iterable[str], max_len: int, min_len: int = 0) -> Iterator[str]:
    """The words of length min_len to max_len over alphabet, lazily, in
    length-then-lexicographic order."""
    symbols = sorted(alphabet)
    for length in range(min_len, max_len + 1):
        yield from map("".join, product(symbols, repeat=length))
