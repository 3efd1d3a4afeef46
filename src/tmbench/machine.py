"""Deterministic single-tape Turing machine model and simulator.

A machine halts exactly in its accept or reject state; every other
(state, symbol) pair must have a transition. The tape is two-way infinite;
the head starts on cell 0, which holds the first input symbol. Moves are
'L'/'R', i.e. head index -1/+1.

Runs execute on a compiled form of the machine (_CompiledMachine), built
once per (machine, cost model) and cached on the machine. An untraced run
takes a self-loop over a run of cells (a sweep) as one exact macro-step,
after Marxen & Buntrock, "Attacking the Busy Beaver 5" (1990); a traced run
steps one transition at a time. The dict-based `step` is the reference the
compiled loop is tested against. Every run, from a word, from a
configuration or from an (input, certificate) pair, starts in
`_CompiledMachine.launch`, the one place that lays out a tape.

`all_words` is the one enumeration of words in length-then-lexicographic
order: the certificate search, trie synthesis and verification, and the
CLI's word families all draw from it.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from operator import index
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


@dataclass(frozen=True)
class StepRecord:
    """One applied transition: where it fired and what it did."""

    state: str
    head: int
    read: str
    write: str
    move: str
    target: str
    counted: bool


@dataclass
class Configuration:
    state: str
    tape: dict[int, str]  # only non-blank cells are stored
    head: int

    def scanned(self) -> str:
        return self.tape.get(self.head, BLANK)

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


def step(m: Machine, c: Configuration) -> Optional[tuple[Configuration, StepRecord]]:
    """Apply one transition in place; returns None when c is already halted."""
    if m.is_halting(c.state):
        return None
    read = c.scanned()
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


class _Sweep:
    """A compiled self-loop: a state that stays put on every symbol of a
    set, writing it through `writes` (a bytes.translate table, None when
    each symbol is written back) and moving d. It runs the maximal run of
    those symbols from the head in one macro-step. `inside` maps each
    symbol of the set to 1 and every other byte to 0. The cost model counts
    the cells of the run whose symbol is in `counted` (None: all of them).

    Unpacking a sweep raises TypeError, like an unfilled entry, so the step
    loop needs no test to notice one. `plain` is the entry as one step.
    """

    __slots__ = ("plain", "d", "inside", "writes", "counted", "runs", "cells", "last")

    # after this many runs, a sweep whose runs average fewer cells than
    # SHORT costs more in the loop's exceptions than it saves
    TRIAL = 16
    SHORT = 4

    def __init__(self, plain: tuple[int, int, int, int], loop: bytes,
                 writes: Optional[bytes], counted: Optional[bytes]):
        self.plain = plain
        self.d = plain[2]
        inside = bytearray(256)
        for code in loop:
            inside[code] = 1
        self.inside = bytes(inside)
        self.writes, self.counted = writes, counted
        self.runs = self.cells = self.last = 0

    def run(self, tape: bytearray, i: int, limit: int) -> tuple[int, int, int]:
        """Apply the run that starts at tape[i], at most limit cells long:
        returns the head index after it, its total and its counted steps.

        The run ends at the first cell outside the set, looked for in
        windows that start a little past this sweep's last run and double
        in size, so a run costs time in its own length and its
        predecessor's, never the tape's. A sentinel is never in the set,
        so every run stops at one.
        """
        inside = self.inside
        window = self.last + 32
        if self.d > 0:
            start = end = i
            stop = i + limit
            while True:
                hi = min(end + window, stop)
                j = tape[end:hi].translate(inside).find(0)
                if j >= 0:
                    end += j
                    break
                end = hi
                if end == stop:
                    break
                window *= 2
            head = end
        else:
            start = end = i + 1
            stop = end - limit
            while True:
                lo = max(start - window, stop, 0)
                j = tape[lo:start].translate(inside).rfind(0)
                if j >= 0:
                    start = lo + j + 1
                    break
                start = lo
                if start == stop:
                    break
                window *= 2
            head = start - 1
        n = end - start
        counted = n
        if self.writes is not None or self.counted is not None:
            seg = tape[start:end]
            if self.counted is not None:  # deleting the counted cells leaves the rest
                counted = n - len(seg.translate(None, self.counted))
            if self.writes is not None:
                tape[start:end] = seg.translate(self.writes)
        self.runs += 1
        self.cells += n
        self.last = n
        return head, n, counted

    def short(self) -> bool:
        """Whether this sweep has had its trial and covers too few cells."""
        return self.runs >= self.TRIAL and self.cells < self.SHORT * self.runs


class _CompiledMachine:
    """A valid machine's transition table under one cost model, in integers.

    Symbols are numbered with blank 0; the next number, `edge`, is a sentinel
    cell at both ends of the tape. States are numbered with the two halting
    states last and stored premultiplied by the row width edge + 1, so the
    entry for (state, symbol) is table[state + symbol]. An entry is
    (target, written symbol, head move -1/+1, counted 0/1), filled in the
    first time a run needs it, so a run costs the entries it uses rather
    than the whole table. Unfilled entries, the halting rows and the
    sentinel column hold None: unpacking it raises TypeError, which is how
    the step loop notices a halt, a tape end or an entry to fill without
    testing for any of them on every step.

    An entry whose target is its own state holds a _Sweep instead, which
    does not unpack either: the untraced loop then takes the whole run of
    cells the state loops over in that direction as one macro-step, with
    exact total and counted steps, clipped to the fuel left and ended at a
    sentinel. A sweep that keeps covering few cells is put back as its
    plain entry. Traced runs read `records`, whose entries widen the plain
    entry with the fields of a StepRecord, and never see a sweep.

    A tape is a bytearray of symbol numbers framed by sentinels, or an
    array('L') for a tape alphabet of 256 symbols or more, which gets no
    sweeps. The compiled form holds no reference to the machine, so caching
    it there makes no cycle.
    """

    def __init__(self, m: Machine, counted_keys: Optional[frozenset[tuple[str, str]]]):
        self.transitions = m.transitions
        self.counted_keys = counted_keys  # None counts every entry
        self.symbols = [BLANK] + sorted(m.tape_alphabet - {BLANK})
        self.edge = edge = len(self.symbols)
        self.width = width = edge + 1
        self.states = list(m.states - {m.accept_state, m.reject_state})
        self.states += [m.accept_state, m.reject_state]
        self.row = dict(zip(self.states, range(0, len(self.states) * width, width)))
        self.code = {s: i for i, s in enumerate(self.symbols)}
        self.start = self.row[m.start_state]
        self.accept = self.row[m.accept_state]
        self.reject = self.row[m.reject_state]
        self.inputs = m.input_alphabet
        size = len(self.states) * width
        self.table: list = [None] * size  # plain entries, sweeps and None
        self.sweeps = edge < 256
        self.tape_type = bytearray if self.sweeps else partial(array, "L")
        # with every symbol in latin-1, a word encodes and translates as
        # bytes; deleting the bytes of the input or tape alphabet (`spelled`)
        # from it leaves the symbols outside that alphabet
        self.latin: Optional[bytes] = None
        if self.sweeps and all(ord(s) < 256 for s in self.symbols):
            codes = bytearray(256)
            for s, i in self.code.items():
                codes[ord(s)] = i
            self.latin = bytes(codes)
            self.spelled = {a: "".join(a).encode("latin-1")
                            for a in (m.input_alphabet, m.tape_alphabet)}
        self.blank = self.tape_type([0])
        self.sentinel = self.tape_type([edge])
        self.right_end = self.blank + self.sentinel
        # per entry, the fields of its StepRecord but the head, then the
        # plain entry; allocated by the first traced run and filled with the
        # table from then on
        self.records: Optional[list] = None

    def _fill(self, entry: int) -> None:
        """Fill the table entry if it is empty, and its record if records
        are kept."""
        q, symbol = divmod(entry, self.width)
        state, read = key = (self.states[q], self.symbols[symbol])
        target, write, move = self.transitions[key]
        counted = self.counted_keys is None or key in self.counted_keys
        plain = (self.row[target], self.code[write], 1 if move == RIGHT else -1, int(counted))
        if self.table[entry] is None:
            self.table[entry] = (self._sweep(state, move, plain)
                                 if target == state and self.sweeps else plain)
        if self.records is not None:
            self.records[entry] = (state, read, write, move, target, counted) + plain

    def _sweep(self, state: str, move: str, plain: tuple) -> "_Sweep":
        """The sweep over every symbol that state loops on, moving move."""
        loop, counted = bytearray(), bytearray()
        writes = bytearray(range(256))
        for code, symbol in enumerate(self.symbols):
            key = (state, symbol)
            target, write, m = self.transitions[key]
            if target == state and m == move:
                loop.append(code)
                writes[code] = self.code[write]
                if self.counted_keys is None or key in self.counted_keys:
                    counted.append(code)
        return _Sweep(plain, bytes(loop),
                      None if writes == bytes(range(256)) else bytes(writes),
                      None if counted == loop else bytes(counted))

    def encode(self, word: str, alphabet: frozenset[str], what: str = "input"):
        """word's cells as symbol numbers; every symbol must be in alphabet."""
        if self.latin is not None:
            try:
                raw = word.encode("latin-1")
            except UnicodeEncodeError:
                pass
            else:
                if not raw.translate(None, self.spelled[alphabet]):
                    return raw.translate(self.latin)
        elif alphabet.issuperset(word):
            return self.tape_type(map(self.code.__getitem__, word))
        bad = next(ch for ch in word if ch not in alphabet)
        raise InvalidInputError(f"symbol {bad!r} not in {what} alphabet")

    def launch(self, cells, head: int, fuel: int, record_trace: bool = False,
               first: int = 0, q: Optional[int] = None) -> RunResult:
        """Run from state row q, the start state by default, on a fresh tape
        that holds the encoded cells from cell first on, blank elsewhere,
        with the head on cell head (at least first).

        The tape is the cells, blanks up to the head, and one blank more,
        between sentinels; most runs halt before it needs to grow."""
        tape = self.tape_type(self.sentinel)
        tape += cells
        tape += self.blank * (head - first - len(cells))
        tape += self.right_end
        return self.execute(tape, head - first + 1, 1 - first,
                            self.start if q is None else q, fuel, record_trace)

    def run(self, word: str, fuel: int, record_trace: bool = False) -> RunResult:
        """Run on word from the start configuration."""
        return self.launch(self.encode(word, self.inputs), 0, fuel, record_trace)

    def execute(self, tape, i: int, origin: int, q: int, fuel: int,
                record_trace: bool = False) -> RunResult:
        """Run from state row q with the head on tape[i], where tape[origin]
        is cell 0, until a halt or fuel total steps. The tape is consumed.

        fuel is checked here, before the loop, whose TypeError handler would
        take a non-integer fuel's TypeError for a table event."""
        fuel = index(fuel)
        if fuel <= 0:
            raise ValueError("fuel must be positive")
        table = self.table
        total = counted = 0
        trace: Optional[list[StepRecord]] = [] if record_trace else None
        while True:
            k = 0
            try:
                if trace is None:
                    for k in range(fuel - total):
                        q, w, d, c = table[q + tape[i]]
                        tape[i] = w
                        i += d
                        counted += c
                else:
                    if self.records is None:
                        self.records = [None] * len(table)
                    records = self.records
                    for k in range(fuel - total):
                        (state, read, write, move, target, is_counted,
                         q, w, d, c) = records[q + tape[i]]
                        tape[i] = w
                        trace.append(StepRecord(state, i - origin, read, write, move,
                                                target, is_counted))
                        i += d
                        counted += c
            except TypeError:  # a halting state, a sentinel, an unfilled entry or a sweep
                total += k
                if q >= self.accept:  # the two halting rows come last
                    break
                if tape[i] != self.edge:
                    entry = q + tape[i]
                    sweep = table[entry]
                    if sweep is None or trace is not None:
                        self._fill(entry)
                        continue
                    i, n, c = sweep.run(tape, i, fuel - total)
                    total += n
                    counted += c
                    if sweep.short():
                        table[entry] = sweep.plain
                    continue
                grow = len(tape)
                if i == 0:
                    tape[:1] = self.sentinel + self.blank * grow
                    i += grow
                    origin += grow
                else:
                    tape[i:] = self.blank * grow + self.sentinel
            else:
                total = fuel
                break
        if q == self.accept:
            verdict = Verdict.ACCEPTED
        elif q == self.reject:
            verdict = Verdict.REJECTED
        else:
            verdict = Verdict.FUEL_EXHAUSTED
        final = Configuration.__new__(Configuration)
        final.state = self.states[q // self.width]
        final.head = i - origin
        final._packed = (self.symbols, tape, origin)
        return RunResult(verdict, total, counted,
                         tuple(trace) if trace is not None else None, final)


def _compile(m: Machine, cost: CostModel) -> _CompiledMachine:
    """m compiled under cost: validated and built on first use, then cached
    on m per CostModel value."""
    cache = require_valid(m)
    compiled = cache.get(cost)
    if compiled is None:
        counted = None if cost == COUNT_ALL else counted_set(m, cost)
        compiled = cache[cost] = _CompiledMachine(m, counted)
    return compiled


def run_configuration(
    m: Machine,
    config: Configuration,
    cost: CostModel,
    fuel: int,
    record_trace: bool = True,
) -> RunResult:
    """Iterate from an arbitrary configuration under a cost model until halt
    or fuel runs out.

    config is updated in place to the final configuration, which the result
    holds. The tape is simulated densely from its lowest to its highest
    stored cell.
    """
    compiled = _compile(m, cost)
    lo = min(min(config.tape, default=0), config.head)
    hi = max(max(config.tape, default=0), config.head)
    cells = [BLANK] * (hi - lo + 1)
    for i, sym in config.tape.items():
        cells[i - lo] = sym
    result = compiled.launch(compiled.encode("".join(cells), m.tape_alphabet, "tape"),
                             config.head, fuel, record_trace, lo, compiled.row[config.state])
    config.state, config.head, config.tape = (result.final.state, result.final.head,
                                              result.final.tape)
    return RunResult(result.verdict, result.total_steps, result.counted_steps,
                     result.trace, config)


def run(m: Machine, input_word: str, cost: CostModel = COUNT_ALL, fuel: int = DEFAULT_FUEL,
        record_trace: bool = True) -> RunResult:
    """Simulate m on input_word under a cost model, bounded by fuel total
    steps. fuel must be a positive integer: a non-integer, a whole float
    included, raises TypeError, and zero or less raises ValueError."""
    return _compile(m, cost).run(input_word, fuel, record_trace)


def all_words(alphabet: Iterable[str], max_len: int, min_len: int = 0) -> Iterator[str]:
    """The words of length min_len to max_len over alphabet, lazily, in
    length-then-lexicographic order."""
    symbols = sorted(alphabet)
    for length in range(min_len, max_len + 1):
        yield from map("".join, product(symbols, repeat=length))
