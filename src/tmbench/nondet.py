"""Nondeterminism via checking relations: a deterministic checker machine
runs on (input, certificate) pairs and the decision procedure searches all
certificates within a length bound, in the order of machine.all_words.

Two certificate deliveries:
  inline     — tape holds x '#' y, head at cell 0;
  positioned — tape holds x alone, head starts at the cell whose index is the
               base-2 value of y (empty y = cell 0). This models constant-cost
               array indexing: the seek is paid by the convention, not by steps.

Certificates are words over {0,1}, as in the standard verifier
definition of NP. x must be a word over the checker's input alphabet.
Inline certificates are written on the tape, so an inline checker's tape
alphabet must hold '0', '1' and '#'; CheckingRelation refuses any other.

The search encodes x once and runs the compiled checker through its lean
batch driver, `outcomes`, which lays out each tape as the dict reference
`deliver` does and yields only the run's Verdict and its total and counted
steps, lazily, so a search stops at its first witness. Each run comes back
with the label its start carried: the inline search labels each start with
its certificate, the positioned search with its head cell. The inline
search runs every certificate. Neither search fills the checker's table
first: a search that finds an early witness uses few of its entries. A
positioned run depends only on its head cell, and y and 0y name the same
cell, so the positioned search meets the cells in the numeric order in
which the canonical walk first meets them; its report is that walk's. A
run of k steps reads only cells within k - 1 of its start, so the search
memoizes outcomes by that window while the radius stays, and ends at the
first window wholly past x. A window equal to the last cell's lies with it
in a run of one symbol of x, and so do the windows of the cells after it
up to the first that leaves the run: the search goes there in one step.

One rule bounds the certificate length: decide_nc is decide_nt with the
identity transform. The admitted lengths are walked upward with a running
count of their certificates, and a bound that admits more than the budget
raises CertificateBudgetError; an infinite one raises before any walk.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Optional

from tmbench.cost import CostModel, COUNT_ALL
from tmbench.machine import (
    BLANK,
    DEFAULT_FUEL,
    RIGHT,
    Configuration,
    Machine,
    Verdict,
    _compile,
    all_words,
)
from tmbench.measures import EPS, IDENTITY, MeasureFunction, compose, evaluate

SEPARATOR = "#"

DELIVERY_INLINE = "inline"
DELIVERY_POSITIONED = "positioned"
DELIVERIES = (DELIVERY_INLINE, DELIVERY_POSITIONED)

DEFAULT_CERTIFICATE_BUDGET = 2 ** 20


class CertificateBudgetError(RuntimeError):
    """The certificate length bound admits more candidates than the budget."""


@dataclass(frozen=True)
class CheckingRelation:
    checker: Machine
    delivery: str

    def __post_init__(self):
        if self.delivery not in DELIVERIES:
            raise ValueError(f"unknown delivery {self.delivery!r}")
        if self.delivery == DELIVERY_INLINE:
            if SEPARATOR not in self.checker.tape_alphabet:
                raise ValueError("inline delivery requires '#' in the checker tape alphabet")
            if SEPARATOR in self.checker.input_alphabet:
                raise ValueError("'#' must not be an input symbol")
            if not {"0", "1"} <= self.checker.tape_alphabet:
                raise ValueError(
                    "inline delivery requires '0' and '1' in the checker tape alphabet")


@dataclass(frozen=True)
class CertificateSearchReport:
    accepted: bool
    witness: Optional[str]
    certificates_tried: int
    max_checker_counted_steps: int


def deliver(rel: CheckingRelation, x: str, y: str) -> Configuration:
    """Initial checker configuration for the pair (x, y).

    The search lays out the same tape directly in compiled form; this is the
    reference it is tested against."""
    m = rel.checker
    if rel.delivery == DELIVERY_INLINE:
        word = x + SEPARATOR + y
        tape = {i: ch for i, ch in enumerate(word) if ch != BLANK}
        return Configuration(state=m.start_state, tape=tape, head=0)
    position = int(y, 2) if y else 0
    tape = {i: ch for i, ch in enumerate(x)}
    return Configuration(state=m.start_state, tape=tape, head=position)


def _max_length(g: MeasureFunction, transform: MeasureFunction, x: str, budget: int) -> int:
    """The longest admitted certificate length: 0, which lies within any
    positive bound, and each length l >= 1 with
    T(l) <= g(T(max(|x|,1))) + eps. T is strictly increasing, so the
    admitted lengths are 0, 1, ..., the result. A running count of the
    certificates they admit raises CertificateBudgetError as soon as it
    passes budget; an infinite bound raises at once."""
    rhs = compose(g, transform, max(len(x), 1)) + EPS
    max_len, count = 0, 1
    while count <= budget and rhs != math.inf:
        if evaluate(transform, max_len + 1) > rhs:
            return max_len
        max_len += 1
        count += 2 ** max_len
    raise CertificateBudgetError(
        f"the length bound admits more certificates than the budget {budget}")


@functools.cache
def _run_of(code: int) -> re.Pattern:
    """A run of the cell code, matched by a literal one-byte repeat;
    compiled once per code, so at most 256 are kept."""
    return re.compile(re.escape(bytes([code])) + b"+")


def _search(rel: CheckingRelation, max_len: int, x: str, cost: CostModel, fuel: int
            ) -> CertificateSearchReport:
    checker = _compile(rel.checker, cost)
    cells = checker.encode(x, checker.inputs)  # once per search
    accepted = Verdict.ACCEPTED
    most = 0
    if rel.delivery == DELIVERY_POSITIONED:
        # the cells within r of c as bytes, blanks past x; paired with the
        # first cell when that lies left of cell 0
        def window(c: int, r: int):
            lo = c - r
            return cells[lo:c + r + 1] if lo >= 0 else (lo, cells[:c + r + 1])

        # the driver runs each missed cell as the loop appends its start,
        # labelled with the cell
        missed: list = []
        runs = checker.outcomes(iter(missed.pop, None), fuel)
        # the memo holds outcomes of one radius, the latest run's, each
        # labelled with the cell where its window first ran; a run that
        # changes it empties the memo and is not kept, so a cell met costs at
        # most one slice, and none while the radius changes on every run
        memo: dict = {}
        radius = None  # until the first run
        c, stop, last = 0, 2 ** max_len, None
        while c < stop:
            key = window(c, radius) if memo else None
            outcome = memo.get(key)
            if outcome is None:
                missed.append((c, cells, c))
                outcome = next(runs)
                most = max(most, outcome[3])
                new = outcome[2] - 1  # a run of k steps reads within k - 1
                if radius is None or new == radius:
                    memo[window(c, new) if key is None else key] = outcome
                else:
                    memo.clear()
                radius = new
            elif key == last:
                # the last cell's window moved one cell right reads the same,
                # so both lie in a run of one symbol, as do the windows of the
                # cells up to the first whose window leaves it: go there
                c = _run_of(key[0]).match(cells, c - radius).end() - radius
                continue
            if outcome[1] is accepted:
                # the canonical walk first meets cell c as c in binary, l digits
                # long, after the 2^l + c - 1 certificates that name cells 0..c-1
                return CertificateSearchReport(True, format(c, "b") if c else "",
                                               2 ** c.bit_length() + c, most)
            if c - radius >= len(cells):
                break  # every later cell's window is this one: all blanks
            last = key
            c += 1
        return CertificateSearchReport(False, None, 2 ** (max_len + 1) - 1, most)
    # inline: each certificate gets a fresh tape x#y with the head on x
    symbols = rel.checker.tape_alphabet
    cells += checker.encode(SEPARATOR, symbols)
    starts = ((y, cells + checker.encode(y, symbols), 0) for y in all_words("01", max_len))
    # the empty certificate comes first, so the loop runs at least once
    for tried, (y, verdict, _, counted) in enumerate(checker.outcomes(starts, fuel), 1):
        most = max(most, counted)
        if verdict is accepted:
            return CertificateSearchReport(True, y, tried, most)
    return CertificateSearchReport(False, None, tried, most)


def decide_nc(
    rel: CheckingRelation,
    g: MeasureFunction,
    x: str,
    cost: CostModel = COUNT_ALL,
    fuel: int = DEFAULT_FUEL,
    budget: int = DEFAULT_CERTIFICATE_BUDGET,
) -> CertificateSearchReport:
    """Membership by exhaustive certificate search: accept iff some y with
    |y| <= g(|x|) makes the checker accept (empty x is bounded at length 1).

    The witness is the first accepting certificate in canonical
    length-then-lexicographic order; acceptance itself is order-free.
    """
    return _search(rel, _max_length(g, IDENTITY, x, budget), x, cost, fuel)


def decide_nt(
    rel: CheckingRelation,
    g: MeasureFunction,
    transform: MeasureFunction,
    x: str,
    cost: CostModel = COUNT_ALL,
    fuel: int = DEFAULT_FUEL,
    budget: int = DEFAULT_CERTIFICATE_BUDGET,
) -> CertificateSearchReport:
    """Transformed search: the empty certificate, which lies within any
    positive bound, and the certificates of length |y| >= 1 with
    T(|y|) <= g(T(max(|x|,1))) + eps."""
    return _search(rel, _max_length(g, transform, x, budget), x, cost, fuel)


def build_demo_machines() -> tuple[Machine, CheckingRelation]:
    """The two deciders of the contains-a-1 language, which differ only in
    the start state's name and its entry for '0'.

    The scanner reads left to right, accepts on the first '1' and rejects
    when it falls off the right end: its worst case reads every cell. The
    checker accepts iff the scanned cell holds '1': with positioned delivery
    its counted work is constant in the input length.
    """
    scanner, checker = (
        Machine(
            input_alphabet=frozenset({"0", "1"}),
            tape_alphabet=frozenset({"0", "1", BLANK}),
            states=frozenset({start, "q_accept", "q_reject"}),
            start_state=start,
            accept_state="q_accept",
            reject_state="q_reject",
            # every entry writes back the symbol it reads and moves right
            transitions={(start, sym): (target, sym, RIGHT) for sym, target in
                         (("0", on_zero), ("1", "q_accept"), (BLANK, "q_reject"))},
        )
        for start, on_zero in (("q_scan", "q_scan"), ("q_check", "q_reject")))
    return scanner, CheckingRelation(checker=checker, delivery=DELIVERY_POSITIONED)
