"""Nondeterminism via checking relations: a deterministic checker machine
runs on (input, certificate) pairs and the decision procedure searches all
certificates within a length bound, in the order of machine.all_words.

Two certificate deliveries:
  inline     — tape holds x '#' y, head at cell 0;
  positioned — tape holds x alone, head starts at the cell whose index is the
               base-2 value of y (empty y = cell 0). This models constant-cost
               array indexing: the seek is paid by the convention, not by steps.

x must be a word over the checker's input alphabet. Inline certificates are
written on the tape, so their alphabet must hold tape symbols other than
the blank and '#'; CheckingRelation refuses any other.

The search encodes x once and hands each certificate's cells and head cell
to the compiled checker's `launch`, which alone lays out the tape; `deliver`
is the dict reference it is tested against. One rule bounds the certificate
length: decide_nc is decide_nt with the identity transform. The admitted
lengths are walked upward with a running count of their certificates, and
a bound that admits more than the budget raises CertificateBudgetError; an
infinite one over a non-empty alphabet raises before any walk.
"""

from __future__ import annotations

import math
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
    certificate_alphabet: frozenset[str] = frozenset({"0", "1"})

    def __post_init__(self):
        if self.delivery not in DELIVERIES:
            raise ValueError(f"unknown delivery {self.delivery!r}")
        if self.delivery == DELIVERY_INLINE:
            if SEPARATOR not in self.checker.tape_alphabet:
                raise ValueError("inline delivery requires '#' in the checker tape alphabet")
            if SEPARATOR in self.checker.input_alphabet:
                raise ValueError("'#' must not be an input symbol")
            writable = self.checker.tape_alphabet - {BLANK, SEPARATOR}
            if not self.certificate_alphabet <= writable:
                raise ValueError(
                    f"certificate symbols {sorted(self.certificate_alphabet - writable)} "
                    f"are not tape symbols other than '{BLANK}' and '{SEPARATOR}'")
        else:
            if self.certificate_alphabet != frozenset({"0", "1"}):
                raise ValueError("positioned delivery requires certificates over {0,1}")


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


def _max_length(rel: CheckingRelation, g: MeasureFunction, transform: MeasureFunction,
                x: str, budget: int) -> int:
    """The longest admitted certificate length: 0, which lies within any
    positive bound, and each length l >= 1 with
    T(l) <= g(T(max(|x|,1))) + eps. T is strictly increasing, so the
    admitted lengths are 0, 1, ..., the result. A running count of the
    certificates they admit raises CertificateBudgetError as soon as it
    passes budget; an infinite bound over a non-empty alphabet raises at
    once."""
    rhs = compose(g, transform, max(len(x), 1)) + EPS
    size = len(rel.certificate_alphabet)
    max_len, count = 0, 1
    while count <= budget and not (size and rhs == math.inf):
        # over an empty alphabet no length past 0 adds a certificate
        if not size or evaluate(transform, max_len + 1) > rhs:
            return max_len
        max_len += 1
        count += size ** max_len
    raise CertificateBudgetError(
        f"the length bound admits more certificates than the budget {budget}")


def _search(rel: CheckingRelation, max_len: int, x: str, cost: CostModel, fuel: int
            ) -> CertificateSearchReport:
    checker = _compile(rel.checker, cost)
    # x is encoded once, over the input alphabet; each certificate gets one
    # fresh tape laid out as deliver() would: x#y with the head on x, or x
    # with the head on the cell that y numbers
    symbols = rel.checker.tape_alphabet
    cells = checker.encode(x, checker.inputs)
    inline = rel.delivery == DELIVERY_INLINE
    if inline:
        cells += checker.encode(SEPARATOR, symbols, "tape")
    tried = 0
    max_counted = 0
    witness = None
    for y in all_words(rel.certificate_alphabet, max_len):
        tried += 1
        if inline:
            result = checker.launch(cells + checker.encode(y, symbols, "tape"), 0, fuel)
        else:
            result = checker.launch(cells, int(y, 2) if y else 0, fuel)
        max_counted = max(max_counted, result.counted_steps)
        if result.verdict is Verdict.ACCEPTED:
            witness = y
            break
    return CertificateSearchReport(
        accepted=witness is not None,
        witness=witness,
        certificates_tried=tried,
        max_checker_counted_steps=max_counted,
    )


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
    return _search(rel, _max_length(rel, g, IDENTITY, x, budget), x, cost, fuel)


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
    return _search(rel, _max_length(rel, g, transform, x, budget), x, cost, fuel)


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
