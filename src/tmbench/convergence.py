"""Lookup-trie machine synthesis and language-sequence convergence.

A language L over {0,1} is its membership predicate, a callable that
takes a word and answers by its truth: a built-in is its entry in
BUILTIN_LANGUAGES, and finite_language gives a finite one.

For a language L and a depth bound n, the trie machine has one
state per bit-string prefix of length <= n. It consumes the input left to
right, descending the trie one state per symbol; reading blank triggers a
membership lookup baked in at construction time. The machine accepts exactly
the words of L with length <= n, in |w| + 1 steps; longer words are rejected
on the (n+1)-th symbol.

A built trie is L's answers, one byte per prefix in heap order
(all_words order: prefix h's children are 2h+1 and 2h+2). The answer of
prefix p sits at heap index int("1" + p, 2) - 1, and the depth-n trie's
answers are the first 2^(n+1) - 1 of any deeper trie's. Every reader
indexes the answers so, and none copies them into a dict keyed by word.
Each view of a trie is computed from them when it is needed, and only
then: the integer table that verification and convergence run
(_trie_table), the listing that gen-trie writes in sorted order, which
is the trie's preorder (TrieMachineReport.listing), and the Machine with
its transitions dict, for a caller that reads `machine`.

The trie sequence converges to L on the words of length <= k from some
index n_k on. find_convergence_index finds it from one build, the
depth-k trie, by running the tables of its heap prefixes from depth k
downward and stopping at the first that disagrees, so a language that
only the depth-k trie decides costs two tables, not k + 1.

verify_trie is the one verification entry point: one pass gives both the
words on which the trie misses L and whether every run took its step
count. verify_restriction and verify_step_count, which read one half each,
are not exported: the benchmark's tracer wraps them by name, and they stay
here, called only by it and the tests, until it wraps verify_trie instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from operator import index
from typing import Callable, Optional

from tmbench.machine import (BLANK, RIGHT, Machine, Verdict, _CompiledMachine, _mark_valid,
                             all_words)
from tmbench.textfmt import Listing

MAX_TRIE_DEPTH = 20
MAX_CONVERGENCE_K = 12
LONG_WORD_SAMPLE = 256
LONG_WORD_SEED = 20260823


class TrieSizeError(ValueError):
    """Requested depth would exceed the state-table budget."""


def _contains_1(w: str) -> bool:
    return "1" in w


def _parity_even_ones(w: str) -> bool:
    return w.count("1") % 2 == 0


def _palindrome(w: str) -> bool:
    return w == w[::-1]


def _div3(w: str) -> bool:
    # the empty word reads as the numeral 0, which is divisible
    return int(w, 2) % 3 == 0 if w else True


BUILTIN_LANGUAGES: dict[str, Callable[[str], bool]] = {
    "contains-1": _contains_1,
    "parity-even-ones": _parity_even_ones,
    "palindrome": _palindrome,
    "all": lambda w: True,
    "empty": lambda w: False,
    "div3": _div3,
}


def finite_language(words) -> Callable[[str], bool]:
    """The finite language of words, as its membership predicate. words is
    any collection of words over {0,1}, but not a string, which would be
    read as the set of its letters."""
    if isinstance(words, str):
        raise TypeError("words must be a collection of words, not a string")
    ws = frozenset(words)
    for w in ws:
        if any(ch not in "01" for ch in w):
            raise ValueError(f"word {w!r} is not over {{0,1}}")
    return ws.__contains__


@dataclass(frozen=True)
class TrieMachineReport:
    """A depth-n trie machine as its language's answers, one byte per prefix
    in heap order (see build_trie_machine): the depth an integer, and the
    answers bytes, each 0 or 1. Two reports are equal, and hash alike, when
    their depths and answers are.

    Every view is computed from the answers, read by heap index (prefix
    p's answer is answers[int("1" + p, 2) - 1]): verification runs the
    table they give (_trie_table), gen-trie writes their listing, and
    `machine`, with its transitions dict, is built from that listing only
    when it is first read. The answers[:2^(m+1) - 1] of a depth-n report
    are the depth-m trie's, for m <= n."""

    n: int
    answers: bytes = field(repr=False)

    def __post_init__(self):
        if not isinstance(self.answers, bytes):
            raise TypeError(f"answers must be bytes, not {type(self.answers).__name__}")
        # index() raises TypeError for a depth that is not an integer
        if (index(self.n) < 0 or len(self.answers) != 2 ** (self.n + 1) - 1
                or self.answers.translate(None, b"\x00\x01")):
            raise ValueError(f"depth {self.n} with {len(self.answers)} answers: a trie needs "
                             "depth >= 0 and 2^(depth+1) - 1 answers, each 0 or 1")

    @property
    def oracle_queries(self) -> int:
        return len(self.answers)

    @property
    def state_count(self) -> int:
        return len(self.answers) + 2

    @cached_property
    def machine(self) -> Machine:
        states, start, accept, reject, inputs, tape, rows = self.listing()
        machine = Machine(*map(frozenset, (inputs, tape, states)), start, accept, reject,
                          dict(rows))
        # total over {0,1,_} for every non-halting state by construction, so
        # running or verifying it skips validate_machine
        _mark_valid(machine)
        return machine

    def listing(self) -> Listing:
        """The built machine as its file lists it, with no sort and no
        transitions dict. The state for a prefix is named after it ("q_"
        is the empty prefix and the start state), which keeps words with
        leading zeros distinct, so sorted names list the prefixes in
        preorder, then the halting states. The names are the one list
        kept; each state's transitions on 0, 1 and blank follow in that
        order, generated once, as they are read, and its blank goes to
        accept or reject by the answer at its prefix's heap index.
        Consumed symbols are overwritten with blank, and the bits of the
        depth-n prefixes go to reject."""
        answers, n, accept, reject = self.answers, self.n, "q_accept", "q_reject"
        # the names in preorder at depth n: the empty prefix, then the
        # preorder of depth n - 1 under 0, then under 1
        names = ["q_"]
        for _ in range(n):
            names = ["q_"] + ["q_0" + q[2:] for q in names] + ["q_1" + q[2:] for q in names]

        def rows():
            for q in names:
                zero, one = (q + "0", q + "1") if len(q) < n + 2 else (reject, reject)
                yield (q, "0"), (zero, BLANK, RIGHT)
                yield (q, "1"), (one, BLANK, RIGHT)
                # the answer of prefix p sits at heap index int("1" + p, 2) - 1
                member = answers[int("1" + q[2:], 2) - 1]
                yield (q, BLANK), (accept if member else reject, BLANK, RIGHT)
        return Listing(names + [accept, reject], "q_", accept, reject, "01", "01" + BLANK, rows())


@dataclass(frozen=True)
class ConvergenceReport:
    k: int
    n_k: Optional[int]
    verified_words: int


def build_trie_machine(L: Callable[[str], bool], n: int) -> TrieMachineReport:
    """The depth-n trie machine of the language L, as a report that holds L's
    answers and builds the machine from them on first read (see
    TrieMachineReport). L is asked once per prefix, in all_words order, and
    its answer read by its truth. A negative n asks L nothing and is
    refused by the report."""
    if n > MAX_TRIE_DEPTH:
        raise TrieSizeError(f"depth {n} needs 2^{n + 1}+1 states, "
                            f"over the budget (max depth {MAX_TRIE_DEPTH})")
    return TrieMachineReport(n, bytes(map(bool, map(L, all_words("01", n)))))


def _trie_table(report: TrieMachineReport) -> _CompiledMachine:
    """report's machine compiled under COUNT_ALL with every entry filled,
    straight from its answers. In all_words order the prefixes form a
    heap: prefix h's children are 2h+1 and 2h+2, and the depth-n prefixes
    come last. With the symbols numbered blank, 0, 1, prefix h is row 4h,
    its bit b moves to row 4(2h+1+b), or to reject past the last prefix,
    and blank to accept or reject by h's answer; accept and reject are the
    rows after the last prefix's.
    """
    answers = report.answers
    accept, reject = (4 * len(answers), 0, 1, 1), (4 * len(answers) + 4, 0, 1, 1)
    # the moves into every row but the root's, then the depth cap's rejections
    moves = [(row, 0, 1, 1) for row in range(4, accept[0], 4)] + [reject] * (len(answers) + 1)
    lookups = [accept if member else reject for member in answers]
    table = list(chain.from_iterable(zip(lookups, moves[0::2], moves[1::2], repeat(None))))
    return _CompiledMachine.from_columns([BLANK, "0", "1"], frozenset("01"), table)


def _long_word_sample(n: int) -> list[str]:
    """Words of length n+1 to probe past the depth cap: exhaustive for small
    n, a fixed-seed sample above."""
    if n <= 10:
        return list(all_words("01", n + 1, n + 1))
    rng = random.Random(LONG_WORD_SEED)
    return ["".join(rng.choice("01") for _ in range(n + 1))
            for _ in range(LONG_WORD_SAMPLE)]


def verify_trie(report: TrieMachineReport, L: Optional[Callable[[str], bool]] = None
                ) -> tuple[list[str], bool]:
    """Run the machine once on every word up to length n and on the sampled
    words of length n+1. Returns the words on which it does not halt with
    L's verdict (the longer ones must be rejected; none are looked for when
    L is None) and whether every run took min(|w|, n) + 1 steps."""
    trie, n = _trie_table(report), report.n
    accepted, rejected = Verdict.ACCEPTED, Verdict.REJECTED
    counterexamples, steps_ok = [], True
    for word, verdict, total, _ in trie.on_words(
            chain(all_words("01", n), _long_word_sample(n)), n + 4):
        if L is not None and verdict is not (accepted if len(word) <= n and L(word) else rejected):
            counterexamples.append(word)
        steps_ok = steps_ok and total == min(len(word), n) + 1
    return counterexamples, steps_ok


# bench/tracer.py wraps this by name; it goes with ROADMAP item 1(a)
def verify_restriction(report: TrieMachineReport, L: Callable[[str], bool]
                       ) -> tuple[bool, list[str]]:
    """Exhaustively check that the machine accepts exactly the words of L
    up to length n, and rejects the sampled words of length n+1."""
    counterexamples = verify_trie(report, L)[0]
    return not counterexamples, counterexamples


# bench/tracer.py wraps this by name; it goes with ROADMAP item 1(a)
def verify_step_count(report: TrieMachineReport) -> bool:
    """Check |w| + 1 total steps for words within the depth bound, and n + 1
    for the sampled longer words (n consumptions to full depth, then the
    capped transition rejects on the (n+1)-th symbol)."""
    return verify_trie(report)[1]


def find_convergence_index(L: Callable[[str], bool], k: int, budget: int) -> ConvergenceReport:
    """Least sequence index n_k from which every trie machine agrees with L
    on all words of length <= k.

    The tries are run from n = k down to 0, and the walk stops at the first
    one that disagrees: n_k is the last trie that agreed, or None when the
    depth-k trie already disagrees. Beyond k no run is needed: the depth-n
    trie decides words of length <= k exactly as L whenever n >= k.

    L is asked once, through build_trie_machine(L, k): once per word of
    length <= k, in all_words order, each answer read by its truth. Each
    trie of the walk is the depth-n heap prefix of those answers, run as
    its table, and its verdicts are checked against the same answers, so
    L is never asked again. The depth-k trie thus holds the very answers
    it is checked against, and None means a defect: a trie that disagrees
    with the answers it was cut from.
    """
    if k < 0 or k > MAX_CONVERGENCE_K:
        raise ValueError(f"k must be in 0..{MAX_CONVERGENCE_K}")
    if budget < k:
        raise ValueError("budget must be at least k")
    answers = build_trie_machine(L, k).answers
    words = list(all_words("01", k))
    n_k: Optional[int] = None
    for n in range(k, -1, -1):
        trie = _trie_table(TrieMachineReport(n, answers[:2 ** (n + 1) - 1]))
        if any((verdict is Verdict.ACCEPTED) != member
               for (_, verdict, _, _), member in zip(trie.on_words(words, n + 4), answers)):
            break
        n_k = n
    return ConvergenceReport(k=k, n_k=n_k, verified_words=len(words))
