"""Independent correctness references for the benchmark.

Nothing here imports tmbench. Each function recomputes, from the machine
tables and words the benchmark generated, what a correct tmbench must
return: a small stepper of its own for arbitrary machines, and closed forms
where the answer is known (scanner, trie machines, busy-beaver champions,
the positioned checker). References run outside every timed region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

BLANK = "_"
# slack in tmbench's integer step comparison against a float bound
EPS = 1e-9

# published step counts (including the halting transition)
BUSY_BEAVER_STEPS = {"bb2": 6, "bb3": 21, "bb4": 107}


@dataclass(frozen=True)
class Outcome:
    verdict: str  # "accepted" | "rejected" | "fuel-exhausted"
    total_steps: int
    hits: dict  # (state, read symbol) -> times that entry fired


def simulate(machine, word: str, fuel: int) -> Outcome:
    """Run a tmbench Machine's table on word with a two-way growing tape."""
    symbols = sorted(machine.tape_alphabet)
    sym_id = {s: i for i, s in enumerate(symbols)}
    states = sorted(machine.states)
    state_id = {q: i for i, q in enumerate(states)}
    width = len(symbols)
    table = [None] * (len(states) * width)
    for (q, s), (target, write, move) in machine.transitions.items():
        table[state_id[q] * width + sym_id[s]] = (
            state_id[target] * width, sym_id[write], 1 if move == "R" else -1)
    hits = [0] * len(table)
    blank = sym_id[BLANK]
    tape = bytearray(sym_id[c] for c in word) or bytearray([blank])
    pos = 0
    row = state_id[machine.start_state] * width
    halts = (state_id[machine.accept_state] * width, state_id[machine.reject_state] * width)
    steps = 0
    while steps < fuel and row not in halts:
        entry = row + tape[pos]
        hits[entry] += 1
        row, tape[pos], move = table[entry]
        pos += move
        if pos < 0:
            grow = len(tape)
            tape[:0] = bytes([blank]) * grow
            pos += grow
        elif pos == len(tape):
            tape.extend(bytes([blank]) * len(tape))
        steps += 1
    if row == halts[0]:
        verdict = "accepted"
    elif row == halts[1]:
        verdict = "rejected"
    else:
        verdict = "fuel-exhausted"
    named = {(states[i // width], symbols[i % width]): n for i, n in enumerate(hits) if n}
    return Outcome(verdict, steps, named)


def blind_states(machine) -> set:
    """States that only move the head: one target and direction for every
    symbol, each symbol written back unchanged."""
    out = set()
    for q in machine.states - {machine.accept_state, machine.reject_state}:
        moves = {(machine.transitions[(q, s)][0], machine.transitions[(q, s)][2])
                 for s in machine.tape_alphabet}
        if len(moves) == 1 and all(machine.transitions[(q, s)][1] == s
                                   for s in machine.tape_alphabet):
            out.add(q)
    return out


def counted_steps(machine, hits: dict, cost: str) -> int:
    """Counted steps under a cost model given in the CLI syntax."""
    if cost == "count-all":
        free = set()
    elif cost == "free-blind":
        free = blind_states(machine)
    elif cost.startswith("free-states:"):
        free = set(cost[len("free-states:"):].split(","))
    else:
        raise ValueError(f"unknown cost model {cost!r}")
    return sum(n for (q, _), n in hits.items() if q not in free)


# --- languages over {0,1}, written independently of tmbench's built-ins ---

LANGUAGES = {
    "contains-1": lambda w: any(c == "1" for c in w),
    "parity-even-ones": lambda w: sum(c == "1" for c in w) % 2 == 0,
    "palindrome": lambda w: all(w[i] == w[-1 - i] for i in range(len(w) // 2)),
    "all": lambda w: True,
    "empty": lambda w: False,
    "div3": lambda w: sum(int(c) << i for i, c in enumerate(reversed(w))) % 3 == 0,
}


def words_up_to(max_len: int):
    """All words over {0,1} of length <= max_len, length then lexicographic."""
    for length in range(max_len + 1):
        for bits in product("01", repeat=length):
            yield "".join(bits)


def trie_steps(word: str, depth: int) -> int:
    """A depth-n trie machine takes |w|+1 steps, or n+1 past the depth cap."""
    return min(len(word), depth) + 1


def trie_verdict(member, word: str, depth: int) -> str:
    return "accepted" if len(word) <= depth and member(word) else "rejected"


def trie_state_count(depth: int) -> int:
    return 2 ** (depth + 1) - 1 + 2


def verify_trie_work(depth: int) -> tuple[int, int]:
    """(words run, steps) of verify-trie: both verifiers run every word of
    length <= n and a sample of words of length n+1 (all of them up to
    n=10, else 256)."""
    short = 2 ** (depth + 1) - 1
    short_steps = sum(2 ** l * (l + 1) for l in range(depth + 1))
    long_words = 2 ** (depth + 1) if depth <= 10 else 256
    return 2 * (short + long_words), 2 * (short_steps + long_words * (depth + 1))


def converge_reference(member, k: int, budget: int) -> tuple[int, int, int]:
    """(n_k, words run, steps) of the convergence search over tries 0..min(budget,k).

    Trie n disagrees with L exactly on the words w in L with n < |w| <= k, and
    the search stops each trie at its first disagreeing word.
    """
    words = list(words_up_to(k))
    members = [member(w) for w in words]
    n_k = max((len(w) for w, m in zip(words, members) if m), default=0)
    runs = steps = 0
    for n in range(min(budget, k) + 1):
        for w, m in zip(words, members):
            runs += 1
            steps += trie_steps(w, n)
            if m and len(w) > n:
                break
    return n_k, runs, steps


# --- measure functions and bounds (tmbench's documented formulas) ---

def measure(spec: str, x: float) -> float:
    family, _, args = spec.partition(":")
    p = {"a": 1.0, "b": 0.0, "k": 1.0}
    for item in filter(None, args.split(",")):
        name, _, value = item.partition("=")
        p[name] = float(value)
    if family == "identity":
        return float(x)
    if family == "linear":
        return p["a"] * x + p["b"]
    if family == "log":
        return p["a"] * math.log2(x + 1.0) + p["b"]
    if family == "power":
        return p["a"] * x ** p["k"]
    if family == "exp2":
        return p["a"] * 2.0 ** x
    raise ValueError(f"unknown measure {spec!r}")


def bound(g: str, mode: str, transform, length: int) -> float:
    x = max(length, 1)
    if mode == "plain":
        return measure(g, x)
    if mode == "outer":
        return measure(g, measure(transform, x))
    return measure(transform, measure(g, x))


def within(counted: int, limit: float) -> bool:
    return counted <= math.floor(limit + EPS)


def scanner_steps(word: str) -> int:
    """The contains-a-1 scanner stops on the first '1' or on the blank after w."""
    first = word.find("1")
    return (first if first >= 0 else len(word)) + 1


# --- certificate search with the positioned checker ---

def admitted_lengths(g: str, transform, x_len: int) -> list[int]:
    """Certificate lengths admitted by decide_nc (transform None) or decide_nt."""
    if transform is None:
        return list(range(math.floor(measure(g, max(x_len, 1)) + EPS) + 1))
    rhs = measure(g, measure(transform, max(x_len, 1))) + EPS
    out = []
    while measure(transform, max(len(out), 1)) <= rhs:
        out.append(len(out))
    return out


def positioned_search(x: str, lengths: list[int]) -> tuple[bool, str | None, int]:
    """(accepted, witness, certificates tried) when x holds a single '1' at p.

    Certificate y puts the head on cell int(y, 2), so the first accepting
    certificate in length-then-lexicographic order is the shortest binary
    numeral of p ("" for p = 0); before it come every shorter certificate and
    the p numerals of its length that sort below it.
    """
    p = x.index("1")
    width = p.bit_length()
    if width in lengths:
        witness = format(p, "b") if p else ""
        before = sum(2 ** l for l in lengths if l < width)
        return True, witness, before + p + 1
    return False, None, sum(2 ** l for l in lengths)


def inline_search(x: str, lengths: list[int]) -> tuple[bool, str | None, int, int, int]:
    """(accepted, witness, certificates tried, most steps, all steps) for the
    inline checker that scans x#y left to right and accepts on the first '1'."""
    if "1" in x:
        steps = x.index("1") + 1
        return True, "", 1, steps, steps
    # "" and "0" fall off the end (|x|+2 and |x|+3 steps), "1" accepts in |x|+2
    n = len(x)
    if max(lengths) >= 1:
        return True, "1", 3, n + 3, 3 * n + 7
    return False, None, 1, n + 2, n + 2
