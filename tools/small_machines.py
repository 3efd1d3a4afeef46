"""Every 2-state, 2-symbol machine against the dict stepper.

The class: working states A and B, accept state H and reject state Z,
tape alphabet {_, 1} and input alphabet {1}. Each of the four entries
(A, _), (A, 1), (B, _) and (B, 1) is one of 16 transitions (a target in
{A, B, H, Z}, a written symbol and a move), so the class holds 16^4 =
65,536 machines. Each one is built afresh, so that it is compiled afresh,
and run at fuel 64 on each of the words ε, 1, 11 and 111 twice:

- traced, through run() under COUNT_ALL, against the dict stepper of
  tests/reference.py: the verdict, the total and counted steps, the
  trace, and the final state, tape and head must agree;
- untraced, through the lean driver (on_words) under FREE_BLIND, on the
  four words as one batch: the verdict and the total and counted steps
  must agree with the same reference run, whose steps count under
  FREE_BLIND when their entry is in the model's counted set;
- untraced, through run() under free-states:A (parse_cost_model's
  syntax): the verdict, the total and counted steps, and the final state,
  tape and head must agree with the same reference run, whose steps count
  when their entry is in that model's counted set.

It then prints what the runs reached of the step loop's paths: the sweeps
built, by the scan that ends their runs ('find' for a sweep with one stop
code, 'mask' for one with several; see tmbench.machine._Sweep), those
that reached their trial run and those put back as plain entries there,
the traced runs whose tape grew at its left and at its right end, and
the traced runs whose fuel ran out inside a sweep's run (the last step
and the next one are the same live sweep's).
Any mismatch is printed with the machine's four entries and the word, and
the tool exits 1. A path count that reads 0 is printed as unreached, and
the tool exits 1 too: a change that stopped the class from reaching one
of the step loop's paths would leave that path unchecked. It exits 0 when
every run agrees and every path is reached.

    python3 tools/small_machines.py

It needs only the standard library and runs in this one process.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FUEL = 64
WORDS = ("", "1", "11", "111")
KEYS = (("A", "_"), ("A", "1"), ("B", "_"), ("B", "1"))
SHOWN = 20  # the most mismatches printed
# the step loop's paths the runs must reach, as their counts are printed
PATHS = ("find sweeps", "mask sweeps", "trials", "put back", "left growths", "right growths",
         "fuel ends in a sweep")


def machines():
    """(name, machine) of every machine of the class, its name its four
    entries as key:action, e.g. 'A_:1RB'."""
    from tmbench import Machine

    actions = list(product("ABHZ", "_1", "LR"))
    for chosen in product(actions, repeat=len(KEYS)):
        t = {key: action for key, action in zip(KEYS, chosen)}
        name = " ".join(f"{q}{s}:{write}{move}{target}"
                        for (q, s), (target, write, move) in t.items())
        yield name, Machine(frozenset("1"), frozenset("_1"), frozenset("ABHZ"), "A", "H", "Z", t)


def live(compiled) -> list:
    """The (row, d) of each of compiled's sweeps whose entry still steps
    into its marker row, i.e. not put back."""
    return [(row, d) for j, (row, d, *_, sweep) in enumerate(compiled.markers)
            if compiled.table[sweep.entry][0] == compiled.marks + j]


def differ(fields: str, got: tuple, want: tuple) -> list[str]:
    """The names, among the space-separated fields that name got's and
    want's places in order, of the places where they differ."""
    return [f for f, g, w in zip(fields.split(), got, want) if g != w]


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from reference import reference
    from tmbench import (COUNT_ALL, FREE_BLIND, Configuration, Verdict, counted_set,
                         parse_cost_model, run)
    from tmbench.machine import _compile, _Sweep

    free_a = parse_cost_model("free-states:A")
    start = time.process_time()
    mismatches, count = [], Counter()
    for name, m in machines():
        blind, counted_a = counted_set(m, FREE_BLIND), counted_set(m, free_a)
        expected = {}
        for word in WORDS:
            config = Configuration("A", dict(enumerate(word)), 0)
            verdict, total, counted, trace, final = reference(m, config, m.transitions, FUEL)
            expected[word] = (word, verdict, total, sum((r.state, r.read) in blind for r in trace))
            result = run(m, word, COUNT_ALL, FUEL, record_trace=True)
            _, tape, origin = result.final.__dict__["_packed"]  # before tape decodes it
            count["left growths"] += origin > 1
            count["right growths"] += len(tape) - origin > len(word) + 2
            got = (result.verdict, result.total_steps, result.counted_steps, result.trace,
                   result.final.state, result.final.tape, result.final.head)
            want = (verdict, total, counted, trace, final.state, final.tape, final.head)
            wrong = differ("verdict total counted trace state tape head", got, want)
            if wrong:
                mismatches.append(f"{name} on {word!r}, traced under COUNT_ALL: {wrong}")
            if verdict is Verdict.FUEL_EXHAUSTED and trace[-1].target == trace[-1].state:
                compiled, last = _compile(m, COUNT_ALL), trace[-1]
                target, _, move = m.transitions[(final.state, final.tape.get(final.head, "_"))]
                sweeping = (compiled.row[last.state], 1 if last.move == "R" else -1)
                count["fuel ends in a sweep"] += (target == final.state and move == last.move
                                                  and sweeping in live(compiled))
            result = run(m, word, free_a, FUEL)
            got = (result.verdict, result.total_steps, result.counted_steps,
                   result.final.state, result.final.tape, result.final.head)
            want = (verdict, total, sum((r.state, r.read) in counted_a for r in trace),
                    final.state, final.tape, final.head)
            wrong = differ("verdict total counted state tape head", got, want)
            if wrong:
                mismatches.append(f"{name} on {word!r}, untraced under free-states:A: {wrong}")
        for outcome in _compile(m, FREE_BLIND).on_words(WORDS, FUEL):
            if outcome != expected[outcome[0]]:
                mismatches.append(f"{name} on {outcome[0]!r}, lean under FREE_BLIND: got "
                                  f"{outcome[1:]}, expected {expected[outcome[0]][1:]}")
        for cost in (COUNT_ALL, FREE_BLIND):
            compiled = _compile(m, cost)
            for _, _, stop, *_, sweep in compiled.markers:
                count["mask sweeps" if stop is None else "find sweeps"] += 1
                count["trials"] += sweep.runs >= _Sweep.TRIAL
            count["put back"] += len(compiled.markers) - len(live(compiled))
        count["machines"] += 1
    for key in ("machines", *PATHS):
        print(f"{count[key]:8d}  {key}")
    print(f"{len(mismatches):8d}  mismatches, in {time.process_time() - start:.1f} s of CPU time")
    for line in mismatches[:SHOWN]:
        print(f"mismatch: {line}", file=sys.stderr)
    unreached = [key for key in PATHS if not count[key]]
    for key in unreached:
        print(f"unreached: no run reached the path counted as {key!r}", file=sys.stderr)
    return 1 if mismatches or unreached else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
