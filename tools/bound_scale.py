"""CPU time of check_bound against the runs it makes.

Prints the best-of-five CPU time (process time, which other processes on a
shared machine disturb less than wall time) of check_bound with the demo
scanner on 80 words of lengths 1 to 48, under 9 bounds: each of the
measures log:a=1,b=1, linear:a=1,b=1 and power:a=1,k=2 as g, in plain mode
and in outer and inner mode with the transform log:a=1,b=1. The words
are 0^n for n = 33..48 and, for n = 1..32, two words of length n with a
single 1 at a seeded position p and at n-1-p.

Next to it, it prints the best-of-five time of the same 720 runs alone,
through the compiled machine's lean driver (on_words, which reads the
words once and yields each word with its verdict, total and counted
steps, as check_bound reads them), and the difference per word: the work
check_bound does beyond running the machine. The two
are timed in turn, round by round, so that both see the same load. Beside
each time it prints the job's Python work per word, in opcodes and calls
(measure.work): counts that repeat exactly whatever the load, though work
done in C counts no opcodes.

    python3 tools/bound_scale.py        # seed 1
    python3 tools/bound_scale.py 7      # the seed given

Everything runs in this one process.
"""

from __future__ import annotations

import random
import sys

from measure import SRC, best_of, work

LOG = "log:a=1,b=1"


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    from tmbench import COUNT_ALL, BoundSpec, build_demo_machines, check_bound, parse_measure
    from tmbench.machine import DEFAULT_FUEL, _compile

    rng = random.Random(int(argv[0]) if argv else 1)
    words = ["0" * n for n in range(33, 49)]
    for n in range(1, 33):
        p = rng.randrange(n)
        words += ["0" * p + "1" + "0" * (n - 1 - p), "0" * (n - 1 - p) + "1" + "0" * p]
    rng.shuffle(words)
    specs = [BoundSpec(g=parse_measure(g), mode=mode,
                       transform=parse_measure(LOG) if mode != "plain" else None)
             for g in (LOG, "linear:a=1,b=1", "power:a=1,k=2")
             for mode in ("plain", "outer", "inner")]
    scanner = build_demo_machines()[0]
    compiled = _compile(scanner, COUNT_ALL)

    def checks():
        for spec in specs:
            check_bound(scanner, COUNT_ALL, spec, words)

    def runs():
        for _ in specs:
            for _ in compiled.on_words(words, DEFAULT_FUEL):
                pass

    checked, ran = best_of(checks, runs)
    count = len(specs) * len(words)

    def per_word(job) -> str:
        opcodes, calls = work(job)
        return f"{opcodes / count:8.1f} opcodes {calls / count:6.2f} calls per word"

    print(f"check_bound  {len(specs)} specs x {len(words)} words  {checked * 1e3:8.3f} ms  "
          f"{per_word(checks)}")
    print(f"runs alone   {count} runs through on_words  {ran * 1e3:8.3f} ms  {per_word(runs)}")
    print(f"beyond runs  {(checked - ran) * 1e9 / count:8.0f} ns per word", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
