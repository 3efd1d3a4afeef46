"""CPU time of positioned certificate search on long inputs.

For each input length n, prints the best-of-five CPU time (process time,
which other processes on a shared machine disturb less than wall time,
after one untimed call) of decide_nc with positioned delivery, under the
bound log2(n+1) + 1, on three inputs:

    runs   x = 0^(n/2) 1^(n/2), the demo checker: mostly runs of one
           symbol, witness at cell n/2
    early  x = (01)^(n/2), the demo checker: no runs, witness at cell 1
    walk   x = (01)^(n/2), a checker that accepts only on a blank: no
           runs, every cell of x is walked before the witness at cell n

A run of one symbol is taken in one step, so `runs` costs about as much
at any n; `early` and `walk` show the cost on input without runs. Beside
each time it prints the search's Python work, in opcodes and calls
(measure.work): counts that repeat exactly whatever the load, though work
done in C counts no opcodes.

    python3 tools/search_scale.py              # n = 4096 and 65536
    python3 tools/search_scale.py 1024 4096    # the lengths given

Everything runs in this one process.
"""

from __future__ import annotations

import dataclasses
import sys

from measure import SRC, best_of, work

DEFAULT_LENGTHS = (4096, 65536)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    from tmbench import BLANK, RIGHT, build_demo_machines, decide_nc, parse_measure

    _, demo = build_demo_machines()
    checker = demo.checker
    on_blank = dataclasses.replace(demo, checker=dataclasses.replace(checker, transitions={
        (checker.start_state, s): ("q_accept" if s == BLANK else "q_reject", s, RIGHT)
        for s in ("0", "1", BLANK)}))
    g = parse_measure("log:a=1,b=1")
    for n in map(int, argv or DEFAULT_LENGTHS):
        half = n // 2
        cases = [("runs", demo, "0" * half + "1" * half), ("early", demo, "01" * half),
                 ("walk", on_blank, "01" * half)]
        for name, rel, x in cases:
            [best] = best_of(lambda: decide_nc(rel, g, x))
            opcodes, calls = work(lambda: decide_nc(rel, g, x))
            report = decide_nc(rel, g, x)
            print(f"{name:<5}  n={n:<6}  {best * 1e3:9.3f} ms  {opcodes:9} opcodes "
                  f"{calls:6} calls  accepted={report.accepted} "
                  f"witness={report.witness!r} tried={report.certificates_tried}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
