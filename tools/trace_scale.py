"""CPU time of traced runs against untraced ones, and the untraced run's
work per sweep.

Prints, for five runs, the best-of-five CPU time (process time, which
other processes on a shared machine disturb less than wall time) of run()
untraced and with record_trace=True, the traced run's cost per step, the
number of distinct StepRecord objects its trace holds, the best-of-five
CPU time per distinct record of the records pass alone
(_CompiledMachine.trace on the keys of one traced run, its lookups of
the steps that share a record included), the sweeps the
untraced run takes and how they find their runs' ends ('find' for one
stop code, 'mask' otherwise; see _Sweep), and the
untraced run's opcodes and Python calls per sweep (measure.work; '-' for
a run that takes no sweep). The work is the whole run's, its plain steps'
included, over its sweeps. Work done in C, such as a sweep's find,
counts zero opcodes, so a long sweep costs no more opcodes than a short
one. The runs are:

- Marxen & Buntrock's 5-state busy beaver champion on the blank tape, to
  100,000 steps: few self-loops, so nearly every step goes through the
  step loop one at a time;
- a bouncer on 0110, to 20,000 steps: it sweeps right past the word's
  end, writes a mark, sweeps left past its start, and so on, so nearly
  every step lies inside a sweep and the tape grows at both ends;
- the demo scanner on 0^25000: one sweep over the whole word;
- a shuffler on the blank tape, to 100,000 steps: state A sweeps left
  over the 1s, and at a blank it and B write two more 1s and turn back,
  so it marches left and each of A's sweeps covers two cells. A sweep
  whose runs stay that short is demoted to a plain entry after its trial
  (_Sweep.TRIAL and _Sweep.SHORT), so its timed runs take no sweep. This
  run guards that demotion: without it, each of A's two-cell runs goes
  through the step loop's exception and a sweep, and the untraced run
  took about 44 ms against 10 ms with it (Python 3.11 on a shared 2-vCPU
  VM);
- a bouncer on 0110 whose sweeps stop at two codes, to 400,000 steps:
  states R and L loop on 0 and 1 and stop at the blank or at the mark x;
  at x it writes a bit over the mark, sets a new mark one cell further
  out and turns back, so each sweep is one cell longer than the last and
  every sweep, right or left, takes the mask scan. This run times that
  scan, whose first window starts from the last run's length
  (_Sweep.last).

The untraced and traced runs and the records pass are timed in turn,
round by round, so that all three see the same load.

    python3 tools/trace_scale.py

Everything runs in this one process.
"""

from __future__ import annotations

import sys

from measure import SRC, best_of, work


def machines():
    """(name, machine, word, fuel) of the five runs."""
    from tmbench import BLANK, LEFT, RIGHT, Machine, build_demo_machines

    items = "A0 1RB A1 1LC B0 1RC B1 1RB C0 1RD C1 0LE D0 1LA D1 1LD E0 1RH E1 0LA".split()
    symbol = {"0": BLANK, "1": "1"}
    t = {(key[0], symbol[key[1]]): (action[2], symbol[action[0]], action[1])
         for key, action in zip(items[::2], items[1::2])}
    bb5 = Machine(frozenset("1"), frozenset("1" + BLANK), frozenset("ABCDEHZ"), "A", "H", "Z", t)
    t = {}
    for s in "01a":
        t[("R", s)] = ("R", s, RIGHT)
        t[("L", s)] = ("L", s, LEFT)
    t[("R", BLANK)] = ("L", "a", LEFT)
    t[("L", BLANK)] = ("R", "a", RIGHT)
    bouncer = Machine(frozenset("01"), frozenset("01a" + BLANK), frozenset("RLYN"), "R", "Y",
                      "N", t)
    scanner = build_demo_machines()[0]
    t = {("A", "1"): ("A", "1", LEFT), ("A", BLANK): ("B", "1", LEFT),
         ("B", "1"): ("A", "1", LEFT), ("B", BLANK): ("A", "1", RIGHT)}
    shuffler = Machine(frozenset("1"), frozenset("1" + BLANK), frozenset("ABHZ"), "A", "H", "Z",
                       t)
    # R and L loop on 0 and 1 and stop at two codes, the blank and the mark x
    t = {(q, s): (q, s, move) for q, move in (("R", RIGHT), ("L", LEFT)) for s in "01"}
    t[("R", BLANK)] = t[("E", "x")] = ("L", "x", LEFT)
    t[("L", BLANK)] = t[("F", "x")] = ("R", "x", RIGHT)
    t[("R", "x")] = ("E", "0", RIGHT)
    t[("L", "x")] = ("F", "1", LEFT)
    for s in "01" + BLANK:
        t[("E", s)] = ("L", "x", LEFT)
        t[("F", s)] = ("R", "x", RIGHT)
    masker = Machine(frozenset("01"), frozenset("01x" + BLANK), frozenset("RLEFYN"), "R", "Y",
                     "N", t)
    return [("bb5", bb5, "", 100_000), ("bouncer", bouncer, "0110", 20_000),
            ("scanner", scanner, "0" * 25_000, 25_002), ("shuffler", shuffler, "", 100_000),
            ("masker", masker, "0110", 400_000)]


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    from tmbench import COUNT_ALL, run
    from tmbench.machine import _compile

    print(f"{'run':8} {'steps':>7} {'untraced ms':>12} {'traced ms':>10} "
          f"{'traced ns/step':>15} {'records':>8} {'ns/record':>10} {'sweeps':>7} {'scan':>5} "
          f"{'opcodes/sweep':>14} {'calls/sweep':>12}")
    for name, m, word, fuel in machines():
        compiled = _compile(m, COUNT_ALL)
        keys = []  # the keys of one traced run, for the records pass alone
        next(compiled.execute([(None, compiled.encode(word, compiled.inputs), 0)], fuel,
                              keys=keys))
        untraced, traced, records_pass = best_of(
            lambda: run(m, word, COUNT_ALL, fuel),
            lambda: run(m, word, COUNT_ALL, fuel, record_trace=True),
            lambda: compiled.trace(keys))
        trace = run(m, word, COUNT_ALL, fuel, record_trace=True).trace
        records = len({id(r) for r in trace})
        before = [sweep.runs for *_, sweep in compiled.markers]  # the timed runs filled the table
        opcodes, calls = work(lambda: run(m, word, COUNT_ALL, fuel))
        # (stop code, runs) of each sweep the run took
        taken = [(stop, sweep.runs - runs) for (_, _, stop, *_, sweep), runs
                 in zip(compiled.markers, before) if sweep.runs > runs]
        sweeps = sum(runs for _, runs in taken)
        scans = "+".join(sorted({"mask" if stop is None else "find" for stop, _ in taken})) or "-"
        per_sweep = (f"{opcodes / sweeps:14.1f} {calls / sweeps:12.2f}" if sweeps
                     else f"{'-':>14} {'-':>12}")
        print(f"{name:8} {len(trace):7} {untraced * 1e3:12.3f} {traced * 1e3:10.3f} "
              f"{traced * 1e9 / len(trace):15.0f} {records:8} "
              f"{records_pass * 1e9 / records:10.0f} {sweeps:7} {scans:>5} {per_sweep}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
