"""Time and peak memory of the trie layers at large depths.

For the div3 language at each depth n, prints one line per layer:
converge (find_convergence_index at k = min(n, MAX_CONVERGENCE_K)),
build (build_trie_machine), verify (verify_trie against the oracle),
emit (the text gen-trie writes), machine (the first read of
report.machine, which builds the transitions dict), parse
(parse_machine_file on the emitted text, as run and check-bound read a
written file) and run (the first run() of the parsed machine, on the
word of n 1s, which compiles it), with the layer's CPU time (process
time, which other processes on a shared machine disturb less than wall
time) and the process's peak resident set size (ru_maxrss) once the
layer is done. The layers run in that order, so the peak after converge
is its own, and the peak after verify is that of converge, build and
verify together. converge keeps nothing once it returns, so the later
layers reuse its memory. parse and run run in a child process that reads
the written file (this script with --parse, the file and n), so their
peaks are their own: the interpreter, the text, the parse and the run.

    python3 tools/trie_scale.py              # depths 14 and 16
    python3 tools/trie_scale.py 12 14 16     # the depths given

Each depth runs in a child process of its own (this script with
--in-process and the depth), one after another, so one depth's peak does
not carry into the next.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import time
from pathlib import Path

from measure import SRC, peak_mb

DEFAULT_DEPTHS = (14, 16)


def parse(path: str, n: int) -> None:
    """Read the machine file at path, parse it and run it once on the word
    of n 1s in this process; print the CPU time of each and this process's
    peak RSS after each."""
    sys.path.insert(0, str(SRC))
    from tmbench import run
    from tmbench.textfmt import parse_machine_file

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    start = time.process_time()
    machine = parse_machine_file(text)
    print(time.process_time() - start, peak_mb())
    start = time.process_time()
    run(machine, "1" * n)
    print(time.process_time() - start, peak_mb())


def measure(n: int) -> None:
    """Run and print the seven layers at depth n, the last two in a child
    process."""
    sys.path.insert(0, str(SRC))
    from tmbench.convergence import (BUILTIN_LANGUAGES, MAX_CONVERGENCE_K, build_trie_machine,
                                     find_convergence_index, verify_trie)
    from tmbench.textfmt import emit_machine

    oracle = BUILTIN_LANGUAGES["div3"]
    k = min(n, MAX_CONVERGENCE_K)
    start = time.process_time()
    if find_convergence_index(oracle, k, k).n_k is None:
        raise SystemExit(f"depth {n}: no convergence index at k = {k}")
    layers = [("converge", time.process_time() - start, peak_mb())]
    start = time.process_time()
    report = build_trie_machine(oracle, n)
    layers.append(("build", time.process_time() - start, peak_mb()))
    start = time.process_time()
    counterexamples, steps_ok = verify_trie(report, oracle)
    layers.append(("verify", time.process_time() - start, peak_mb()))
    if counterexamples or not steps_ok:
        raise SystemExit(f"depth {n}: the trie does not verify")
    start = time.process_time()
    text = emit_machine(report.listing())
    layers.append(("emit", time.process_time() - start, peak_mb()))
    start = time.process_time()
    report.machine
    layers.append(("machine", time.process_time() - start, peak_mb()))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, f"div3-{n}.tm")
        path.write_text(text, encoding="utf-8")
        done = subprocess.run([sys.executable, __file__, "--parse", str(path), str(n)],
                              stdout=subprocess.PIPE, text=True, check=True)
    for layer, line in zip(("parse", "run"), done.stdout.splitlines()):
        seconds, peak = map(float, line.split())
        layers.append((layer, seconds, peak))
    for layer, seconds, peak in layers:
        print(f"div3 n={n:<2}  {layer:<8}  {seconds:8.4f} s  peak_rss {peak:7.1f} MB", flush=True)
    print(f"div3 n={n:<2}  k={k} states={report.state_count} file={len(text)} B", flush=True)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--in-process"]:
        measure(int(argv[1]))
        return 0
    if argv[:1] == ["--parse"]:
        parse(argv[1], int(argv[2]))
        return 0
    for n in map(int, argv or DEFAULT_DEPTHS):
        done = subprocess.run([sys.executable, __file__, "--in-process", str(n)])
        if done.returncode:
            return done.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
