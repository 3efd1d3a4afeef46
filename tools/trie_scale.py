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
layer is done. The run line also prints the rows the first run numbered
(`rows`): the rows its compiled table holds after it, the start state's
and one per state it reached, however many states the machine has. The
layers run in that order, so the peak after converge is its own, and the
peak after verify is that of converge, build and verify together.
converge keeps nothing once it returns, so the later layers reuse its
memory. parse and run run in a child process that reads the written file
(this script with --parse, the file and n), so their peaks are their
own: the interpreter, the text, the parse and the run. A child reads a
file as run and check-bound do (cli._load_machine): in UTF-8, with an
optional byte order mark.

    python3 tools/trie_scale.py              # depths 14 and 16
    python3 tools/trie_scale.py 12 14 16     # the depths given

Each depth runs in a child process of its own (this script with
--in-process and the depth), one after another, so one depth's peak does
not carry into the next. Last, a child process (this script with --work)
writes the div3 trie of the fixed depth WORK_DEPTH to a file, reads it
back and prints the Python work (measure.work) of its parse, in opcodes
and calls per file line, and of the first run() of what it parsed, on the
word of WORK_DEPTH 1s. The depth is small because counting slows a job
many times over. Work in C (str.split, dict and tuple building) counts no
opcodes, and the counts differ between Python versions, so compare them
within one version only.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import time
from pathlib import Path

from measure import SRC, peak_mb, work

DEFAULT_DEPTHS = (14, 16)
WORK_DEPTH = 10


def read(path) -> str:
    """The text of the machine file at path, read as cli._load_machine
    reads it."""
    with open(path, encoding="utf-8-sig") as fh:
        return fh.read()


def parse(path: str, n: int) -> None:
    """Read the machine file at path, parse it and run it once on the word
    of n 1s in this process; print the CPU time of each and this process's
    peak RSS after each, and after the run's the rows its table holds."""
    sys.path.insert(0, str(SRC))
    from tmbench import COUNT_ALL, run
    from tmbench.machine import _compile
    from tmbench.textfmt import parse_machine_file

    text = read(path)
    start = time.process_time()
    machine = parse_machine_file(text)
    print(time.process_time() - start, peak_mb())
    start = time.process_time()
    run(machine, "1" * n)
    seconds = time.process_time() - start
    compiled = _compile(machine, COUNT_ALL)
    print(seconds, peak_mb(), len(compiled.table) // compiled.width)


def count(n: int) -> None:
    """Write the div3 trie of depth n to a file, read it back and print the
    Python work of its parse per file line and of the first run() of what
    it parsed, on the word of n 1s."""
    sys.path.insert(0, str(SRC))
    from tmbench import run
    from tmbench.convergence import BUILTIN_LANGUAGES, build_trie_machine
    from tmbench.textfmt import emit_machine, parse_machine_file

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, f"div3-{n}.tm")
        path.write_text(emit_machine(build_trie_machine(BUILTIN_LANGUAGES["div3"], n).listing()),
                        encoding="utf-8")
        text = read(path)
    lines = len(text.splitlines())
    parsed = []
    opcodes, calls = work(lambda: parsed.append(parse_machine_file(text)))
    print(f"div3 n={n:<2}  parse  {opcodes / lines:9.2f} opcodes {calls / lines:7.3f} calls "
          f"per line, {lines} lines")
    opcodes, calls = work(lambda: run(parsed[0], "1" * n))
    print(f"div3 n={n:<2}  run    {opcodes:9} opcodes {calls:7} calls", flush=True)


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
    if find_convergence_index(oracle, k).n_k is None:
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
    lines = [line.split() for line in done.stdout.splitlines()]
    for layer, (seconds, peak, *_) in zip(("parse", "run"), lines):
        layers.append((layer, float(seconds), float(peak)))
    for layer, seconds, peak in layers:
        rows = f"  rows {lines[1][2]}" if layer == "run" else ""
        print(f"div3 n={n:<2}  {layer:<8}  {seconds:8.4f} s  peak_rss {peak:7.1f} MB{rows}",
              flush=True)
    print(f"div3 n={n:<2}  k={k} states={report.state_count} file={len(text)} B", flush=True)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--in-process"]:
        measure(int(argv[1]))
        return 0
    if argv[:1] == ["--parse"]:
        parse(argv[1], int(argv[2]))
        return 0
    if argv[:1] == ["--work"]:
        count(WORK_DEPTH)
        return 0
    depths = [["--in-process", str(n)] for n in map(int, argv or DEFAULT_DEPTHS)]
    for args in [*depths, ["--work"]]:
        done = subprocess.run([sys.executable, __file__, *args])
        if done.returncode:
            return done.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
