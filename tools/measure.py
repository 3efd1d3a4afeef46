"""What the scale tools share to measure: where the package's source is,
the best CPU time of a job over repeated rounds, the Python work of a job
in opcodes and calls, and the peak memory.

CPU time is process time, which other processes on a shared machine
disturb less than wall time. Each tool imports this module by name, as
`python3 tools/<tool>.py` puts this directory first on the path.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REPEATS = 5


def best_of(*jobs) -> list[float]:
    """The least CPU time of each job over REPEATS rounds, after one untimed
    call of each; a round times every job in turn, so that the jobs share
    whatever load the machine has."""
    best = [float("inf")] * len(jobs)
    for i in range(REPEATS + 1):
        for j, job in enumerate(jobs):
            start = time.process_time()
            job()
            if i:
                best[j] = min(best[j], time.process_time() - start)
    return best


def work(job) -> tuple[int, int]:
    """The Python work of one call of job: the bytecode instructions it
    executes (opcodes) and the Python calls it makes, its own and a
    generator's resumes included, counted with sys.settrace and
    f_trace_opcodes. Work done in C, such as bytes.translate or a list's
    extend, counts zero opcodes however long it runs, and a call of a C
    function counts no call. Every opcode goes through a Python callback,
    which slows a job many times over, so give it small fixed jobs only.
    The counts repeat exactly whatever the load, but differ between Python
    versions."""
    opcodes = calls = 0

    def on_opcode(frame, event, arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return on_opcode

    def on_call(frame, event, arg):
        nonlocal calls
        calls += 1
        frame.f_trace_lines, frame.f_trace_opcodes = False, True
        return on_opcode

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        job()
    finally:
        sys.settrace(previous)
    return opcodes, calls


def peak_mb() -> float:
    """This process's peak resident set size in MB (ru_maxrss is in KB on
    Linux and in bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024
