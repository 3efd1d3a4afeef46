"""What the scale tools share to measure: where the package's source is,
the best CPU time of a job over repeated rounds, and the peak memory.

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


def peak_mb() -> float:
    """This process's peak resident set size in MB (ru_maxrss is in KB on
    Linux and in bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024
