"""Calibrated CPU time for the untraced run.

On the shared machine this benchmark was tuned on, the same code ran up to
twice as slowly for seconds or minutes at a time, and CPU time swung with it
(wall time even more, from preemption). A fixed calibration loop, run every
INTERVAL_S of CPU time from a SIGPROF timer, samples how fast the machine is
running right now; a measured interval is then scaled by NOMINAL_S over the
mean calibration time in that interval. The result is the CPU time the
interval would take on a machine where the calibration loop takes NOMINAL_S.
In back-to-back sets of five runs, sim-trace's job time spread (IQR/median)
by 26% in raw CPU time and by 1.7% calibrated. The calibration loop does not
use tmbench, so a change to tmbench does not move it, and its own CPU time is
left out of every interval.

CPU time is read per thread (the benchmark has one): while ITIMER_PROF is
armed, the process-wide CPU clock only advances at scheduler ticks here.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
NOMINAL_S = 0.001  # the calibration loop's CPU time on an unloaded machine, rounded


def calibration_loop(steps: int = 4000) -> int:
    """A tiny dict-tape machine: the lookups and stores tmbench's loop makes."""
    table = {(q, s): ((q * 7 + s) % 5, (s + 1) % 3, 1 if (q + s) % 2 else -1)
             for q in range(5) for s in range(3)}
    tape, state, head = {}, 0, 0
    for _ in range(steps):
        state, write, move = table[(state, tape.get(head, 0))]
        tape[head] = write
        head += move
    return head


class CalibratedClock:
    """mark() starts an interval; since(mark) returns its calibrated seconds."""

    def __init__(self):
        self.samples: list[float] = []  # CPU seconds of each calibration loop
        self.calibration_total = 0.0

    def _sample(self, *_):
        t0 = time.thread_time()
        calibration_loop()
        took = time.thread_time() - t0
        self.samples.append(took)
        self.calibration_total += took

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        return False

    def mark(self):
        return time.thread_time(), self.calibration_total, len(self.samples)

    def since(self, mark) -> float:
        cpu, calibration, n = mark
        raw = time.thread_time() - cpu - (self.calibration_total - calibration)
        # samples taken during the interval, else the last one before it
        window = self.samples[n:] or self.samples[n - 1:n]
        return raw * NOMINAL_S / statistics.fmean(window)


class RawClock:
    """The same interface, plain CPU time: for the traced run, whose
    per-layer times are raw and whose spans must not include calibration."""

    def mark(self):
        return time.thread_time()

    def since(self, mark) -> float:
        return time.thread_time() - mark
