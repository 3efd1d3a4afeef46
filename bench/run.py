"""tmbench benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload sim-long --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; tmbench is imported from ./src and nowhere
else. Set-up (import, input generation, building the input machines) runs
several times and reports its median. Then whole jobs, each the workload's
fixed list of calls, repeat for about --seconds. Times are CPU time
calibrated against a fixed loop (clock.py), medians over the repetitions.
Every call's result is compared with an independent reference
(reference.py) outside the timed region. The last line of stdout is one JSON object: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer metrics of
a traced run (tracer.py), which alternates untraced and traced jobs so that
their difference is the tracing overhead. `--workload all` runs every
workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 5

sys.path.insert(0, str(BENCH_DIR))
from clock import CalibratedClock, RawClock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def fresh_import():
    """Import tmbench from ./src, discarding any copy already imported."""
    for name in [n for n in sys.modules if n == "tmbench" or n.startswith("tmbench.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    tm = importlib.import_module("tmbench")
    importlib.import_module("tmbench.cli")
    if Path(tm.__file__).resolve().parent != SRC / "tmbench":
        raise ImportError(f"tmbench imported from {tm.__file__}, not from {SRC}")
    return tm


def run_job(calls, clock):
    """Every call once, in order. Returns (job time, call latencies, digests)."""
    latencies, digests = [], []
    start = clock.mark()
    for call in calls:
        t0 = clock.mark()
        # a call that raises, or returns what its digest cannot read, fails
        try:
            result = call.invoke()
            latencies.append(clock.since(t0))
            digests.append(call.digest(result))
        except Exception as exc:
            if len(latencies) == len(digests):
                latencies.append(clock.since(t0))
            digests.append(exc)
    return clock.since(start), latencies, digests


def count_failures(calls, expected, digests):
    failed = 0
    for call, work, got in zip(calls, expected, digests):
        if got != work.digest:
            failed += 1
            if isinstance(got, Exception):
                detail = "".join(traceback.format_exception(got)).rstrip()
            else:
                detail = f"got {str(got)[:300]}, expected {str(work.digest)[:300]}"
            print(f"MISMATCH {call.label}: {detail}", file=sys.stderr)
    return failed


class Run:
    """Set-ups, jobs and their timings for one workload and seed."""

    def __init__(self, build, seed, workdir):
        self.build, self.seed, self.workdir = build, seed, workdir
        self.setup_times, self.job_times, self.traced_job_times = [], [], []
        self.latencies = []  # per job, one entry per call
        self.attempted = self.failed = 0
        self.peak_rss_mb = None

    def setup(self, clock):
        """Import tmbench afresh and build the inputs; returns the calls."""
        t0 = clock.mark()
        tm = fresh_import()
        calls = self.build(tm, self.seed, self.workdir)
        self.setup_times.append(clock.since(t0))
        return calls

    def measure(self, seconds, tracer, clock):
        """Set up SETUP_REPEATS times, then run jobs until the next one would
        end after `seconds` of real time, setting up once more after each job
        so that set-up is sampled across the whole run. With a tracer,
        alternate an untraced and a traced job."""
        for _ in range(SETUP_REPEATS):
            calls = self.setup(clock)
        expected = [call.reference() for call in calls]
        start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            took, latencies, digests = run_job(calls, clock)
            self.job_times.append(took)
            self.latencies.append(latencies)
            self._check(calls, expected, digests)
            if self.peak_rss_mb is None:
                # after one job: later jobs only add allocator fragmentation
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer:
                tracer.install()
                try:
                    with tracer.job():
                        took, _, digests = run_job(calls, clock)
                finally:
                    tracer.uninstall()
                self.traced_job_times.append(took)
                self._check(calls, expected, digests)
            cycle = time.perf_counter() - cycle_start
            calls = self.setup(clock)
            if time.perf_counter() - start + cycle > seconds:
                return expected

    def _check(self, calls, expected, digests):
        self.attempted += len(calls)
        self.failed += count_failures(calls, expected, digests)


def harrell_davis(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density. A workload's
    calls have costs spread over orders of magnitude with gaps between them,
    and a single order statistic jumps across a gap when two calls swap rank;
    this estimate moves smoothly instead."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t):
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    panels = 64  # Simpson's rule on each order statistic's share of [0, 1]
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * panels)
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, panels))
        weights.append((density(lo) + inner + density(lo + panels * h)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(run, expected):
    """Times are calibrated CPU seconds (clock.py), as medians over the run's
    repetitions. Call latencies: each call's median over the run's jobs,
    then the Harrell-Davis 50th and 90th percentiles over the calls, so that
    every run of a workload ranks the same number of samples."""
    job = statistics.median(run.job_times)
    per_call = [statistics.median(times) for times in zip(*run.latencies)]
    return {
        "setup_s": statistics.median(run.setup_times),
        "job_s": job,
        "steps_per_s": sum(w.steps for w in expected) / job,
        "words_per_s": sum(w.words for w in expected) / job,
        "certs_per_s": sum(w.certs for w in expected) / job,
        "call_p50_ms": 1e3 * harrell_davis(per_call, 0.5),
        "call_p90_ms": 1e3 * harrell_davis(per_call, 0.9),
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer(tracer, run):
    """Per-layer metrics as the mean over traced jobs, so that the layers'
    self times plus bench.self_s add up to trace.job_cpu_s. Work counts are
    identical in every job of a run; they are taken from the first."""
    jobs = tracer.per_job()
    metrics = {key: value if isinstance(value, int) else statistics.fmean(j[key] for j in jobs)
               for key, value in jobs[0].items()}
    for job in jobs[1:]:
        differ = [k for k, v in job.items() if isinstance(v, int) and v != metrics[k]]
        if differ:
            print(f"warning: work counts differ between jobs: {differ}", file=sys.stderr)
    metrics["trace.overhead_s"] = (statistics.fmean(run.traced_job_times)
                                   - statistics.fmean(run.job_times))
    return metrics


def run_workload(args, declared):
    if not (SRC / "tmbench" / "__init__.py").is_file():
        print(f"error: no tmbench sources under {SRC}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace == 1 else None
    run = Run(WORKLOADS[args.workload], args.seed, workdir)
    try:
        if tracer:
            expected = run.measure(args.seconds, tracer, RawClock())
        else:
            with CalibratedClock() as clock:
                expected = run.measure(args.seconds, None, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# {args.workload} seed={args.seed}: {len(run.job_times)} job(s) of "
          f"{len(expected)} calls, error_rate={run.failed / run.attempted:.6g} "
          f"({run.failed}/{run.attempted} calls)")
    if tracer:
        values = per_layer(tracer, run)
        spans = OUT / f"spans-{args.workload}-{args.seed}.csv"
        tracer.write(spans)
        accounted = sum(v for k, v in values.items() if k.endswith(".self_s"))
        print(f"# spans written to {spans.relative_to(ROOT)}; layer and bench self "
              f"times sum to {accounted:.6f} s of traced job {values['trace.job_cpu_s']:.6f} s")
    else:
        values = end_to_end(run, expected)
    names = declared["per_layer" if tracer else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(args, declared):
    """Each workload in its own process, so peak_rss_mb is that workload's."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{name}: correct={result['correct']} "
              f"error_rate={result['failed'] / result['attempted']:.6g} "
              f"({result['failed']}/{result['attempted']} calls)")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32s} {entry['value']:>16.6g} {entry['unit']}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, declared)
    return run_workload(args, declared)


if __name__ == "__main__":
    sys.exit(main())
