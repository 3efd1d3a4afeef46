"""Span recorder for the traced run.

Each traced function is replaced by a wrapper in every tmbench module that
holds it (the defining module, the package namespace and every module that
imported it by name), so calls made from inside tmbench, as cli and
convergence do, are caught too. A span is (name, start, end, parent); spans
stay in memory until the run ends. A span's self time is its duration minus
the durations of its direct children, which run one after another.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import Counter, defaultdict

# (defining module, function, span name)
TRACED = [
    ("tmbench.machine", "run", "machine.run"),
    ("tmbench.machine", "run_configuration", "machine.step_loop"),
    ("tmbench.machine", "validate_machine", "machine.validate"),
    ("tmbench.machine", "initial_configuration", "machine.init_config"),
    ("tmbench.cost", "counted_set", "cost.counted_set"),
    ("tmbench.textfmt", "parse_machine_file", "textfmt.parse"),
    ("tmbench.textfmt", "emit_machine", "textfmt.emit"),
    ("tmbench.cli", "main", "cli.main"),
    ("tmbench.convergence", "build_trie_machine", "convergence.build"),
    ("tmbench.convergence", "verify_restriction", "convergence.verify"),
    ("tmbench.convergence", "verify_step_count", "convergence.verify"),
    ("tmbench.convergence", "find_convergence_index", "convergence.converge"),
    ("tmbench.nondet", "decide_nc", "nondet.search"),
    ("tmbench.nondet", "decide_nt", "nondet.search"),
    ("tmbench.nondet", "deliver", "nondet.deliver"),
    ("tmbench.measures", "check_bound", "measures.check_bound"),
    ("tmbench.measures", "evaluate", "measures.evaluate"),
]
ROOT = "bench"
# Spans are in CPU time of the (only) thread, uncalibrated: the
# traced run compares layers with each other within one run.
CLOCK = time.thread_time
SPAN_NAMES = [ROOT] + sorted({span for _, _, span in TRACED})


def _count_result(counts, span, args, result):
    """Work counts read off arguments and results at the span boundary."""
    if span == "machine.step_loop":
        counts["machine.steps"] += result.total_steps
        counts["machine.counted_steps"] += result.counted_steps
        if result.trace is not None:
            counts["machine.trace_records"] += len(result.trace)
    elif span == "textfmt.parse":
        counts["textfmt.parse.bytes"] += len(args[0].encode("utf-8"))
    elif span == "textfmt.emit":
        counts["textfmt.emit.bytes"] += len(result.encode("utf-8"))
    elif span == "convergence.build":
        counts["convergence.build.states"] += result.state_count
        counts["convergence.oracle_queries"] += result.oracle_queries
    elif span == "nondet.search":
        counts["nondet.certs_tried"] += result.certificates_tried
        counts["nondet.accepting_searches"] += result.accepted


class Tracer:
    """Records spans while installed; install() and uninstall() patch tmbench."""

    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.names = array("b")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.jobs = array("l")
        self.counts = []  # one Counter per job
        self._stack = [-1]
        self._patched = []

    def _open(self, name_id):
        index = len(self.starts)
        self.names.append(name_id)
        self.parents.append(self._stack[-1])
        self.jobs.append(len(self.counts) - 1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(CLOCK())
        return index

    def _close(self, index):
        self.ends[index] = CLOCK()
        self._stack.pop()

    def _wrap(self, fn, span):
        name_id = self.name_ids[span]

        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            _count_result(self.counts[-1], span, args, result)
            return result

        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "tmbench" or name.startswith("tmbench.")]
        for module_name, attr, span in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, span)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    @contextlib.contextmanager
    def job(self):
        """One root span around one traced job."""
        self.counts.append(Counter())
        index = self._open(self.name_ids[ROOT])
        try:
            yield
        finally:
            self._close(index)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("job,span,name,parent,start_s,end_s\n")
            for i in range(len(self.starts)):
                fh.write(f"{self.jobs[i]},{i},{SPAN_NAMES[self.names[i]]},{self.parents[i]},"
                         f"{self.starts[i]!r},{self.ends[i]!r}\n")

    def per_job(self):
        """Per-layer metrics summed over each job: a list of dicts."""
        njobs = len(self.counts)
        child = [0.0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        self_s = [defaultdict(float) for _ in range(njobs)]
        job_time = [0.0] * njobs
        calls = [Counter() for _ in range(njobs)]
        under = [Counter() for _ in range(njobs)]  # (child, parent) name pairs
        for i, name_id in enumerate(self.names):
            job, name = self.jobs[i], SPAN_NAMES[name_id]
            self_s[job][name] += self.ends[i] - self.starts[i] - child[i]
            calls[job][name] += 1
            parent = self.parents[i]
            if parent < 0:
                job_time[job] += self.ends[i] - self.starts[i]
            else:
                under[job][(name, SPAN_NAMES[self.names[parent]])] += 1
        out = []
        for job in range(njobs):
            metrics = {f"{name}.self_s": self_s[job][name] for name in SPAN_NAMES}
            metrics["trace.job_cpu_s"] = job_time[job]
            for name in ("machine.validate", "cost.counted_set", "nondet.deliver",
                         "measures.evaluate", "machine.run", "machine.step_loop"):
                metrics[f"{name}.calls"] = calls[job][name]
            metrics["convergence.verify.words"] = under[job][("machine.step_loop",
                                                              "convergence.verify")]
            metrics["convergence.converge.tries"] = under[job][("convergence.build",
                                                                "convergence.converge")]
            counts = self.counts[job]
            for key in ("machine.steps", "machine.counted_steps", "machine.trace_records",
                        "textfmt.parse.bytes", "textfmt.emit.bytes",
                        "convergence.build.states", "convergence.oracle_queries",
                        "nondet.certs_tried"):
                metrics[key] = counts[key]
            tried = counts["nondet.certs_tried"]
            metrics["nondet.witness_ratio"] = (
                counts["nondet.accepting_searches"] / tried if tried else 0.0)
            out.append(metrics)
        return out
