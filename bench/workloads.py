"""The four workloads: seeded inputs, the calls each job makes into tmbench,
and the independent reference every call is checked against.

A workload's setup turns a seed into a list of Calls. One job runs every call
once, in order, in one thread: each call starts when the previous one has
returned (a closed loop with a single caller). Input sizes are fixed and the
seed only chooses contents, so every seed asks for (nearly) the same work.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import Counter
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import machines
import reference as ref


@dataclass(frozen=True)
class Work:
    """What a correct result must be, and the work it takes, per call."""

    digest: object
    steps: int  # simulated machine steps
    words: int  # input words decided (see BENCHMARK.json / predictions.json)
    certs: int  # certificates tried; machine runs where no search happens


@dataclass
class Call:
    label: str
    invoke: Callable[[], object]  # the timed call into tmbench
    digest: Callable[[object], object]  # the caller's work on the result (untimed per call)
    reference: Callable[[], Work]  # runs once, outside every timed region


def _run_digest(result):
    return result.verdict.value, result.total_steps, result.counted_steps


def _trace_digest(result):
    # the caller walks the trace and tallies hits per (state, symbol) entry
    hits = Counter()
    counted = 0
    for record in result.trace:
        hits[(record.state, record.read)] += 1
        counted += record.counted
    return result.verdict.value, result.total_steps, counted, dict(hits)


def _run_call(tm, label, machine, word, cost, fuel, trace, closed_form=None):
    model = tm.parse_cost_model(cost)

    def invoke():
        return tm.run(machine, word, model, fuel=fuel, record_trace=trace)

    def expected():
        outcome = ref.simulate(machine, word, fuel)
        if closed_form is not None and outcome.total_steps != closed_form:
            raise AssertionError(f"{label}: reference stepper took {outcome.total_steps} "
                                 f"steps, closed form says {closed_form}")
        counted = ref.counted_steps(machine, outcome.hits, cost)
        total = outcome.total_steps if closed_form is None else closed_form
        digest = ((outcome.verdict, total, counted, outcome.hits) if trace
                  else (outcome.verdict, total, counted))
        return Work(digest, total, 1, 1)

    return Call(label, invoke, _trace_digest if trace else _run_digest, expected)


def _scanner_call(tm, label, scanner, n, trace):
    """The scanner on 0^n rejects after n+1 steps, every one counted."""
    word = "0" * n

    def invoke():
        return tm.run(scanner, word, tm.COUNT_ALL, fuel=n + 2, record_trace=trace)

    def expected():
        steps = n + 1
        hits = {("q_scan", "0"): n, ("q_scan", "_"): 1}
        digest = ("rejected", steps, steps, hits) if trace else ("rejected", steps, steps)
        return Work(digest, steps, 1, 1)

    return Call(label, invoke, _trace_digest if trace else _run_digest, expected)


def _bits(rng, n):
    return "".join(rng.choice("01") for _ in range(n))


CHAMPION_COSTS = ("count-all", "free-blind", "free-states:A")


def _champion_calls(tm, trace, pairs):
    """Small halting champions: (champion, cost model) pairs."""
    return [_run_call(tm, f"{name}/{cost}", machines.champion(tm, name), "", cost, 1_000,
                      trace, closed_form=ref.BUSY_BEAVER_STEPS[name])
            for name, cost in pairs]


def sim_long(tm, seed, workdir):
    """A few untraced runs of half a million to 1.5 million steps each, and
    one small champion per cost model; the long runs are the majority, so
    call_p50_ms is a long call's latency."""
    rng = random.Random(seed)
    scanner, _ = tm.build_demo_machines()
    bb5 = machines.champion(tm, "bb5")
    calls = [
        _run_call(tm, "bb5/count-all", bb5, "", "count-all", 1_500_000, False),
        _run_call(tm, "bouncer/free-blind", machines.bouncer(tm, *_bits(rng, 2)),
                  _bits(rng, 48), "free-blind", 1_000_000, False),
        _run_call(tm, "bouncer/free-states", machines.bouncer(tm, *_bits(rng, 2)),
                  _bits(rng, 48), "free-states:R", 1_000_000, False),
        _scanner_call(tm, "scanner/0^500000", scanner, 500_000, False),
    ]
    return calls + _champion_calls(tm, False, zip(ref.BUSY_BEAVER_STEPS, CHAMPION_COSTS))


def sim_trace(tm, seed, workdir):
    """Medium runs that record the full trace; the caller tallies it. Most
    calls take 20000 steps, so call_p50_ms and call_p90_ms fall among
    calls of one size."""
    rng = random.Random(seed)
    scanner, _ = tm.build_demo_machines()
    costs = ("count-all", "free-blind", "free-states:R")
    calls = [_run_call(tm, "bb5/count-all", machines.champion(tm, "bb5"), "",
                       "count-all", 100_000, True)]
    for i in range(12):
        cost = costs[i % 3]
        calls.append(_run_call(tm, f"bouncer{i}/{cost}", machines.bouncer(tm, *_bits(rng, 2)),
                               _bits(rng, 16 + 4 * i), cost, 20_000, True))
    for n in (15_000, 20_000, 25_000):
        calls.append(_scanner_call(tm, f"scanner/0^{n}", scanner, n, True))
    return calls + _champion_calls(tm, True, product(ref.BUSY_BEAVER_STEPS, CHAMPION_COSTS))


# --- trie-cli ---------------------------------------------------------------

# (language, depth): built-ins and '@' for a file of seeded random words.
TRIE_CONFIGS = [
    ("@", 14), ("palindrome", 10), ("@", 8), ("contains-1", 8), ("parity-even-ones", 8),
    ("div3", 6), ("all", 6), ("empty", 6), ("@", 6),
]
CONVERGE_MAX_K = 10
PROFILE_COUNT = 4
CHECK_MODES = (("plain", None), ("outer", "linear:a=2,b=0"), ("inner", "linear:a=2,b=0"))
CHECK_G = "linear:a=1,b=1"


def _cli(tm, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tm.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _token(word):
    return word if word else "eps"


def _csv_rows(text):
    """Data rows of a CSV report, without comment lines and the header."""
    return [line.split(",") for line in text.splitlines() if not line.startswith("#")][1:]


def _cli_call(tm, label, argv, digest, expected):
    return Call(label, lambda: _cli(tm, argv), digest, expected)


def trie_cli(tm, seed, workdir):
    """A user's pipeline through tmbench.cli.main: gen-trie, then run,
    check-bound and profile on the written file, then verify-trie, converge."""
    rng = random.Random(seed)
    workdir = Path(workdir)
    calls = []
    for i, (lang, n) in enumerate(TRIE_CONFIGS):
        if lang == "@":
            words = sorted({_bits(rng, rng.randint(0, n)) for _ in range(64)})
            lang_file = workdir / f"lang{i}.txt"
            lang_file.write_text("".join(_token(w) + "\n" for w in words))
            lang, member = f"@{lang_file}", frozenset(words).__contains__
        else:
            member = ref.LANGUAGES[lang]
        trie = str(workdir / f"trie{i}.tm")
        calls += _trie_pipeline(tm, rng, seed, workdir, i, lang, member, n, trie)
    return calls


def _trie_pipeline(tm, rng, seed, workdir, i, lang, member, n, trie):
    states = ref.trie_state_count(n)
    gen_work = Work((0, f"# states={states} oracle_queries={states - 2}\n"), 0, 0, 0)
    calls = [_cli_call(
        tm, f"gen-trie/{i}", ["gen-trie", "--lang", lang, "--n", str(n), "--out", trie],
        lambda r: (r[0], r[2]), lambda: gen_work)]

    # one word within the depth and one past the cap
    for word in (_bits(rng, rng.randint(0, n)), _bits(rng, n + 1 + rng.randint(0, 2))):
        steps = ref.trie_steps(word, n)
        text = (f"verdict: {ref.trie_verdict(member, word, n)}\n"
                f"total_steps: {steps}\ncounted_steps: {steps}\n")
        calls.append(_cli_call(
            tm, f"run/{i}", ["run", "--machine", trie, "--input", _token(word)],
            lambda r: r[:2], lambda w=Work((0, text), steps, 0, 1): w))

    mode, transform = CHECK_MODES[i % len(CHECK_MODES)]
    inputs = [_bits(rng, rng.randint(0, n + 2)) for _ in range(16)]
    inputs_file = workdir / f"inputs{i}.txt"
    inputs_file.write_text("".join(_token(w) + "\n" for w in inputs))
    argv = ["check-bound", "--machine", trie, "--g", CHECK_G, "--mode", mode,
            "--inputs-file", str(inputs_file)] + (["--t", transform] if transform else [])

    def check_expected():
        counted = [ref.trie_steps(w, n) for w in inputs]
        rows = [(_token(w), str(c), str(ref.within(c, ref.bound(CHECK_G, mode, transform,
                                                                len(w)))).lower())
                for w, c in zip(inputs, counted)]
        code = 0 if all(r[2] == "true" for r in rows) else 3
        return Work((code, rows), sum(counted), 0, len(inputs))

    calls.append(_cli_call(
        tm, f"check-bound/{i}", argv,
        lambda r: (r[0], [(c[0], c[2], c[4]) for c in _csv_rows(r[1])]), check_expected))

    argv = ["profile", "--machine", trie, "--lengths", f"0..{n + 1}",
            "--family", f"random:count={PROFILE_COUNT},seed={seed}"]

    def profile_expected():
        lengths = range(n + 2)
        rows = [(str(l), str(ref.trie_steps("0" * l, n))) for l in lengths]
        steps = PROFILE_COUNT * sum(ref.trie_steps("0" * l, n) for l in lengths)
        return Work((0, rows), steps, 0, PROFILE_COUNT * len(lengths))

    calls.append(_cli_call(
        tm, f"profile/{i}", argv, lambda r: (r[0], [(c[0], c[1]) for c in _csv_rows(r[1])]),
        profile_expected))

    def verify_expected():
        runs, steps = ref.verify_trie_work(n)
        return Work((0, "restriction: pass\nstep_count: pass\n"), steps, runs, runs)

    calls.append(_cli_call(
        tm, f"verify-trie/{i}", ["verify-trie", "--lang", lang, "--n", str(n)],
        lambda r: r[:2], verify_expected))

    k = min(n, CONVERGE_MAX_K)

    def converge_expected():
        n_k, runs, steps = ref.converge_reference(member, k, k)
        text = f"k={k} n_k={n_k} verified_words={2 ** (k + 1) - 1}\n"
        return Work((0, text), steps, runs, runs)

    calls.append(_cli_call(
        tm, f"converge/{i}", ["converge", "--lang", lang, "--k", str(k), "--budget", str(k)],
        lambda r: r[:2], converge_expected))
    return calls


# --- cert-search ------------------------------------------------------------

LOG = "log:a=1,b=1"
# |x| from 8 to 4096; 2048 is left out to keep a job short enough that a run
# holds three
SIZES = [2 ** e for e in (3, 4, 5, 6, 7, 8, 9, 10, 12)]
NT_LOG_MAX = 1024


def _search_digest(report):
    return (report.accepted, report.witness, report.certificates_tried,
            report.max_checker_counted_steps)


def _one_at(n, p):
    return "0" * p + "1" + "0" * (n - p - 1)


def _mirrored_positions(rng, n):
    """Two seeded positions of the '1' in [n/2, n), mirror images of each
    other, drawn from a narrow band so that each call's search cost, not only
    the pair's, is nearly the same for every seed."""
    lo, hi = n // 2, n
    p = lo + (hi - lo) // 4 + rng.randrange(max(1, (hi - lo) // 8))
    return p, lo + hi - 1 - p


def _decide_call(tm, label, rel, x, g, transform, search):
    g_fn = tm.parse_measure(g)
    t_fn = tm.parse_measure(transform) if transform else None

    def invoke():
        if t_fn is None:
            return tm.decide_nc(rel, g_fn, x)
        return tm.decide_nt(rel, g_fn, t_fn, x)

    def expected():
        lengths = ref.admitted_lengths(g, transform, len(x))
        if search == "positioned":
            accepted, witness, tried = ref.positioned_search(x, lengths)
            digest, steps = (accepted, witness, tried, 1 if tried else 0), tried
        else:
            accepted, witness, tried, most, steps = ref.inline_search(x, lengths)
            digest = (accepted, witness, tried, most)
        return Work(digest, steps, 1, tried)

    return Call(label, invoke, _search_digest, expected)


def _check_bound_call(tm, label, scanner, words, g, mode, transform):
    spec = tm.BoundSpec(g=tm.parse_measure(g), mode=mode,
                        transform=tm.parse_measure(transform) if transform else None)

    def invoke():
        return tm.check_bound(scanner, tm.COUNT_ALL, spec, words)

    def expected():
        counted = [ref.scanner_steps(w) for w in words]
        passed = [ref.within(c, ref.bound(g, mode, transform, len(w)))
                  for c, w in zip(counted, words)]
        return Work((all(passed), counted, passed), sum(counted), len(words), len(words))

    def digest(report):
        return (report.verdict, [r.counted_steps for r in report.per_input],
                [r.passed for r in report.per_input])

    return Call(label, invoke, digest, expected)


def cert_search(tm, seed, workdir):
    """Certificate search with the positioned and an inline checker, plus
    check_bound batches: thousands of checker runs of 1 to a few steps."""
    rng = random.Random(seed)
    scanner, positioned = tm.build_demo_machines()
    inline = machines.inline_checker(tm)
    calls = []
    for n in SIZES:
        for p in _mirrored_positions(rng, n):
            x = _one_at(n, p)
            calls.append(_decide_call(tm, f"nc/positioned/{n}", positioned, x, LOG, None,
                                      "positioned"))
            calls.append(_decide_call(tm, f"nt-power/positioned/{n}", positioned, x, LOG,
                                      "power:a=1,k=2", "positioned"))
            if n <= NT_LOG_MAX:
                calls.append(_decide_call(tm, f"nt-log/positioned/{n}", positioned, x, LOG,
                                          LOG, "positioned"))
    # seeded positions come in mirrored pairs (p and n-1-p), so the steps a
    # job simulates do not depend on the seed
    for n in (4, 8, 16, 32, 64):
        p = n // 4 + rng.randrange(max(1, n // 8))
        for x in (_one_at(n, p), _one_at(n, n - 1 - p), "0" * n):
            calls.append(_decide_call(tm, f"nc/inline/{n}", inline, x, LOG, None, "inline"))
            calls.append(_decide_call(tm, f"nt/inline/{n}", inline, x, LOG,
                                      "linear:a=2,b=1", "inline"))
    words = ["0" * n for n in range(33, 49)]
    for n in range(1, 33):
        p = rng.randrange(n)
        words += [_one_at(n, p), _one_at(n, n - 1 - p)]
    rng.shuffle(words)
    for g in (LOG, "linear:a=1,b=1", "power:a=1,k=2"):
        for mode, transform in CHECK_MODES:
            calls.append(_check_bound_call(tm, f"check_bound/{g}/{mode}", scanner, words,
                                           g, mode, transform))
    return calls


WORKLOADS = {
    "sim-long": sim_long,
    "sim-trace": sim_trace,
    "trie-cli": trie_cli,
    "cert-search": cert_search,
}
