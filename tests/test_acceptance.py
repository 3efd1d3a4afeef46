"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line (run with -s or -v to see them)."""

import math
import random
from itertools import product

import pytest

from tmbench import (
    BoundSpec,
    COUNT_ALL,
    CostModel,
    BUILTIN_LANGUAGES,
    MeasureFunction,
    Verdict,
    build_demo_machines,
    build_trie_machine,
    check_bound,
    check_monotone_sample,
    counted_set,
    decide_nc,
    emit_machine,
    find_convergence_index,
    parse_machine_file,
    run,
    verify_trie,
)
from tmbench.cli import main
from tmbench.machine import all_words

ORACLE_NAMES = ["contains-1", "parity-even-ones", "palindrome", "all", "empty", "div3"]
SEED = 20260823


def report(num, description, ok):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def tries():
    return {
        (name, n): build_trie_machine(BUILTIN_LANGUAGES[name], n)
        for name in ORACLE_NAMES
        for n in range(9)
    }


def test_criterion_1_restriction_exactness(tries):
    ok = True
    for name in ORACLE_NAMES:
        oracle = BUILTIN_LANGUAGES[name]
        for n in range(9):
            counterexamples = verify_trie(tries[(name, n)], oracle)[0]
            ok = ok and not counterexamples
    report(1, "trie language equals the oracle restricted to length <= n, "
              "exhaustive for all oracles and n in 0..8", ok)


def test_criterion_2_step_count_theorem(tries):
    ok = True
    for name in ORACLE_NAMES:
        for n in range(9):
            trie = tries[(name, n)]
            ok = ok and verify_trie(trie)[1]
            for word in all_words("01", n):
                ok = ok and run(trie.machine, word, COUNT_ALL, fuel=n + 4).total_steps == len(word) + 1
            for word in ("0" * (n + 1), "1" * (n + 1)):
                ok = ok and run(trie.machine, word, COUNT_ALL, fuel=n + 4).total_steps <= n + 2
    report(2, "|w|+1 steps for words within the bound, <= n+2 past it", ok)


def test_criterion_3_state_and_query_accounting(tries):
    ok = True
    for name in ORACLE_NAMES:
        for n in range(13):
            trie = tries[(name, n)] if n <= 8 else build_trie_machine(
                BUILTIN_LANGUAGES[name], n)
            ok = ok and trie.state_count == 2 ** (n + 1) + 1
            ok = ok and trie.oracle_queries == 2 ** (n + 1) - 1
    report(3, "state_count = 2^(n+1)+1 and oracle_queries = 2^(n+1)-1 for n in 0..12", ok)


def test_criterion_4_convergence():
    ok = True
    for name in ORACLE_NAMES:
        oracle = BUILTIN_LANGUAGES[name]
        for k in range(9):
            result = find_convergence_index(oracle, k)
            ok = ok and result.n_k is not None and result.n_k <= k
            ok = ok and result.verified_words == 2 ** (k + 1) - 1
            if name == "empty":
                ok = ok and result.n_k == 0
    report(4, "convergence index n_k <= k for every oracle; empty language at 0", ok)


def test_criterion_5_nlogtime_demonstration():
    scanner, checker = build_demo_machines()
    g = MeasureFunction("log", a=1, b=1)
    ok = True
    for n in range(1, 65):
        scan = run(scanner, "0" * n, COUNT_ALL, fuel=4 * n + 16, record_trace=False)
        ok = ok and scan.counted_steps == n + 1
        search = decide_nc(checker, g, "0" * (n - 1) + "1", COUNT_ALL, fuel=64)
        ok = ok and search.accepted
        ok = ok and search.max_checker_counted_steps <= 2
        ok = ok and len(search.witness) <= math.floor(math.log2(n)) + 1
    for n in range(1, 13):
        worst = max(
            run(scanner, "".join(bits), COUNT_ALL, fuel=4 * n + 16,
                record_trace=False).counted_steps
            for bits in product("01", repeat=n)
        )
        ok = ok and worst == n + 1
    report(5, "scanner is linear worst-case, positioned checker constant, "
              "witness numerals logarithmic", ok)


def test_criterion_6_certificate_search_soundness():
    _, checker = build_demo_machines()
    g = MeasureFunction("log", a=1, b=1)
    words = list(all_words("01", 10))
    assert len(words) == 2047
    ok = all(decide_nc(checker, g, w).accepted == ("1" in w) for w in words)
    report(6, "certificate search agrees with direct membership on all "
              "2047 words of length <= 10", ok)


def battery():
    scanner, _ = build_demo_machines()
    return [
        scanner,
        build_trie_machine(BUILTIN_LANGUAGES["contains-1"], 4).machine,
        build_trie_machine(BUILTIN_LANGUAGES["div3"], 3).machine,
    ]


BATTERY_INPUTS = list(all_words("01", 4))[:20]


def test_criterion_7_transform_coherence():
    identity = MeasureFunction("identity")
    g = MeasureFunction("linear", a=1, b=2)
    ok = True
    for machine in battery():
        plain = check_bound(machine, COUNT_ALL, BoundSpec(g=g), BATTERY_INPUTS, fuel=100)
        outer = check_bound(machine, COUNT_ALL,
                            BoundSpec(g=g, mode="outer", transform=identity),
                            BATTERY_INPUTS, fuel=100)
        inner = check_bound(machine, COUNT_ALL,
                            BoundSpec(g=g, mode="inner", transform=identity),
                            BATTERY_INPUTS, fuel=100)
        ok = ok and plain == outer == inner
    g2 = MeasureFunction("linear", a=2, b=0)
    t2 = MeasureFunction("power", a=1, k=2)
    ok = ok and BoundSpec(g=g2, mode="outer", transform=t2).bound(3) == 18.0
    ok = ok and BoundSpec(g=g2, mode="inner", transform=t2).bound(3) == 36.0
    report(7, "identity transform collapses to plain mode; outer/inner "
              "compose in the right order", ok)


def test_criterion_8_cost_model_laws():
    rng = random.Random(SEED)
    machines = battery()
    ok = True
    for machine in machines:
        for word in BATTERY_INPUTS:
            result = run(machine, word, COUNT_ALL, fuel=100)
            ok = ok and result.counted_steps == result.total_steps
    non_halting = [
        sorted(m.states - {m.accept_state, m.reject_state}) for m in machines
    ]
    for _ in range(100):
        idx = rng.randrange(len(machines))
        machine = machines[idx]
        s = rng.choice(non_halting[idx])
        word = "".join(rng.choice("01") for _ in range(rng.randrange(13)))
        result = run(machine, word, CostModel(free_states={s}), fuel=100,
                     record_trace=True)
        from_s = sum(1 for rec in result.trace if rec.state == s)
        ok = ok and result.counted_steps + from_s == result.total_steps
    report(8, "count-all equals total steps; freeing one state removes "
              "exactly its transitions from the count (100 seeded runs)", ok)


def test_criterion_9_measure_validation():
    rng = random.Random(SEED)
    xs = [0.5 * (i + 1) for i in range(64)]
    ok = True
    for _ in range(1000):
        family = rng.choice(["identity", "linear", "log", "power", "exp2"])
        f = MeasureFunction(
            family,
            a=rng.uniform(0.1, 10.0),
            b=rng.uniform(0.0, 10.0),
            k=rng.uniform(0.1, 4.0),
        )
        ok = ok and check_monotone_sample(f, xs)
    report(9, "1000 seeded parameter draws all strictly monotone on a "
              "64-point sample", ok)


def test_criterion_10_round_trip_and_determinism(tries, capsys, tmp_path):
    scanner, rel = build_demo_machines()
    machines = [t.machine for t in tries.values()] + [scanner, rel.checker]
    ok = all(parse_machine_file(emit_machine(m)) == m for m in machines)

    assert main(["demo-nlogtime", "--max-n", "16"]) == 0
    first = capsys.readouterr().out
    assert main(["demo-nlogtime", "--max-n", "16"]) == 0
    ok = ok and first == capsys.readouterr().out

    path = tmp_path / "scanner.tm"
    path.write_text(emit_machine(scanner))
    args = ["profile", "--machine", str(path), "--lengths", "1..8",
            "--family", "random:count=16,seed=3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    ok = ok and first == capsys.readouterr().out
    report(10, "machine files round-trip exactly; repeated CSV invocations "
               "are byte-identical", ok)
