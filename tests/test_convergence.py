import pytest

from tmbench import (
    BLANK,
    COUNT_ALL,
    LanguageOracle,
    Machine,
    TrieSizeError,
    Verdict,
    build_trie_machine,
    find_convergence_index,
    run,
    verify_restriction,
    verify_step_count,
    verify_trie,
)
from tmbench.convergence import (
    BUILTIN_LANGUAGES,
    LONG_WORD_SAMPLE,
    TrieMachineReport,
    _long_word_sample,
)
from tmbench.machine import all_words

ALL_BUILTINS = sorted(BUILTIN_LANGUAGES)


def brute_contains_1(w):
    return "1" in w


def test_builtin_oracles():
    assert LanguageOracle.builtin("contains-1")("010")
    assert not LanguageOracle.builtin("contains-1")("000")
    assert LanguageOracle.builtin("parity-even-ones")("")
    assert LanguageOracle.builtin("parity-even-ones")("11")
    assert not LanguageOracle.builtin("parity-even-ones")("10")
    assert LanguageOracle.builtin("palindrome")("010")
    assert not LanguageOracle.builtin("palindrome")("01")
    assert LanguageOracle.builtin("all")("")
    assert not LanguageOracle.builtin("empty")("")
    assert LanguageOracle.builtin("div3")("")  # numeral 0
    assert LanguageOracle.builtin("div3")("11")  # 3
    assert not LanguageOracle.builtin("div3")("10")  # 2
    with pytest.raises(ValueError):
        LanguageOracle.builtin("no-such-language")


def test_finite_oracle():
    oracle = LanguageOracle.finite({"", "01"})
    assert oracle("") and oracle("01") and not oracle("1")
    with pytest.raises(ValueError):
        LanguageOracle.finite({"012"})


def test_finite_oracle_refuses_a_bare_string():
    # "0101" would otherwise be read as the language {"0", "1"}
    with pytest.raises(TypeError):
        LanguageOracle.finite("0101")
    assert LanguageOracle.finite(["0101"])("0101")


def test_empty_language_trie_rejects_everything():
    report = build_trie_machine(LanguageOracle.builtin("empty"), 2)
    assert report.state_count == 9
    for word in all_words("01", 2):
        assert run(report.machine, word, COUNT_ALL, fuel=20).verdict is Verdict.REJECTED


def test_contains_1_trie_matches_brute_force():
    report = build_trie_machine(LanguageOracle.builtin("contains-1"), 3)
    for word in all_words("01", 3):
        verdict = run(report.machine, word, COUNT_ALL, fuel=20).verdict
        assert (verdict is Verdict.ACCEPTED) == brute_contains_1(word)


def test_all_language_depth_zero():
    report = build_trie_machine(LanguageOracle.builtin("all"), 0)
    assert run(report.machine, "", COUNT_ALL, fuel=10).verdict is Verdict.ACCEPTED
    assert run(report.machine, "0", COUNT_ALL, fuel=10).verdict is Verdict.REJECTED
    assert run(report.machine, "1", COUNT_ALL, fuel=10).verdict is Verdict.REJECTED


@pytest.mark.parametrize("n", [0, 1, 4, 12])
def test_state_and_query_accounting(n):
    report = build_trie_machine(LanguageOracle.builtin("div3"), n)
    assert report.state_count == 2 ** (n + 1) + 1
    assert report.oracle_queries == 2 ** (n + 1) - 1


def test_depth_budget():
    with pytest.raises(TrieSizeError):
        build_trie_machine(LanguageOracle.builtin("all"), 21)
    with pytest.raises(ValueError):
        build_trie_machine(LanguageOracle.builtin("all"), -1)


def test_size_limits_name_themselves():
    oracle = LanguageOracle.builtin("all")
    with pytest.raises(TrieSizeError, match=r"depth 21 needs 2\^22\+1 states, "
                                            r"over the budget \(max depth 20\)"):
        build_trie_machine(oracle, 21)
    with pytest.raises(ValueError, match=r"k must be in 0\.\.12"):
        find_convergence_index(oracle, 13, 20)


def test_an_oracle_is_its_membership_callable():
    assert LanguageOracle.builtin("div3") == LanguageOracle.builtin("div3")
    assert hash(LanguageOracle.builtin("div3")) == hash(LanguageOracle.builtin("div3"))
    assert LanguageOracle.builtin("div3") != LanguageOracle.builtin("palindrome")
    assert LanguageOracle.builtin("div3").member is BUILTIN_LANGUAGES["div3"]
    pairs = LanguageOracle(lambda w: len(w) == 2)
    assert pairs("01") and not pairs("0")
    report = build_trie_machine(pairs, 3)
    assert verify_restriction(report, pairs) == (True, [])


@pytest.mark.parametrize("lang", ["contains-1", "parity-even-ones"])
def test_verify_restriction(lang):
    oracle = LanguageOracle.builtin(lang)
    report = build_trie_machine(oracle, 4)
    ok, counterexamples = verify_restriction(report, oracle)
    assert ok
    assert counterexamples == []


def test_verify_restriction_catches_corruption():
    oracle = LanguageOracle.builtin("contains-1")
    report = build_trie_machine(oracle, 2)
    m = report.machine
    trans = dict(m.transitions)
    # flip one membership lookup: the word "11" now rejects
    trans[("q_11", BLANK)] = (m.reject_state, BLANK, "R")
    corrupted = TrieMachineReport(
        machine=Machine(m.input_alphabet, m.tape_alphabet, m.states,
                        m.start_state, m.accept_state, m.reject_state, trans),
        n=report.n,
        oracle_queries=report.oracle_queries,
        state_count=report.state_count,
    )
    ok, counterexamples = verify_restriction(corrupted, oracle)
    assert not ok
    assert counterexamples == ["11"]


def test_verify_step_count_catches_corruption():
    oracle = LanguageOracle.builtin("contains-1")
    report = build_trie_machine(oracle, 2)
    m = report.machine
    trans = dict(m.transitions)
    # the lookup for "1" detours through the state for "11", whose lookup
    # accepts: the verdict stays right, the run takes one step more
    trans[("q_1", BLANK)] = ("q_11", BLANK, "R")
    corrupted = TrieMachineReport(
        machine=Machine(m.input_alphabet, m.tape_alphabet, m.states,
                        m.start_state, m.accept_state, m.reject_state, trans),
        n=report.n,
        oracle_queries=report.oracle_queries,
        state_count=report.state_count,
    )
    assert verify_restriction(corrupted, oracle) == (True, [])
    assert not verify_step_count(corrupted)
    assert verify_step_count(report)


def test_verify_trie_reports_verdicts_and_step_counts_together():
    oracle = LanguageOracle.builtin("contains-1")
    report = build_trie_machine(oracle, 2)
    m = report.machine
    trans = dict(m.transitions)
    # the lookup for "1" detours through the state for "00", whose lookup
    # rejects: a wrong verdict and one step more
    trans[("q_1", BLANK)] = ("q_00", BLANK, "R")
    corrupted = TrieMachineReport(
        machine=Machine(m.input_alphabet, m.tape_alphabet, m.states,
                        m.start_state, m.accept_state, m.reject_state, trans),
        n=report.n,
        oracle_queries=report.oracle_queries,
        state_count=report.state_count,
    )
    assert verify_trie(corrupted, oracle) == (["1"], False)
    assert verify_trie(corrupted) == ([], False)
    assert verify_trie(report, oracle) == ([], True)
    assert verify_trie(report) == ([], True)


@pytest.mark.parametrize("n", [11, 14])
def test_long_word_sample_past_depth_10(n):
    # past n = 10 the words of length n+1 are a fixed-seed sample, the same
    # on every call
    sample = _long_word_sample(n)
    assert len(sample) == LONG_WORD_SAMPLE == 256
    assert all(len(word) == n + 1 and set(word) <= {"0", "1"} for word in sample)
    assert sample == _long_word_sample(n)


def test_verify_trie_passes_on_the_sample_past_depth_10():
    oracle = LanguageOracle.builtin("div3")
    assert verify_trie(build_trie_machine(oracle, 11), oracle) == ([], True)


def test_verify_trie_counts_a_run_that_does_not_halt_as_a_counterexample():
    oracle = LanguageOracle.builtin("empty")
    report = build_trie_machine(oracle, 1)
    m = report.machine
    trans = dict(m.transitions)
    # the lookup for "0" walks left forever: no verdict, where L rejects
    trans[("q_0", BLANK)] = ("q_0", BLANK, "L")
    looping = TrieMachineReport(
        machine=Machine(m.input_alphabet, m.tape_alphabet, m.states,
                        m.start_state, m.accept_state, m.reject_state, trans),
        n=report.n,
        oracle_queries=report.oracle_queries,
        state_count=report.state_count,
    )
    assert verify_trie(looping, oracle) == (["0"], False)


@pytest.mark.parametrize("lang", ALL_BUILTINS)
def test_verify_step_count(lang):
    report = build_trie_machine(LanguageOracle.builtin(lang), 4)
    assert verify_step_count(report)


def test_step_counts_by_hand():
    machine = build_trie_machine(LanguageOracle.builtin("contains-1"), 3).machine
    assert run(machine, "", COUNT_ALL, fuel=10).total_steps == 1
    assert run(machine, "010", COUNT_ALL, fuel=10).total_steps == 4
    # length-capped rejection: three consumptions, then the cap rule fires
    long_run = run(machine, "0101", COUNT_ALL, fuel=10)
    assert long_run.verdict is Verdict.REJECTED
    assert long_run.total_steps == 4


def test_halting_bound_any_length():
    n = 3
    machine = build_trie_machine(LanguageOracle.builtin("palindrome"), n).machine
    for word in all_words("01", 6):
        result = run(machine, word, COUNT_ALL, fuel=50)
        assert result.total_steps <= min(len(word), n) + 2
        if len(word) <= n:
            assert result.total_steps == len(word) + 1


@pytest.mark.parametrize("m,n", [(0, 2), (1, 3), (2, 4), (3, 4)])
def test_monotone_refinement(m, n):
    oracle = LanguageOracle.builtin("div3")
    small = build_trie_machine(oracle, m).machine
    big = build_trie_machine(oracle, n).machine
    for word in all_words("01", n):
        in_small = run(small, word, COUNT_ALL, fuel=20).verdict is Verdict.ACCEPTED
        in_big = run(big, word, COUNT_ALL, fuel=20).verdict is Verdict.ACCEPTED
        assert in_small == (in_big and len(word) <= m)


def test_convergence_contains_1():
    report = find_convergence_index(LanguageOracle.builtin("contains-1"), 3, 10)
    assert report.n_k is not None and report.n_k <= 3
    assert report.verified_words == 15


def test_convergence_empty_language():
    report = find_convergence_index(LanguageOracle.builtin("empty"), 5, 10)
    assert report.n_k == 0
    assert report.verified_words == 63


def test_convergence_all_language():
    report = find_convergence_index(LanguageOracle.builtin("all"), 2, 10)
    assert report.n_k == 2


def test_convergence_preconditions():
    oracle = LanguageOracle.builtin("all")
    with pytest.raises(ValueError):
        find_convergence_index(oracle, 13, 20)
    with pytest.raises(ValueError):
        find_convergence_index(oracle, 5, 2)


@pytest.mark.parametrize("lang", ALL_BUILTINS)
def test_convergence_minimality(lang):
    oracle = LanguageOracle.builtin(lang)
    for k in range(5):
        report = find_convergence_index(oracle, k, 12)
        assert report.n_k is not None
        assert report.n_k <= k
        if report.n_k > 0:
            # one index earlier must genuinely disagree somewhere
            machine = build_trie_machine(oracle, report.n_k - 1).machine
            assert any(
                (run(machine, w, COUNT_ALL, fuel=20).verdict is Verdict.ACCEPTED)
                != oracle(w)
                for w in all_words("01", k)
            )


def test_convergence_walk_stops_at_the_first_disagreeing_trie(monkeypatch):
    import tmbench.convergence as convergence

    built = []

    def counting(L, n):
        built.append(n)
        return build_trie_machine(L, n)

    monkeypatch.setattr(convergence, "build_trie_machine", counting)
    report = find_convergence_index(LanguageOracle.builtin("palindrome"), 8, 8)
    assert (report.n_k, report.verified_words) == (8, 511)
    assert built == [8, 7]


@pytest.mark.parametrize("oracle", [LanguageOracle.builtin(name) for name in ALL_BUILTINS]
                         + [LanguageOracle.finite(words) for words in
                            ({"", "01"}, {"1"}, {"0110"}, {"000", "1"})])
def test_convergence_walk_matches_the_agreement_table(oracle):
    for k in range(5):
        agreement = [
            all((run(build_trie_machine(oracle, n).machine, w, COUNT_ALL, fuel=20).verdict
                 is Verdict.ACCEPTED) == oracle(w) for w in all_words("01", k))
            for n in range(k + 1)
        ]
        least = next((n for n in range(k + 1) if all(agreement[n:])), None)
        assert find_convergence_index(oracle, k, k).n_k == least
