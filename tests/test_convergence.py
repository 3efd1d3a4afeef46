import hashlib
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

import tmbench.convergence as convergence
from tmbench import (
    BLANK,
    COUNT_ALL,
    Machine,
    TrieSizeError,
    Verdict,
    build_trie_machine,
    emit_machine,
    find_convergence_index,
    finite_language,
    run,
    verify_trie,
)
from tmbench.cli import load_language, main
from tmbench.convergence import (
    BUILTIN_LANGUAGES,
    LONG_WORD_SAMPLE,
    TrieMachineReport,
    _long_word_sample,
    _trie_table,
    verify_restriction,
    verify_step_count,
)
from tmbench.machine import _compile, all_words, initial_configuration

from reference import reference

ALL_BUILTINS = sorted(BUILTIN_LANGUAGES)


def brute_contains_1(w):
    return "1" in w


def test_builtin_oracles():
    assert BUILTIN_LANGUAGES["contains-1"]("010")
    assert not BUILTIN_LANGUAGES["contains-1"]("000")
    assert BUILTIN_LANGUAGES["parity-even-ones"]("")
    assert BUILTIN_LANGUAGES["parity-even-ones"]("11")
    assert not BUILTIN_LANGUAGES["parity-even-ones"]("10")
    assert BUILTIN_LANGUAGES["palindrome"]("010")
    assert not BUILTIN_LANGUAGES["palindrome"]("01")
    assert BUILTIN_LANGUAGES["all"]("")
    assert not BUILTIN_LANGUAGES["empty"]("")
    assert BUILTIN_LANGUAGES["div3"]("")  # numeral 0
    assert BUILTIN_LANGUAGES["div3"]("11")  # 3
    assert not BUILTIN_LANGUAGES["div3"]("10")  # 2
    with pytest.raises(ValueError):
        load_language("no-such-language")


def test_finite_oracle():
    oracle = finite_language({"", "01"})
    assert oracle("") and oracle("01") and not oracle("1")
    with pytest.raises(ValueError):
        finite_language({"012"})


def test_finite_oracle_refuses_a_bare_string():
    # "0101" would otherwise be read as the language {"0", "1"}
    with pytest.raises(TypeError):
        finite_language("0101")
    assert finite_language(["0101"])("0101")


def test_empty_language_trie_rejects_everything():
    report = build_trie_machine(BUILTIN_LANGUAGES["empty"], 2)
    assert report.state_count == 9
    for word in all_words("01", 2):
        assert run(report.machine, word, COUNT_ALL, fuel=20).verdict is Verdict.REJECTED


def test_contains_1_trie_matches_brute_force():
    report = build_trie_machine(BUILTIN_LANGUAGES["contains-1"], 3)
    for word in all_words("01", 3):
        verdict = run(report.machine, word, COUNT_ALL, fuel=20).verdict
        assert (verdict is Verdict.ACCEPTED) == brute_contains_1(word)


def test_all_language_depth_zero():
    report = build_trie_machine(BUILTIN_LANGUAGES["all"], 0)
    assert run(report.machine, "", COUNT_ALL, fuel=10).verdict is Verdict.ACCEPTED
    assert run(report.machine, "0", COUNT_ALL, fuel=10).verdict is Verdict.REJECTED
    assert run(report.machine, "1", COUNT_ALL, fuel=10).verdict is Verdict.REJECTED


@pytest.mark.parametrize("n", [0, 1, 4, 12])
def test_state_and_query_accounting(n):
    report = build_trie_machine(BUILTIN_LANGUAGES["div3"], n)
    assert report.state_count == 2 ** (n + 1) + 1
    assert report.oracle_queries == 2 ** (n + 1) - 1


def test_depth_budget():
    with pytest.raises(TrieSizeError):
        build_trie_machine(BUILTIN_LANGUAGES["all"], 21)
    with pytest.raises(ValueError):
        build_trie_machine(BUILTIN_LANGUAGES["all"], -1)


def test_size_limits_name_themselves():
    oracle = BUILTIN_LANGUAGES["all"]
    with pytest.raises(TrieSizeError, match=r"depth 21 needs 2\^22\+1 states, "
                                            r"over the budget \(max depth 20\)"):
        build_trie_machine(oracle, 21)
    with pytest.raises(ValueError, match=r"k must be in 0\.\.12"):
        find_convergence_index(oracle, 13, 20)


def test_an_oracle_is_its_membership_callable():
    assert load_language("div3") is BUILTIN_LANGUAGES["div3"]
    pairs = lambda w: len(w) == 2
    assert pairs("01") and not pairs("0")
    report = build_trie_machine(pairs, 3)
    assert verify_restriction(report, pairs) == (True, [])


@pytest.mark.parametrize("lang", ["contains-1", "parity-even-ones"])
def test_verify_restriction(lang):
    oracle = BUILTIN_LANGUAGES[lang]
    report = build_trie_machine(oracle, 4)
    ok, counterexamples = verify_restriction(report, oracle)
    assert ok
    assert counterexamples == []


@contextmanager
def running(machine):
    """Within the block, verify_trie and find_convergence_index run machine,
    compiled as a run compiles it, in place of the table a report's answers
    give: one simulated run per word, entries filled as the runs reach them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(convergence, "_trie_table", lambda report: _compile(machine, COUNT_ALL))
        yield


def test_verify_restriction_catches_corruption():
    oracle = BUILTIN_LANGUAGES["contains-1"]
    report = build_trie_machine(oracle, 2)
    m = report.machine
    trans = dict(m.transitions)
    # flip one membership lookup: the word "11" now rejects
    trans[("q_11", BLANK)] = (m.reject_state, BLANK, "R")
    corrupted = Machine(m.input_alphabet, m.tape_alphabet, m.states,
                        m.start_state, m.accept_state, m.reject_state, trans)
    with running(corrupted):
        ok, counterexamples = verify_restriction(report, oracle)
    assert not ok
    assert counterexamples == ["11"]


def test_verify_step_count_catches_corruption():
    oracle = BUILTIN_LANGUAGES["contains-1"]
    report = build_trie_machine(oracle, 2)
    m = report.machine
    trans = dict(m.transitions)
    # the lookup for "1" detours through the state for "11", whose lookup
    # accepts: the verdict stays right, the run takes one step more
    trans[("q_1", BLANK)] = ("q_11", BLANK, "R")
    corrupted = Machine(m.input_alphabet, m.tape_alphabet, m.states,
                        m.start_state, m.accept_state, m.reject_state, trans)
    with running(corrupted):
        assert verify_restriction(report, oracle) == (True, [])
        assert not verify_step_count(report)
    assert verify_step_count(report)


def test_verify_trie_reports_verdicts_and_step_counts_together():
    oracle = BUILTIN_LANGUAGES["contains-1"]
    report = build_trie_machine(oracle, 2)
    m = report.machine
    trans = dict(m.transitions)
    # the lookup for "1" detours through the state for "00", whose lookup
    # rejects: a wrong verdict and one step more
    trans[("q_1", BLANK)] = ("q_00", BLANK, "R")
    corrupted = Machine(m.input_alphabet, m.tape_alphabet, m.states,
                        m.start_state, m.accept_state, m.reject_state, trans)
    with running(corrupted):
        assert verify_trie(report, oracle) == (["1"], False)
        assert verify_trie(report) == ([], False)
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
    oracle = BUILTIN_LANGUAGES["div3"]
    assert verify_trie(build_trie_machine(oracle, 11), oracle) == ([], True)


def test_verify_trie_counts_a_run_that_does_not_halt_as_a_counterexample():
    oracle = BUILTIN_LANGUAGES["empty"]
    report = build_trie_machine(oracle, 1)
    m = report.machine
    trans = dict(m.transitions)
    # the lookup for "0" walks left forever: no verdict, where L rejects
    trans[("q_0", BLANK)] = ("q_0", BLANK, "L")
    looping = Machine(m.input_alphabet, m.tape_alphabet, m.states,
                      m.start_state, m.accept_state, m.reject_state, trans)
    with running(looping):
        assert verify_trie(report, oracle) == (["0"], False)


@pytest.mark.parametrize("lang", ALL_BUILTINS)
def test_verify_step_count(lang):
    report = build_trie_machine(BUILTIN_LANGUAGES[lang], 4)
    assert verify_step_count(report)


def test_step_counts_by_hand():
    machine = build_trie_machine(BUILTIN_LANGUAGES["contains-1"], 3).machine
    assert run(machine, "", COUNT_ALL, fuel=10).total_steps == 1
    assert run(machine, "010", COUNT_ALL, fuel=10).total_steps == 4
    # length-capped rejection: three consumptions, then the cap rule fires
    long_run = run(machine, "0101", COUNT_ALL, fuel=10)
    assert long_run.verdict is Verdict.REJECTED
    assert long_run.total_steps == 4


def test_halting_bound_any_length():
    n = 3
    machine = build_trie_machine(BUILTIN_LANGUAGES["palindrome"], n).machine
    for word in all_words("01", 6):
        result = run(machine, word, COUNT_ALL, fuel=50)
        assert result.total_steps <= min(len(word), n) + 2
        if len(word) <= n:
            assert result.total_steps == len(word) + 1


@pytest.mark.parametrize("m,n", [(0, 2), (1, 3), (2, 4), (3, 4)])
def test_monotone_refinement(m, n):
    oracle = BUILTIN_LANGUAGES["div3"]
    small = build_trie_machine(oracle, m).machine
    big = build_trie_machine(oracle, n).machine
    for word in all_words("01", n):
        in_small = run(small, word, COUNT_ALL, fuel=20).verdict is Verdict.ACCEPTED
        in_big = run(big, word, COUNT_ALL, fuel=20).verdict is Verdict.ACCEPTED
        assert in_small == (in_big and len(word) <= m)


def test_convergence_contains_1():
    report = find_convergence_index(BUILTIN_LANGUAGES["contains-1"], 3, 10)
    assert report.n_k is not None and report.n_k <= 3
    assert report.verified_words == 15


def test_convergence_empty_language():
    report = find_convergence_index(BUILTIN_LANGUAGES["empty"], 5, 10)
    assert report.n_k == 0
    assert report.verified_words == 63


def test_convergence_all_language():
    report = find_convergence_index(BUILTIN_LANGUAGES["all"], 2, 10)
    assert report.n_k == 2


def test_convergence_preconditions():
    oracle = BUILTIN_LANGUAGES["all"]
    with pytest.raises(ValueError):
        find_convergence_index(oracle, 13, 20)
    with pytest.raises(ValueError):
        find_convergence_index(oracle, 5, 2)


@pytest.mark.parametrize("lang", ALL_BUILTINS)
def test_convergence_minimality(lang):
    oracle = BUILTIN_LANGUAGES[lang]
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
    built, walked = [], []

    def building(L, n):
        built.append(n)
        return build_trie_machine(L, n)

    def walking(report):
        walked.append(report.n)
        return _trie_table(report)

    monkeypatch.setattr(convergence, "build_trie_machine", building)
    monkeypatch.setattr(convergence, "_trie_table", walking)
    report = find_convergence_index(BUILTIN_LANGUAGES["palindrome"], 8, 8)
    assert (report.n_k, report.verified_words) == (8, 511)
    assert walked == [8, 7]
    assert built == [8]


@pytest.mark.parametrize("oracle", [BUILTIN_LANGUAGES[name] for name in ALL_BUILTINS]
                         + [finite_language(words) for words in
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


# --- the convergence walk's closed form -------------------------------------

def assert_closed_form(L, k, longest):
    """n_k is the greatest length <= k of a word of L (0 when L has none),
    and the walk checks every word of length <= k."""
    report = find_convergence_index(L, k, k)
    assert (report.n_k, report.verified_words) == (longest, 2 ** (k + 1) - 1)


@pytest.mark.parametrize("lang", ALL_BUILTINS)
def test_a_builtin_converges_at_its_longest_word_within_k(lang):
    L = BUILTIN_LANGUAGES[lang]
    for k in range(11):
        assert_closed_form(L, k, max((len(w) for w in all_words("01", k) if L(w)), default=0))


@settings(max_examples=100, deadline=None)
@given(st.frozensets(st.text("01", max_size=10), max_size=6), st.integers(0, 10))
def test_a_finite_language_converges_at_its_longest_word_within_k(words, k):
    assert_closed_form(finite_language(words), k,
                       max((len(w) for w in words if len(w) <= k), default=0))


# --- the trie build in heap order against a per-prefix construction ---------

def reference_trie(L, n):
    """The depth-n trie built prefix by prefix, each state named and each
    child found by appending a bit: (machine, queries, state count)."""
    transitions, states, queries = {}, {"q_accept", "q_reject"}, 0
    for prefix in all_words("01", n):
        q = "q_" + prefix
        states.add(q)
        for bit in "01":
            child = "q_reject" if len(prefix) == n else "q_" + prefix + bit
            transitions[(q, bit)] = (child, BLANK, "R")
        queries += 1
        transitions[(q, BLANK)] = ("q_accept" if L(prefix) else "q_reject", BLANK, "R")
    machine = Machine(frozenset("01"), frozenset("01" + BLANK), frozenset(states), "q_",
                      "q_accept", "q_reject", transitions)
    return machine, queries, len(states)


@pytest.mark.parametrize("lang", ALL_BUILTINS)
def test_heap_order_build_matches_the_per_prefix_construction(lang):
    oracle = BUILTIN_LANGUAGES[lang]
    for n in range(9):
        report = build_trie_machine(oracle, n)
        machine, queries, state_count = reference_trie(oracle, n)
        assert report.machine == machine
        assert (report.oracle_queries, report.state_count) == (queries, state_count)
        assert emit_machine(report.machine) == emit_machine(machine)


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_trie_build_asks_the_oracle_once_per_prefix_in_order(n):
    asked = []

    def recording(word):
        asked.append(word)
        return len(word) % 2 == 0

    report = build_trie_machine(recording, n)
    assert asked == list(all_words("01", n))
    assert report.oracle_queries == len(asked) == 2 ** (n + 1) - 1


def test_depth_zero_trie_is_one_lookup_and_two_rejections():
    report = build_trie_machine(BUILTIN_LANGUAGES["empty"], 0)
    assert report.machine.transitions == {
        ("q_", "0"): ("q_reject", BLANK, "R"),
        ("q_", "1"): ("q_reject", BLANK, "R"),
        ("q_", BLANK): ("q_reject", BLANK, "R"),
    }
    assert report.machine.states == {"q_", "q_accept", "q_reject"}
    assert (report.oracle_queries, report.state_count) == (1, 3)
    assert verify_trie(report, BUILTIN_LANGUAGES["empty"]) == ([], True)


# --- oracles whose answers are truthy values, not bools -----------------------

@pytest.mark.parametrize("member", [
    lambda w: w.count("1") % 3,  # an int: 1 and 2 are members
    lambda w: "yes" if "1" in w else "",
])
def test_convergence_reads_an_answer_by_its_truth_as_the_trie_does(member):
    oracle = member
    as_bool = lambda w: bool(member(w))
    for k in range(6):
        report = build_trie_machine(oracle, k)
        assert verify_trie(report, oracle) == ([], True)
        assert report.machine == build_trie_machine(as_bool, k).machine
        assert find_convergence_index(oracle, k, k) == find_convergence_index(as_bool, k, k)
        assert find_convergence_index(oracle, k, k).n_k is not None


@pytest.mark.parametrize("k", [0, 1, 4, 10])
def test_convergence_asks_the_oracle_once_per_word_in_all(k):
    """The walk asks the oracle only through its one build, so each word
    is asked once, in all_words order."""
    asked = []

    def recording(word):
        asked.append(word)
        return word.count("1") % 2 == 0

    report = find_convergence_index(recording, k, k)
    assert asked == list(all_words("01", k))
    assert (report.n_k, report.verified_words) == (k, 2 ** (k + 1) - 1)
    assert report == find_convergence_index(BUILTIN_LANGUAGES["parity-even-ones"], k, k)


# --- the trie from its answers against the per-prefix construction ----------

FINITE_LANGUAGES = [{"", "01"}, {"1"}, {"0110"}, {"000", "1"}]
LANGUAGES = ([(name, BUILTIN_LANGUAGES[name]) for name in ALL_BUILTINS]
             + [(sorted(words), finite_language(words)) for words in FINITE_LANGUAGES])
LANGUAGE_IDS = [str(name) for name, _ in LANGUAGES]


def language_spec(name, tmp_path):
    """The --lang argument for a built-in name or a finite word list."""
    if isinstance(name, str):
        return name
    path = tmp_path / "lang.txt"
    path.write_text("".join(f"{word or 'eps'}\n" for word in name))
    return f"@{path}"


@pytest.mark.parametrize("name,oracle", LANGUAGES, ids=LANGUAGE_IDS)
def test_each_trie_the_walk_runs_is_the_built_trie_of_its_depth(name, oracle, monkeypatch):
    walked = []

    def walking(report):
        walked.append(report)
        return _trie_table(report)

    monkeypatch.setattr(convergence, "_trie_table", walking)
    for k in range(7):
        walked.clear()
        report = find_convergence_index(oracle, k, k)
        assert [trie.n for trie in walked] == list(range(k, k - len(walked), -1))
        assert walked[-1].n == max(report.n_k - 1, 0)
        for trie in walked:
            assert trie == build_trie_machine(oracle, trie.n)


@pytest.mark.parametrize("name,oracle", LANGUAGES, ids=LANGUAGE_IDS)
def test_gen_trie_writes_the_per_prefix_construction(name, oracle, tmp_path, capsys):
    spec = language_spec(name, tmp_path)
    for n in range(9):
        assert main(["gen-trie", "--lang", spec, "--n", str(n), "--out", "-"]) == 0
        out, err = capsys.readouterr()
        machine, queries, state_count = reference_trie(oracle, n)
        assert out == emit_machine(machine)
        assert err == f"# states={state_count} oracle_queries={queries}\n"


@pytest.mark.parametrize("name,oracle", LANGUAGES, ids=LANGUAGE_IDS)
def test_verify_trie_from_the_answers_matches_running_the_per_prefix_machine(name, oracle):
    other = BUILTIN_LANGUAGES["parity-even-ones"]
    for n in range(9):
        built = build_trie_machine(oracle, n)
        for L in (oracle, None, other):
            with running(reference_trie(oracle, n)[0]):
                expected = verify_trie(built, L)
            assert verify_trie(built, L) == expected
        assert "machine" not in vars(built)
        assert verify_trie(built, oracle) == ([], True)


@pytest.mark.parametrize("name,oracle", LANGUAGES, ids=LANGUAGE_IDS)
def test_the_table_from_the_answers_runs_as_the_compiled_machine(name, oracle):
    """Verdict, total and counted steps of every word up to length n + 2,
    with fuel to spare and with fuel that runs out."""
    for n in range(9):
        report = build_trie_machine(oracle, n)
        table = _trie_table(report)
        assert "machine" not in vars(report)
        compiled = _compile(reference_trie(oracle, n)[0], COUNT_ALL)
        words = list(all_words("01", min(n + 2, 7)))
        for fuel in (n + 4, 1, 2):
            assert list(table.on_words(words, fuel)) == list(compiled.on_words(words, fuel))


@pytest.mark.parametrize("name,oracle", LANGUAGES, ids=LANGUAGE_IDS)
def test_runs_on_the_built_machine_match_the_dict_stepper(name, oracle):
    for n in range(9):
        machine = build_trie_machine(oracle, n).machine
        assert machine == reference_trie(oracle, n)[0]
        for word in all_words("01", min(n + 1, 6)):
            for fuel in (n + 4, 2):
                verdict, _, _, records, final = reference(
                    machine, initial_configuration(machine, word), machine.transitions, fuel)
                for record_trace in (True, False):
                    result = run(machine, word, COUNT_ALL, fuel, record_trace)
                    assert (result.verdict, result.total_steps, result.counted_steps) == (
                        verdict, len(records), len(records))
                    assert result.trace == (records if record_trace else None)
                    assert (result.final.state, result.final.head, result.final.tape) == (
                        final.state, final.head, final.tape)


def test_build_and_verify_at_depth_12_build_no_transitions_dict(monkeypatch):
    import tmbench.machine

    def refuse(*args):
        raise AssertionError("the transitions dict was built")

    oracle = BUILTIN_LANGUAGES["div3"]
    monkeypatch.setattr(convergence, "Machine", refuse)
    monkeypatch.setattr(tmbench.machine, "_compile", refuse)
    report = build_trie_machine(oracle, 12)
    assert verify_trie(report, oracle) == ([], True)
    assert verify_restriction(report, oracle) == (True, [])
    assert verify_step_count(report)
    assert "machine" not in vars(report)
    assert find_convergence_index(oracle, 6, 6).n_k == 6


def test_a_built_report_builds_its_machine_once_and_equals_a_hand_built_one():
    report = build_trie_machine(BUILTIN_LANGUAGES["palindrome"], 3)
    machine = report.machine
    assert report.machine is machine
    by_hand = TrieMachineReport(3, report.answers)
    assert report == by_hand
    assert repr(report) == repr(by_hand)
    assert by_hand.machine == machine
    with pytest.raises(AttributeError):
        report.no_such_field


def test_a_report_is_a_value_of_its_depth_and_its_answers():
    report = build_trie_machine(BUILTIN_LANGUAGES["all"], 3)
    same = build_trie_machine(lambda w: True, 3)
    assert report == same and hash(report) == hash(same)
    assert report != build_trie_machine(BUILTIN_LANGUAGES["all"], 2)
    assert report != build_trie_machine(BUILTIN_LANGUAGES["empty"], 3)
    assert (report.n, report.answers) == (3, b"\x01" * 15)
    assert repr(report) == "TrieMachineReport(n=3)"
    assert "machine" not in vars(report)
    with pytest.raises(AttributeError):
        report.state_count = 0


@pytest.mark.parametrize("n,answers", [(3, b"\x01"), (0, b""), (0, b"\x00\x01"), (-1, b"")])
def test_a_report_refuses_a_negative_depth_or_a_wrong_answer_count(n, answers):
    with pytest.raises(ValueError):
        TrieMachineReport(n, answers)


@pytest.mark.parametrize("n,answers,error", [
    (1, bytearray(b"\x01\x00\x01"), TypeError),  # unhashable
    (1, [5, "", None], TypeError),  # its listing would read each value by its truth
    (1, b"\x02\x00\x01", ValueError),  # would list the same machine as b"\x01\x00\x01"
    (1.0, b"\x01\x00\x01", TypeError),  # would fail only in listing()
])
def test_a_report_refuses_a_non_integer_depth_or_answers_that_are_not_bytes_0_and_1(
        n, answers, error):
    with pytest.raises(error):
        TrieMachineReport(n, answers)


@pytest.mark.parametrize("n", [0, 1, 4])
def test_a_report_built_by_hand_lists_and_builds_its_machine(n):
    answers = bytes(w.count("1") % 2 for w in all_words("01", n))
    report = TrieMachineReport(n, answers)
    assert report == build_trie_machine(lambda w: w.count("1") % 2 == 1, n)
    assert (report.oracle_queries, report.state_count) == (2 ** (n + 1) - 1, 2 ** (n + 1) + 1)
    assert emit_machine(report.listing()) == emit_machine(report.machine)
    assert verify_trie(report, lambda w: w.count("1") % 2 == 1) == ([], True)


def test_gen_trie_at_the_benchmark_depth_writes_the_pinned_bytes(capsys):
    assert main(["gen-trie", "--lang", "div3", "--n", "14", "--out", "-"]) == 0
    out, err = capsys.readouterr()
    data = out.encode("utf-8")
    assert len(data) == 4_784_174
    assert hashlib.sha256(data).hexdigest() == (
        "adb76e27437c962bb13f3c95cb7dab4009c1b89996caa19e6fee5281854c13cb")
    assert err == "# states=32769 oracle_queries=32767\n"
