import argparse
import contextlib
import io
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tmbench.cli
from tmbench import (
    BLANK,
    BUILTIN_LANGUAGES,
    RIGHT,
    Machine,
    build_demo_machines,
    build_trie_machine,
    emit_machine,
    find_convergence_index,
)
from tmbench.cli import _parser, build_parser, main


@pytest.fixture
def scanner_file(tmp_path):
    path = tmp_path / "scanner.tm"
    path.write_text(emit_machine(build_demo_machines()[0]))
    return str(path)


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_accept(capsys, scanner_file):
    code, out, _ = invoke(capsys, "run", "--machine", scanner_file, "--input", "001")
    assert code == 0
    assert "verdict: accepted" in out
    assert "total_steps: 3" in out


def test_run_exit_status(capsys, scanner_file):
    code, _, _ = invoke(capsys, "run", "--machine", scanner_file,
                        "--input", "0000", "--exit-status")
    assert code == 1
    code, _, _ = invoke(capsys, "run", "--machine", scanner_file,
                        "--input", "001", "--exit-status")
    assert code == 0


def test_run_on_a_tape_alphabet_past_255_symbols_is_exit_2(capsys, tmp_path):
    # a tape cell is a byte: 255 symbols, the blank's included, is the most
    for size, code in ((255, 0), (256, 2)):
        symbols = [chr(0x100 + i) for i in range(size - 1)]
        machine = Machine(frozenset(symbols), frozenset(symbols + [BLANK]),
                          frozenset({"q", "acc", "rej"}), "q", "acc", "rej",
                          {("q", s): ("acc", s, RIGHT) for s in symbols + [BLANK]})
        path = tmp_path / f"wide{size}.tm"
        path.write_text(emit_machine(machine))
        result = invoke(capsys, "run", "--machine", str(path), "--input", symbols[-1])
        assert result[0] == code
        if code:
            assert result[1:] == ("", "error: line 0: invalid machine: "
                                      "tape alphabet has 256 symbols, more than 255\n")


def test_run_empty_word_token(capsys, scanner_file):
    code, out, _ = invoke(capsys, "run", "--machine", scanner_file, "--input", "eps")
    assert code == 0
    assert "verdict: rejected" in out
    assert "total_steps: 1" in out


def test_bad_machine_file_is_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.tm"
    path.write_text("states: a\n")
    code, _, err = invoke(capsys, "run", "--machine", str(path), "--input", "0")
    assert code == 2
    assert "error:" in err


def test_unknown_flag_is_exit_2(scanner_file):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--machine", scanner_file, "--input", "0", "--frobnicate"])
    assert excinfo.value.code == 2


def test_an_option_given_as_dashes_has_the_value_dashes(capsys, tmp_path, scanner_file):
    """'--option=--' gives the option the value '--' on every Python, as
    argparse does from 3.13 on; before, the value came through as []."""
    dashes = Machine(frozenset("-"), frozenset({"-", BLANK}), frozenset({"q", "acc", "rej"}),
                     "q", "acc", "rej",
                     {("q", "-"): ("q", "-", RIGHT), ("q", BLANK): ("acc", BLANK, RIGHT)})
    path = tmp_path / "dashes.tm"
    path.write_text(emit_machine(dashes))
    code, out, err = invoke(capsys, "run", f"--machine={path}", "--input=--")
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["verdict: accepted", "total_steps: 3"]
    code, out, err = invoke(capsys, "check-bound", f"--machine={path}", "--g=linear:a=1,b=1",
                            "--input=--", "--input=eps")
    assert (code, err) == (0, "")
    assert [line.split(",")[0] for line in out.splitlines()[1:3]] == ["--", "eps"]
    code, out, err = invoke(capsys, "profile", f"--machine={scanner_file}", "--lengths=--")
    assert (code, out, err) == (2, "", "error: lengths must be '<lo>..<hi>', got '--'\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["run", f"--machine={scanner_file}", "--input=0", "--fuel=--"])
    assert excinfo.value.code == 2
    assert "argument --fuel: invalid int value: '--'" in capsys.readouterr().err


def test_gen_trie_round_trip(capsys, tmp_path, scanner_file):
    out_path = tmp_path / "trie.tm"
    code, _, err = invoke(capsys, "gen-trie", "--lang", "contains-1",
                          "--n", "2", "--out", str(out_path))
    assert code == 0
    assert "states=9" in err
    code, out, _ = invoke(capsys, "run", "--machine", str(out_path), "--input", "01")
    assert code == 0
    assert "verdict: accepted" in out
    assert "total_steps: 3" in out


def test_gen_trie_finite_language_file(capsys, tmp_path):
    lang = tmp_path / "lang.txt"
    lang.write_text("# tiny language\neps\n01\n")
    out_path = tmp_path / "trie.tm"
    code, _, _ = invoke(capsys, "gen-trie", "--lang", f"@{lang}",
                        "--n", "2", "--out", str(out_path))
    assert code == 0
    for word, expected in (("eps", "accepted"), ("01", "accepted"), ("1", "rejected")):
        _, out, _ = invoke(capsys, "run", "--machine", str(out_path), "--input", word)
        assert f"verdict: {expected}" in out


def test_verify_trie(capsys):
    code, out, _ = invoke(capsys, "verify-trie", "--lang", "palindrome", "--n", "3")
    assert code == 0
    assert "restriction: pass" in out
    assert "step_count: pass" in out


def test_verify_trie_prints_each_counterexample_of_a_wrong_build(capsys, monkeypatch):
    # the trie is built from 'empty' and checked against parity-even-ones,
    # so each of its words up to length 2 is a counterexample; every word
    # of length 3 is rejected by both, and the step counts still hold
    empty = BUILTIN_LANGUAGES["empty"]
    monkeypatch.setattr(tmbench.cli, "build_trie_machine",
                        lambda oracle, n: build_trie_machine(empty, n))
    code, out, err = invoke(capsys, "verify-trie", "--lang", "parity-even-ones", "--n", "2")
    assert (code, err) == (3, "")
    assert out == ("restriction: fail\n"
                   "counterexample: eps\n"
                   "counterexample: 0\n"
                   "counterexample: 00\n"
                   "counterexample: 11\n"
                   "step_count: pass\n")


def test_converge(capsys):
    code, out, _ = invoke(capsys, "converge", "--lang", "all", "--k", "2", "--budget", "8")
    assert code == 0
    assert "n_k=2" in out


def test_profile_zeros(capsys, scanner_file):
    code, out, _ = invoke(capsys, "profile", "--machine", scanner_file,
                          "--lengths", "1..4", "--family", "zeros")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "length,max_counted_steps,argmax_input"
    assert lines[2:] == ["1,2,0", "2,3,00", "3,4,000", "4,5,0000"]


def test_profile_ones(capsys, scanner_file):
    code, out, _ = invoke(capsys, "profile", "--machine", scanner_file,
                          "--lengths", "1..4", "--family", "ones")
    rows = [line.split(",") for line in out.splitlines()[2:]]
    # first cell is already '1': one applied transition into the accept state
    assert all(row[1] == "1" for row in rows)


def test_profile_random_is_reproducible(capsys, scanner_file):
    args = ("profile", "--machine", scanner_file, "--lengths", "1..6",
            "--family", "random:count=8,seed=7")
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second
    assert "seed=7" in first.splitlines()[0]


@pytest.mark.parametrize("family", [
    "random:count=2", "random:seed=1", "random:", "random:count=2,seed=x",
    "random:count=2,seed=1,extra=3", "random:count=2,count=3,seed=1",
    "random:count=0,seed=1", "random:count2,seed=1",
])
def test_profile_malformed_random_family_is_exit_2(capsys, scanner_file, family):
    code, out, err = invoke(capsys, "profile", "--machine", scanner_file,
                            "--lengths", "1..2", "--family", family)
    assert code == 2
    assert err.startswith("error:") and "random" in err
    assert out == ""


def test_profile_all_cap(capsys, scanner_file):
    # the cap is checked before any row: 16..17 prints no row for length 16
    for lengths in ("17..17", "16..17"):
        code, out, err = invoke(capsys, "profile", "--machine", scanner_file,
                                "--lengths", lengths, "--family", "all")
        assert code == 2
        assert "capped" in err
        assert out == ""


BAD_LENGTHS = {"-2..1": "need 0 <= lo <= hi", "-1..-1": "need 0 <= lo <= hi",
               "3..2": "need 0 <= lo <= hi", "1-4": "must be '<lo>..<hi>'",
               "a..3": "must be '<lo>..<hi>'", "1..b": "must be '<lo>..<hi>'"}


@pytest.mark.parametrize("lengths", list(BAD_LENGTHS))
def test_profile_bad_lengths_is_exit_2(capsys, scanner_file, lengths):
    code, out, err = invoke(capsys, "profile", "--machine", scanner_file,
                            f"--lengths={lengths}", "--family", "zeros")
    assert code == 2
    assert err.startswith("error:")
    assert err == f"error: lengths {BAD_LENGTHS[lengths]}, got {lengths!r}\n"
    assert out == ""


@pytest.mark.parametrize("family", ["zeros", "all", "random:count=2,seed=1"])
def test_profile_failing_run_prints_nothing(capsys, scanner_file, family):
    # every row is computed before the header is printed
    code, out, err = invoke(capsys, "profile", "--machine", scanner_file,
                            "--lengths", "1..3", "--family", family, "--fuel", "0")
    assert code == 2
    assert err.startswith("error:") and "fuel" in err
    assert out == ""


LOOPING_MACHINE = """\
states: q acc rej
start: q
accept: acc
reject: rej
input_alphabet: 0 1
tape_alphabet: 0 1 _
trans: q 0 -> q 0 R
trans: q 1 -> q 1 R
trans: q _ -> q _ R
"""


@pytest.mark.parametrize("machine, fuel, word", [
    (LOOPING_MACHINE, "50", "eps"),
    (emit_machine(build_demo_machines()[0]), "3", "000"),
])
def test_profile_refuses_a_run_that_exhausts_its_fuel(capsys, tmp_path, machine, fuel, word):
    # a run cut off at its fuel counts the fuel, not the machine's worst case
    path = tmp_path / "m.tm"
    path.write_text(machine)
    code, out, err = invoke(capsys, "profile", "--machine", str(path),
                            "--lengths", "0..4", "--fuel", fuel)
    assert code == 2
    assert out == ""
    assert err == f"error: the run on {word} exhausted its fuel {fuel} before halting\n"


def test_profile_unknown_family_is_exit_2(capsys, scanner_file):
    code, out, err = invoke(capsys, "profile", "--machine", scanner_file,
                            "--lengths", "1..2", "--family", "twos")
    assert code == 2
    assert "unknown family" in err
    assert out == ""


def test_check_bound_pass_and_fail(capsys, tmp_path):
    trie_path = tmp_path / "trie.tm"
    invoke_args = ("gen-trie", "--lang", "contains-1", "--n", "3",
                   "--out", str(trie_path))
    assert main(list(invoke_args)) == 0
    code, out, _ = invoke(capsys, "check-bound", "--machine", str(trie_path),
                          "--g", "linear:a=1,b=1",
                          "--input", "eps", "--input", "0", "--input", "010")
    assert code == 0
    assert out.splitlines()[0] == "input,length,counted_steps,bound,pass"
    assert "# verdict=pass" in out
    code, out, _ = invoke(capsys, "check-bound", "--machine", str(trie_path),
                          "--g", "identity", "--input", "010")
    assert code == 3
    assert "# verdict=fail" in out


def test_nsearch(capsys, tmp_path):
    checker_path = tmp_path / "checker.tm"
    checker_path.write_text(emit_machine(build_demo_machines()[1].checker))
    code, out, _ = invoke(capsys, "nsearch", "--checker", str(checker_path),
                          "--delivery", "positioned", "--g", "log:a=1,b=1",
                          "--input", "0100")
    assert code == 0
    assert "accepted: true" in out
    assert "witness: 1" in out


# accepts iff the certificate after the separator starts with '1'
INLINE_CHECKER = r"""states: seek read acc rej
start: seek
accept: acc
reject: rej
input_alphabet: 0 1
tape_alphabet: 0 1 \# _
trans: seek 0 -> seek 0 R
trans: seek 1 -> seek 1 R
trans: seek \# -> read \# R
trans: seek _ -> rej _ R
trans: read 0 -> rej 0 R
trans: read 1 -> acc 1 R
trans: read \# -> rej \# R
trans: read _ -> rej _ R
"""


def test_nsearch_inline_from_a_file(capsys, tmp_path):
    checker_path = tmp_path / "inline.tm"
    checker_path.write_text(INLINE_CHECKER)
    code, out, _ = invoke(capsys, "nsearch", "--checker", str(checker_path),
                          "--delivery", "inline", "--g", "linear:a=1,b=0", "--input", "00")
    assert code == 0
    assert out.splitlines() == ["accepted: true", "witness: 1", "certificates_tried: 3",
                                "max_checker_counted_steps: 4"]


@pytest.mark.parametrize("word", ["0#1", "0_1", "2"])
def test_nsearch_input_outside_the_input_alphabet_is_exit_2(capsys, tmp_path, word):
    checker_path = tmp_path / "inline.tm"
    checker_path.write_text(INLINE_CHECKER)
    code, out, err = invoke(capsys, "nsearch", "--checker", str(checker_path),
                            "--delivery", "inline", "--g", "linear:a=1,b=0", "--input", word)
    assert code == 2
    assert err.startswith("error:") and "not in input alphabet" in err
    assert out == ""


def test_nsearch_budget_exceeded(capsys, tmp_path):
    checker_path = tmp_path / "checker.tm"
    checker_path.write_text(emit_machine(build_demo_machines()[1].checker))
    for bound in [
        ("--g", "linear:a=5,b=0", "--input", "0000000000", "--budget", "100"),
        # 2^1100 is past the largest double: the bound reads inf
        ("--g", "exp2:a=1", "--input", "0" * 1100),
    ]:
        code, out, err = invoke(capsys, "nsearch", "--checker", str(checker_path),
                                "--delivery", "positioned", *bound)
        assert code == 2
        assert err.startswith("error:") and "budget" in err
        assert out == ""


def test_demo_nlogtime_csv(capsys):
    code, out, _ = invoke(capsys, "demo-nlogtime", "--max-n", "4")
    assert code == 0
    assert out.splitlines() == [
        "n,scanner_counted,checker_max_counted,witness_len",
        "1,2,1,0",
        "2,3,1,1",
        "3,4,1,2",
        "4,5,1,2",
    ]


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_demo_nlogtime_refuses_a_max_n_below_1(capsys, max_n):
    assert invoke(capsys, "demo-nlogtime", "--max-n", max_n) == (
        2, "", "error: max-n must be at least 1\n")


def test_demo_nlogtime_deterministic(capsys):
    _, first, _ = invoke(capsys, "demo-nlogtime", "--max-n", "12")
    _, second, _ = invoke(capsys, "demo-nlogtime", "--max-n", "12")
    assert first == second


@pytest.mark.parametrize("g", ["linear:a=nan,b=0", "linear:a=inf,b=0",
                               "power:a=1,k=nan", "log:a=1,b=inf"])
def test_check_bound_non_finite_parameter_is_exit_2(capsys, scanner_file, g):
    code, out, err = invoke(capsys, "check-bound", "--machine", scanner_file,
                            "--g", g, "--input", "01")
    assert code == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("flag, spec", [("--g", "linear:a=1,a=5,b=2"),
                                        ("--t", "power:a=1,k=2,k=3")])
def test_check_bound_repeated_parameter_is_exit_2(capsys, scanner_file, flag, spec):
    argv = ["--g", "linear:a=1,b=1", "--mode", "outer"] if flag == "--t" else []
    code, out, err = invoke(capsys, "check-bound", "--machine", scanner_file,
                            *argv, flag, spec, "--input", "01")
    assert code == 2
    assert out == ""
    assert "repeated measure parameter" in err


@pytest.mark.parametrize("argv", [
    ("--g", "exp2:a=1"),
    ("--g", "power:a=1,k=200"),
])
def test_check_bound_overflowing_bound_is_inf(capsys, scanner_file, argv):
    code, out, err = invoke(capsys, "check-bound", "--machine", scanner_file,
                            "--input", "0" * 1100, *argv)
    assert code == 0
    assert err == ""
    assert out.splitlines()[1] == f"{'0' * 1100},1100,1101,inf,true"
    assert "# verdict=pass worst_margin=-inf" in out


@pytest.mark.parametrize("argv, bound, passed", [
    (("--g", "log:a=1,b=1", "--mode", "outer", "--t", "exp2:a=1"), "1101.0", True),
    (("--g", "log:a=1,b=0", "--mode", "outer", "--t", "exp2:a=1"), "1100.0", False),
    (("--g", "exp2:a=1", "--mode", "inner", "--t", "log:a=1,b=0"), "1100.0", False),
])
def test_check_bound_log_of_overflowing_stage(capsys, scanner_file, argv, bound, passed):
    # log2(2^1100 + 1) is about 1100 although 2^1100 is past the largest double
    code, out, err = invoke(capsys, "check-bound", "--machine", scanner_file,
                            "--input", "0" * 1100, *argv)
    assert code == (0 if passed else 3)
    assert err == ""
    assert out.splitlines()[1] == f"{'0' * 1100},1100,1101,{bound},{str(passed).lower()}"


def test_word_files_read_alike(capsys, tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("# a language\neps  # the empty word\n\n01\n  1 \n")
    trie_path = tmp_path / "trie.tm"
    assert main(["gen-trie", "--lang", f"@{words}", "--n", "2",
                 "--out", str(trie_path)]) == 0
    code, out, _ = invoke(capsys, "check-bound", "--machine", str(trie_path),
                          "--g", "linear:a=1,b=1", "--inputs-file", str(words),
                          "--input", "00")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:-1]]
    assert [(r[0], r[1]) for r in rows] == [("00", "2"), ("eps", "0"), ("01", "2"),
                                            ("1", "1")]
    for word, verdict in (("eps", "accepted"), ("01", "accepted"), ("1", "accepted"),
                          ("00", "rejected")):
        _, out, _ = invoke(capsys, "run", "--machine", str(trie_path), "--input", word)
        assert f"verdict: {verdict}" in out


@pytest.mark.parametrize("argv, text", [
    (["run", "--machine", "FILE", "--input", "001"], emit_machine(build_demo_machines()[0])),
    (["check-bound", "--machine", "SCANNER", "--g", "linear:a=1,b=1", "--inputs-file", "FILE"],
     "0\neps\n01\n"),
    (["gen-trie", "--lang", "@FILE", "--n", "2", "--out", "-"], "0\neps\n01\n"),
], ids=["machine", "inputs-file", "language"])
def test_a_byte_order_mark_is_skipped(capsys, tmp_path, scanner_file, argv, text):
    path = tmp_path / "file.txt"
    results = []
    for bom in ("", "\ufeff"):
        path.write_text(bom + text, encoding="utf-8")
        results.append(invoke(capsys, *[arg.replace("SCANNER", scanner_file)
                                        .replace("FILE", str(path)) for arg in argv]))
    assert results[0][0] == 0
    assert results[1] == results[0]


HASH_SCANNER = r"""states: s acc rej
start: s
accept: acc
reject: rej
input_alphabet: 0 \#
tape_alphabet: 0 \# _
trans: s 0 -> s 0 R
trans: s \# -> s \# R
trans: s _ -> acc _ R
"""


def test_word_files_follow_the_machine_file_comment_rule(capsys, tmp_path):
    machine = tmp_path / "hash.tm"
    machine.write_text(HASH_SCANNER)
    words = tmp_path / "words.txt"
    words.write_text("0\\#0  # a word holding the symbol '#'\n# a comment line\n\\#\n")
    code, out, err = invoke(capsys, "check-bound", "--machine", str(machine),
                            "--g", "linear:a=1,b=1", "--inputs-file", str(words),
                            "--input", "0#0")
    assert (code, err) == (0, "")
    rows = [line.split(",")[:3] for line in out.splitlines()[1:-1]]
    assert rows == [["0#0", "3", "4"], ["0#0", "3", "4"], ["#", "1", "2"]]


# every str.splitlines break that is not \n or \r; each is isspace(), so no
# word holds one
LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=[f"U+{ord(b):04X}" for b in LINE_BREAKS])
def test_word_files_break_lines_as_a_machine_file_does(capsys, tmp_path, brk):
    words = tmp_path / "words.txt"
    words.write_bytes(f"0{brk}1\n10\n".encode("utf-8"))
    trie_path = tmp_path / "trie.tm"
    code, _, err = invoke(capsys, "gen-trie", "--lang", f"@{words}", "--n", "2",
                          "--out", str(trie_path))
    assert (code, err) == (0, "# states=9 oracle_queries=7\n")
    for word, verdict in (("0", "accepted"), ("1", "accepted"), ("10", "accepted"),
                          ("01", "rejected")):
        _, out, _ = invoke(capsys, "run", "--machine", str(trie_path), "--input", word)
        assert f"verdict: {verdict}" in out
    code, out, _ = invoke(capsys, "check-bound", "--machine", str(trie_path),
                          "--g", "linear:a=1,b=1", "--inputs-file", str(words))
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:-1]] == ["0", "1", "10"]


@pytest.mark.parametrize("argv", [
    ["gen-trie", "--n", "2", "--out", "-"],
    ["verify-trie", "--n", "2"],
    ["converge", "--k", "2", "--budget", "2"],
], ids=["gen-trie", "verify-trie", "converge"])
def test_a_language_the_cli_cannot_read_is_one_error_line_and_exit_2(capsys, tmp_path, argv):
    code, out, err = invoke(capsys, *argv, "--lang", "no-such")
    assert (code, out) == (2, "")
    assert err == (f"error: unknown built-in language 'no-such'; "
                   f"choose from {sorted(BUILTIN_LANGUAGES)}\n")
    words = tmp_path / "words.txt"
    words.write_text("012\n")
    assert invoke(capsys, *argv, "--lang", f"@{words}") == (
        2, "", "error: word '012' is not over {0,1}\n")


def test_converge_always_finds_n_k(capsys, tmp_path):
    # every language the command line can name is a fixed set, so the depth-k
    # trie agrees with it and the walk ends at some n_k <= k
    words = tmp_path / "words.txt"
    words.write_text("eps\n0\n11\n010\n0110\n")
    for lang in [*sorted(BUILTIN_LANGUAGES), f"@{words}"]:
        for k in range(7):
            code, out, _ = invoke(capsys, "converge", "--lang", lang, "--k", str(k),
                                  "--budget", str(k))
            assert code == 0, (lang, k)
            fields = dict(item.split("=") for item in out.split())
            assert int(fields["k"]) == k
            assert 0 <= int(fields["n_k"]) <= k, (lang, k)


@pytest.mark.parametrize("lang", sorted(BUILTIN_LANGUAGES))
def test_converge_prints_the_same_line_whatever_its_budget(capsys, lang):
    # --budget is parsed for the command lines that pass it, and ignored
    for k in range(8):
        runs = []
        for budget in (["--budget", str(k)], ["--budget", "0"], []):
            try:
                runs.append(invoke(capsys, "converge", "--lang", lang, "--k", str(k), *budget))
            except SystemExit as exc:  # argparse refuses the command line
                runs.append((exc.code, *capsys.readouterr()))
        report = find_convergence_index(BUILTIN_LANGUAGES[lang], k)
        line = f"k={k} n_k={report.n_k} verified_words={report.verified_words}\n"
        assert runs == [(0, line, "")] * 3, (lang, k)


SHARED_OPTIONS = ("--machine", "--cost", "--fuel", "--lang", "--n", "--g", "--t")


def test_each_shared_option_is_declared_alike():
    # one help text, default, type and required flag in every subcommand
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    for option in SHARED_OPTIONS:
        declared = [(action.help, action.default, action.type, action.required)
                    for parser in subcommands.values() for action in parser._actions
                    if option in action.option_strings]
        assert len(declared) >= 2, option
        assert len(set(declared)) == 1, (option, declared)


def test_successive_main_calls_share_no_state(capsys, scanner_file):
    """main builds its parser once per process; one call leaves nothing
    that changes the next, such as a grown `--input` default list."""
    check = ["check-bound", "--machine", scanner_file, "--g", "linear:a=1,b=1",
             "--input", "0"]
    first = invoke(capsys, *check)
    assert first[1].count("\n0,1,") == 1
    assert invoke(capsys, *check) == first
    run_argv = ["run", "--machine", scanner_file, "--input", "001"]
    shared = invoke(capsys, *run_argv)
    args = build_parser().parse_args(run_argv)
    fresh = args.fn(args), capsys.readouterr().out
    assert shared[:2] == fresh
    assert _parser() is _parser()


# --- fuzz: generated argv for every subcommand, over mutated machine files
# and word files, ends in a documented exit code and never in a traceback

EXIT_CODES = {0, 1, 2, 3, 4}
SCANNER, POSITIONED = build_demo_machines()
MACHINE_FILES = [emit_machine(SCANNER), emit_machine(POSITIONED.checker), INLINE_CHECKER,
                 emit_machine(build_trie_machine(BUILTIN_LANGUAGES["div3"], 2).machine)]
WORD_FILES = ["0\n1\n", "eps\n01  # a comment\n\n110\n", "0\n0\n"]


@st.composite
def mutated(draw, texts):
    """One of texts as bytes, with a few bytes overwritten, cut or inserted."""
    data = bytearray(draw(st.sampled_from(texts)).encode())
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["set", "cut", "insert"]))
        if kind == "set" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif kind == "cut":
            del data[at:at + draw(st.integers(1, 8))]
        else:
            data[at:at] = draw(st.binary(max_size=4) | st.sampled_from(
                [b" ", b"\n", b"#", b"\\#", b"_", b"->", b"trans: ", b"\xff"]))
    return bytes(data)


def junk(values):
    """A value from values, or one time in eight short text that may not
    parse at all."""
    text = st.text(alphabet="01-.:=,_#eps ", max_size=6)
    return st.integers(0, 7).flatmap(lambda i: text if i == 0 else values)


small = st.integers(-1, 6).map(str)
words = junk(st.sampled_from(["eps", "0", "1", "01", "0110", "2", "0#1", "0_1"]))
measures = junk(st.sampled_from(["identity", "linear:a=1,b=0", "linear:a=0.5,b=1",
                                 "log:a=1,b=1", "power:a=1,k=2", "exp2:a=1",
                                 "linear:a=nan,b=0", "linear:a=1,a=2", "cubic:a=1"]))
costs = junk(st.sampled_from(["count-all", "free-blind", "free-states:q_scan", "free-states:"]))
langs = junk(st.sampled_from(["contains-1", "palindrome", "div3", "empty", "all", "@WORDS",
                              "@missing"]))
lengths = junk(st.sampled_from(["0..3", "1..4", "2..2", "3..1", "-1..2"]))
families = junk(st.sampled_from(["zeros", "ones", "all", "random:count=2,seed=3",
                                 "random:count=0,seed=1", "random:seed=1", "twos"]))

# per subcommand, each option with the values it may take; "MACHINE" and
# "WORDS" stand for the mutated files
SUBCOMMANDS = {
    "run": {"--machine": st.just("MACHINE"), "--input": words, "--cost": costs,
            "--fuel": small, "--exit-status": st.just(None)},
    "gen-trie": {"--lang": langs, "--n": small, "--out": st.sampled_from(["-", "OUT"])},
    "verify-trie": {"--lang": langs, "--n": small},
    "converge": {"--lang": langs, "--k": small, "--budget": small},
    "profile": {"--machine": st.just("MACHINE"), "--cost": costs, "--lengths": lengths,
                "--family": families, "--fuel": small},
    "check-bound": {"--machine": st.just("MACHINE"), "--cost": costs, "--g": measures,
                    "--mode": junk(st.sampled_from(["plain", "outer", "inner"])),
                    "--t": measures, "--input": words, "--inputs-file": st.just("WORDS"),
                    "--fuel": small},
    "nsearch": {"--checker": st.just("MACHINE"), "--delivery": junk(
                    st.sampled_from(["inline", "positioned"])),
                "--g": measures, "--t": measures, "--input": words, "--cost": costs,
                "--budget": st.integers(-1, 64).map(str), "--fuel": small},
    "demo-nlogtime": {"--max-n": small},
}
# always given: the default certificate budget is 2^20
ALWAYS = {"--budget"}
# given one time in two
OPTIONAL = {"--t", "--inputs-file", "--exit-status"}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [command]
    for option, values in SUBCOMMANDS[command].items():
        if option in ALWAYS or draw(st.integers(0, 1 if option in OPTIONAL else 19)) > 0:
            value = draw(values)
            # '--option=value' keeps a value that starts with '-' a value
            argv.append(option if value is None else f"{option}={value}")
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs(), mutated(MACHINE_FILES), mutated(WORD_FILES))
def test_every_command_line_ends_in_an_exit_code(argv, machine_bytes, word_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        files = {"MACHINE": Path(tmp, "m.tm"), "WORDS": Path(tmp, "words.txt"),
                 "OUT": Path(tmp, "out.tm")}
        files["MACHINE"].write_bytes(machine_bytes)
        files["WORDS"].write_bytes(word_bytes)
        for name, path in files.items():
            argv = [arg.replace(name, str(path)) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the command line
                code = exc.code
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2 and err.getvalue():
        assert err.getvalue().startswith(("error:", "usage:"))


WALKER = """\
states: q acc rej
start: q
accept: acc
reject: rej
input_alphabet: 0 1
tape_alphabet: 0 1 _
trans: q 0 -> q _ R
trans: q 1 -> q _ R
trans: q _ -> q _ R
"""


def test_a_run_out_of_memory_is_exit_2(tmp_path):
    """A machine that walks right forever grows its tape with the fuel; in
    a child process whose address space is capped at 512 MB, a fuel of
    10^10 runs out of memory, which main reports as one error line."""
    pytest.importorskip("resource")
    machine = tmp_path / "walker.tm"
    machine.write_text(WALKER)
    src = str(Path(tmbench.cli.__file__).resolve().parent.parent)
    child = (
        "import resource, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
        "from tmbench.cli import main\n"
        f"sys.exit(main(['run', '--machine', {str(machine)!r}, '--input', '0',"
        " '--fuel', '10000000000']))\n"
    )
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")
