"""Command-line front end.

Exit codes: 0 success, 2 usage or parse error (or a run out of memory), 3
a verification command found a counterexample. `run --exit-status` maps
the verdict itself: accepted 0, rejected 1, fuel exhausted 4.
"""

from __future__ import annotations

import argparse
import random
import sys
from functools import cache

from tmbench.convergence import (
    BUILTIN_LANGUAGES,
    build_trie_machine,
    find_convergence_index,
    finite_language,
    verify_trie,
)
from tmbench.cost import COUNT_ALL, parse_cost_model
from tmbench.machine import DEFAULT_FUEL, Verdict, _compile, all_words, run
from tmbench.measures import IDENTITY, MODES, BoundSpec, check_bound, parse_measure, parse_params
from tmbench.nondet import (
    DEFAULT_CERTIFICATE_BUDGET,
    DELIVERIES,
    CertificateBudgetError,
    CheckingRelation,
    build_demo_machines,
    decide_nc,
    decide_nt,
)
from tmbench.textfmt import emit_machine, lines, parse_machine_file

EMPTY_WORD_TOKEN = "eps"


def _word(text: str) -> str:
    return "" if text == EMPTY_WORD_TOKEN else text


def _render_word(word: str) -> str:
    return word if word else EMPTY_WORD_TOKEN


def _read_words(path: str) -> list[str]:
    """One word per line and 'eps' is the empty word; as in a machine file,
    lines break at every str.splitlines break, a '#' that no backslash
    precedes starts a comment and '\\#' is the symbol '#'. A UTF-8 byte
    order mark at the start is skipped, as for a machine file."""
    return [_word(line) for line in map(str.strip, lines(_read(path))) if line]


def load_language(spec: str):
    """The membership predicate of a built-in name, or of @file with one
    word per line ('eps' = empty word)."""
    if spec.startswith("@"):
        return finite_language(_read_words(spec[1:]))
    if spec not in BUILTIN_LANGUAGES:
        raise ValueError(f"unknown built-in language {spec!r}; "
                         f"choose from {sorted(BUILTIN_LANGUAGES)}")
    return BUILTIN_LANGUAGES[spec]


def _read(path: str) -> str:
    """The text of the file at path, as UTF-8, a byte order mark at its
    start skipped: the one way a machine file or a word file is read."""
    with open(path, encoding="utf-8-sig") as fh:
        return fh.read()


def _load_machine(path: str):
    return parse_machine_file(_read(path))


def _parse_lengths(text: str) -> range:
    """'<lo>..<hi>' with 0 <= lo <= hi, as the range of lengths lo to hi."""
    lo, _, hi = text.partition("..")
    try:
        lengths = range(int(lo), int(hi) + 1)
    except ValueError:  # no '..' leaves hi empty
        raise ValueError(f"lengths must be '<lo>..<hi>', got {text!r}") from None
    if not lengths or lengths[0] < 0:
        raise ValueError(f"lengths need 0 <= lo <= hi, got {text!r}")
    return lengths


WORD_FAMILIES = {
    "zeros": lambda length: ["0" * length],
    "ones": lambda length: ["1" * length],
    "all": lambda length: all_words("01", length, length),
}


def cmd_run(args) -> int:
    machine = _load_machine(args.machine)
    cost = parse_cost_model(args.cost)
    result = run(machine, _word(args.input), cost, fuel=args.fuel)
    print(f"verdict: {result.verdict.value}")
    print(f"total_steps: {result.total_steps}")
    print(f"counted_steps: {result.counted_steps}")
    if args.exit_status:
        return {Verdict.ACCEPTED: 0, Verdict.REJECTED: 1,
                Verdict.FUEL_EXHAUSTED: 4}[result.verdict]
    return 0


def cmd_gen_trie(args) -> int:
    report = build_trie_machine(load_language(args.lang), args.n)
    text = emit_machine(report.listing())
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(f"# states={report.state_count} oracle_queries={report.oracle_queries}",
          file=sys.stderr)
    return 0


def cmd_verify_trie(args) -> int:
    oracle = load_language(args.lang)
    report = build_trie_machine(oracle, args.n)
    counterexamples, steps_ok = verify_trie(report, oracle)
    ok = not counterexamples
    print(f"restriction: {'pass' if ok else 'fail'}")
    for word in counterexamples:
        print(f"counterexample: {_render_word(word)}")
    print(f"step_count: {'pass' if steps_ok else 'fail'}")
    return 0 if ok and steps_ok else 3


def cmd_converge(args) -> int:
    report = find_convergence_index(load_language(args.lang), args.k)
    print(f"k={report.k} n_k={report.n_k} verified_words={report.verified_words}")
    return 0


def _parse_random_family(spec: str) -> tuple[int, int]:
    """The count and seed of 'random:count=<k>,seed=<s>', both required."""
    params = parse_params(spec, ("count", "seed"), int, "random family")
    if len(params) != 2:
        raise ValueError(f"random family needs count and seed: "
                         f"'random:count=<k>,seed=<s>', got {spec!r}")
    if params["count"] < 1:
        raise ValueError(f"count must be at least 1 in {spec!r}")
    return params["count"], params["seed"]


def cmd_profile(args) -> int:
    machine = _load_machine(args.machine)
    compiled = _compile(machine, parse_cost_model(args.cost))
    lengths = _parse_lengths(args.lengths)

    # the family and its cap are checked before any word is run
    family, seed = args.family, None
    if family.startswith("random:"):
        count, seed = _parse_random_family(family)

        def words(length):
            rng = random.Random(seed * 1_000_003 + length)
            return ["".join(rng.choice("01") for _ in range(length)) for _ in range(count)]
    elif family in WORD_FAMILIES:
        if family == "all" and lengths[-1] > 16:
            raise ValueError("family 'all' is capped at length 16")
        words = WORD_FAMILIES[family]
    else:
        raise ValueError(f"unknown family {family!r}")

    # every row is computed before anything is printed, so a run that fails
    # leaves stdout empty; a run that exhausts its fuel has no worst case to
    # report, since its count is the fuel and not the machine's
    rows = []
    for length in lengths:
        best, best_word = -1, ""
        for word, verdict, _, counted in compiled.on_words(words(length), args.fuel):
            if verdict is Verdict.FUEL_EXHAUSTED:
                raise ValueError(f"the run on {_render_word(word)} exhausted its fuel "
                                 f"{args.fuel} before halting")
            if counted > best:
                best, best_word = counted, word
        rows.append(f"{length},{best},{_render_word(best_word)}")
    print(f"# profile machine={args.machine} cost={args.cost} family={args.family}"
          + (f" seed={seed}" if seed is not None else ""))
    print("length,max_counted_steps,argmax_input")
    print("\n".join(rows))
    return 0


def cmd_check_bound(args) -> int:
    machine = _load_machine(args.machine)
    cost = parse_cost_model(args.cost)
    g = parse_measure(args.g)
    transform = parse_measure(args.t) if args.t else None
    spec = BoundSpec(g=g, mode=args.mode, transform=transform)
    inputs = [_word(w) for w in args.input]
    if args.inputs_file:
        inputs += _read_words(args.inputs_file)
    report = check_bound(machine, cost, spec, inputs, fuel=args.fuel)
    print("input,length,counted_steps,bound,pass")
    for row in report.per_input:
        print(f"{_render_word(row.input)},{row.length},{row.counted_steps},"
              f"{row.bound!r},{str(row.passed).lower()}")
    print(f"# verdict={'pass' if report.verdict else 'fail'} "
          f"worst_margin={report.worst_margin!r}")
    return 0 if report.verdict else 3


def cmd_nsearch(args) -> int:
    checker = _load_machine(args.checker)
    rel = CheckingRelation(checker=checker, delivery=args.delivery)
    g = parse_measure(args.g)
    cost = parse_cost_model(args.cost)
    word = _word(args.input)
    transform = parse_measure(args.t) if args.t else IDENTITY
    report = decide_nt(rel, g, transform, word, cost, fuel=args.fuel, budget=args.budget)
    print(f"accepted: {str(report.accepted).lower()}")
    print(f"witness: {_render_word(report.witness) if report.witness is not None else 'none'}")
    print(f"certificates_tried: {report.certificates_tried}")
    print(f"max_checker_counted_steps: {report.max_checker_counted_steps}")
    return 0


def cmd_demo_nlogtime(args) -> int:
    if args.max_n < 1:
        raise ValueError("max-n must be at least 1")
    scanner, checker = build_demo_machines()
    g = parse_measure("log:a=1,b=1")
    print("n,scanner_counted,checker_max_counted,witness_len")
    for n in range(1, args.max_n + 1):
        scan = run(scanner, "0" * n, COUNT_ALL, fuel=4 * n + 16)
        report = decide_nc(checker, g, "0" * (n - 1) + "1", COUNT_ALL, fuel=64)
        wlen = len(report.witness) if report.witness is not None else -1
        print(f"{n},{scan.counted_steps},{report.max_checker_counted_steps},{wlen}")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse's parser, reading '--option=--' as Python 3.13's does: the
    option's value is '--'. Before 3.13 argparse dropped that '--' and left
    an unconverted [] as the value. Only a positional may follow a '--'
    separator, and the one positional here, the subcommand, never sees a
    lone '--' as its arguments."""

    def _get_values(self, action, arg_strings):
        if arg_strings != ["--"]:
            return super()._get_values(action, arg_strings)
        value = self._get_value(action, "--")
        self._check_value(action, value)
        return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tmbench",
        description="Turing-machine workbench: simulation, cost models, "
                    "bound checking, certificate search, trie synthesis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each option that several subcommands take, declared once, with the
    # subcommands that take it
    runs = ("run", "profile", "check-bound", "nsearch")
    bounds = ("check-bound", "nsearch")
    shared = [
        ("--machine", ("run", "profile", "check-bound"), dict(required=True, help="machine file")),
        ("--cost", runs,
         dict(default="count-all", help="count-all | free-blind | free-states:q1,q2,...")),
        ("--fuel", runs, dict(type=int, default=DEFAULT_FUEL, help="step limit of each run")),
        ("--lang", ("gen-trie", "verify-trie", "converge"),
         dict(required=True, help="built-in language name or @file of words")),
        ("--n", ("gen-trie", "verify-trie"), dict(type=int, required=True, help="trie depth")),
        ("--g", bounds, dict(required=True, help="bound measure g, e.g. linear:a=1,b=1")),
        ("--t", bounds, dict(default=None, help="transform measure T, e.g. log:a=1,b=0")),
    ]

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        for option, commands, kwargs in shared:
            if name in commands:
                p.add_argument(option, **kwargs)
        return p

    p = add("run", cmd_run, "simulate a machine on one input word")
    p.add_argument("--input", required=True, help="input word ('eps' for the empty word)")
    p.add_argument("--exit-status", action="store_true",
                   help="exit 0 accepted, 1 rejected, 4 fuel exhausted")

    p = add("gen-trie", cmd_gen_trie, "synthesize the depth-n lookup-trie machine")
    p.add_argument("--out", required=True, help="output machine file, '-' for stdout")

    add("verify-trie", cmd_verify_trie,
        "check the trie machine's language restriction and step counts")

    p = add("converge", cmd_converge, "find the least agreeing sequence index")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, help="ignored")

    p = add("profile", cmd_profile, "worst-case counted steps per input length, CSV")
    p.add_argument("--lengths", required=True, help="e.g. 1..8")
    p.add_argument("--family", default="zeros",
                   help="all | zeros | ones | random:count=<k>,seed=<s>")

    p = add("check-bound", cmd_check_bound, "empirical step-bound check, CSV report")
    p.add_argument("--mode", default="plain", choices=MODES)
    p.add_argument("--input", action="append", default=[],
                   help="input word, repeatable ('eps' for the empty word)")
    p.add_argument("--inputs-file", default=None, help="file of words, one per line")

    p = add("nsearch", cmd_nsearch, "exhaustive certificate search for one input")
    p.add_argument("--checker", required=True, help="checker machine file")
    p.add_argument("--delivery", required=True, choices=DELIVERIES)
    p.add_argument("--input", required=True,
                   help="input word over the checker's input alphabet ('eps' for the empty word)")
    p.add_argument("--budget", type=int, default=DEFAULT_CERTIFICATE_BUDGET)

    p = add("demo-nlogtime", cmd_demo_nlogtime,
            "scanner vs positioned checker on the contains-a-1 language, CSV")
    p.add_argument("--max-n", type=int, required=True)

    return parser


# main's parser, built on its first call rather than at import; parsing
# leaves a parser unchanged, so later calls share it
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    # a MachineParseError is a ValueError; a MemoryError, from a tape that a
    # large --fuel lets grow, has no message
    except (CertificateBudgetError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
