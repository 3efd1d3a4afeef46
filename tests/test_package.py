"""The package namespace: the names `tmbench/__init__.py` imports are its
public API, reachable as attributes and bound by a star import."""

import importlib
import inspect
import json
import os
import subprocess
import sys

import tmbench

PUBLIC_API = (
    "BLANK", "LEFT", "RIGHT", "Machine", "Configuration", "RunResult", "StepRecord",
    "Verdict", "InvalidInputError", "validate_machine", "run",
    "CostModel", "COUNT_ALL", "FREE_BLIND", "is_blind_state", "counted_set",
    "parse_cost_model",
    "MeasureFunction", "BoundSpec", "BoundReport", "evaluate", "check_monotone_sample",
    "check_bound", "parse_measure",
    "CheckingRelation", "CertificateSearchReport", "CertificateBudgetError", "decide_nc",
    "decide_nt", "build_demo_machines",
    "finite_language", "BUILTIN_LANGUAGES", "TrieMachineReport", "TrieSizeError",
    "ConvergenceReport", "build_trie_machine", "verify_trie", "find_convergence_index",
    "MachineParseError", "parse_machine_file", "emit_machine",
)


# each is kept in its module, where the benchmark's tracer wraps it by name
UNEXPORTED = (
    ("tmbench.machine", "initial_configuration"),
    ("tmbench.machine", "run_configuration"),
    ("tmbench.convergence", "verify_restriction"),
    ("tmbench.convergence", "verify_step_count"),
)


def test_every_public_name_is_a_package_attribute():
    assert len(set(PUBLIC_API)) == 41
    missing = [name for name in PUBLIC_API if not hasattr(tmbench, name)]
    assert not missing


def test_the_package_exports_exactly_the_public_api():
    exported = {name for name, value in vars(tmbench).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == set(PUBLIC_API)
    for module_name, name in UNEXPORTED:
        assert not hasattr(tmbench, name)
        assert callable(getattr(importlib.import_module(module_name), name))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from tmbench import *", namespace)
    missing = [name for name in PUBLIC_API if name not in namespace]
    assert not missing
    for name in PUBLIC_API:
        assert namespace[name] is getattr(tmbench, name)


def test_one_constructor_and_one_way_to_evaluate():
    assert not hasattr(tmbench, "__all__")
    assert not hasattr(tmbench.CostModel, "free_states_model")
    assert not hasattr(tmbench.CostModel, "custom")
    assert not callable(tmbench.MeasureFunction("identity"))


def test_one_way_to_single_step():
    """The package exports no single step: `tmbench.machine.run_configuration`
    with fuel 1 is the one, kept for the benchmark's tracer and the tests;
    the dict stepper and its scanned-symbol helper live with the tests."""
    import tmbench.machine

    assert not hasattr(tmbench, "step")
    assert not hasattr(tmbench.machine, "step")
    assert not hasattr(tmbench.Configuration, "scanned")
    assert not hasattr(tmbench.Configuration("q", {}, 0), "scanned")
    assert not hasattr(tmbench.machine._CompiledMachine, "run")


def test_each_default_and_choice_has_one_owner():
    from tmbench.cli import build_parser
    from tmbench.machine import DEFAULT_FUEL
    from tmbench.measures import MODES
    from tmbench.nondet import DELIVERIES

    for fn in (tmbench.run, tmbench.check_bound, tmbench.decide_nc, tmbench.decide_nt):
        assert inspect.signature(fn).parameters["fuel"].default is DEFAULT_FUEL
    commands = build_parser()._subparsers._group_actions[0].choices
    options = {(name, opt): action for name, sub in commands.items()
               for action in sub._actions for opt in action.option_strings}
    for name in ("run", "profile", "check-bound", "nsearch"):
        assert options[(name, "--fuel")].default is DEFAULT_FUEL
    assert options[("check-bound", "--mode")].choices is MODES
    assert options[("nsearch", "--delivery")].choices is DELIVERIES


def test_the_package_and_its_cli_import_only_the_standard_library():
    """No runtime dependencies: in a fresh interpreter, importing tmbench
    and tmbench.cli loads no top-level module but tmbench and the standard
    library's."""
    code = ("import json, sys; before = set(sys.modules); import tmbench, tmbench.cli; "
            "print(json.dumps(sorted({name.partition('.')[0] for name in sys.modules} - before)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    loaded = json.loads(out)
    assert "tmbench" in loaded
    assert [name for name in loaded
            if name != "tmbench" and name not in sys.stdlib_module_names] == []
