"""The benchmark under bench/ reaches into tmbench by name: the tracer wraps
functions by (module, name), and the workloads call `tm.<name>` on the
package. These tests fail when a change to the package drops such a name."""

import importlib
import importlib.util
import re
from functools import reduce
from pathlib import Path

import tmbench
import tmbench.cli  # noqa: F401  (the workloads reach it as tm.cli)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    traced = load_bench_module("tracer").TRACED
    assert traced
    for module_name, attr, _ in traced:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_every_package_name_the_workloads_use_exists():
    used = set()
    for name in ("workloads", "machines"):
        text = (BENCH / f"{name}.py").read_text(encoding="utf-8")
        used.update(re.findall(r"\btm\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", text))
    assert {"run", "decide_nt", "cli.main"} <= used
    missing = []
    for dotted in sorted(used):
        try:
            reduce(getattr, dotted.split("."), tmbench)
        except AttributeError:
            missing.append(dotted)
    assert not missing
