"""The statements of tmbench that no benchmark workload executes.

Starts a line tracer on the files of src/tmbench before tmbench is
imported, so that calls made at import time count, then runs one job of
each workload of bench/workloads.py at seed 1: its set-up and every call
of its job, with the caller's work on each result (the references that
the benchmark checks results against import no tmbench and are not run).
Prints every statement in a function body of src/tmbench that no
workload executed, as module:line: source, then their count. A compound
statement counts as executed when a line of its header ran or any
statement inside it did.

    python3 tools/traffic.py

It needs only the standard library, runs in this one process, and writes
no bytecode.
"""

from __future__ import annotations

import ast
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tmbench"


def tracer(ran: set):
    """A sys.settrace function that adds (file, line) to ran for each line
    run in a file of PACKAGE."""
    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines
    return lambda frame, event, arg: (
        lines if frame.f_code.co_filename.startswith(str(PACKAGE)) else None)


def children(node):
    """The statements directly inside node, its handlers' included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
        else:
            yield from children(child)


def missed(path: Path, ran: set) -> list[ast.stmt]:
    """The statements of path's function bodies, docstrings aside, that ran
    no line of ran."""
    out = []

    def judge(stmt) -> bool:
        # a nested def or class is one statement: its own bodies are judged as functions
        nested = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        inner = [] if nested else list(children(stmt))
        first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
        last = min([s.lineno - 1 for s in inner], default=stmt.end_lineno)
        header = any((str(path), line) in ran for line in range(first, max(first, last) + 1))
        if not any([judge(s) for s in inner]) and not header:  # a list: judge every one
            out.append(stmt)
            return False
        return True

    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in fn.body[ast.get_docstring(fn, clean=False) is not None:]:
                judge(stmt)
    return sorted(out, key=lambda stmt: stmt.lineno)


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(PACKAGE.parent), str(ROOT / "bench")]
    ran: set[tuple[str, int]] = set()
    sys.settrace(tracer(ran))
    import tmbench
    import tmbench.cli  # noqa: F401
    from workloads import WORKLOADS
    with tempfile.TemporaryDirectory() as tmp:
        for name, build in WORKLOADS.items():
            (Path(tmp) / name).mkdir()
            for call in build(tmbench, 1, Path(tmp) / name):
                call.digest(call.invoke())
    sys.settrace(None)
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for stmt in missed(path, ran):
            print(f"{path.stem}:{stmt.lineno}: {source[stmt.lineno - 1].strip()}")
            count += 1
    print(f"{count} function-body statements that no workload executed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
