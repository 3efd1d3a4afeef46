"""Count the code lines of Python source files.

A code line holds a token other than a comment, a line break or an
indentation change, and lies outside every module, class and function
docstring. Blank lines, comments and docstrings are not counted, so
reformatting text moves no count that reformatting code would not.

    python3 tools/code_lines.py [path ...]     # default: src/tmbench

prints the count of each file and the total, and then for each package
`__init__.py` among the files the number of names its imports bind, which
for tmbench is the size of its public API.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by the docstrings in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def imported_names(path: Path) -> int:
    """The number of names that the import statements in path bind."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sum(len(node.names) for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom)))


def main(argv: list[str]) -> int:
    roots = [Path(p) for p in argv] or [Path("src/tmbench")]
    files = sorted(f for root in roots
                   for f in ([root] if root.is_file() else root.rglob("*.py")))
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")
    for f in files:
        if f.name == "__init__.py":
            print(f"{imported_names(f):6d}  names imported by {f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
