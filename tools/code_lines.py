"""Lines of code, docstrings, comments and blanks in permlab's modules.

Usage, from the root of a checkout:

    python3 tools/code_lines.py

Each line of a file is counted once, in the first class it belongs to:

* docstring: a line spanned by a string constant that opens a module, class
  or function, as ``ast`` parses them;
* blank: nothing but white space;
* comment: a ``#`` comment and nothing else;
* code: every other line.

Prints one row per module and a total row.
"""

from __future__ import annotations

import ast
import glob
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIELDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of tree's module, classes and
    functions."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The four counts of one module's source."""
    docs = docstring_lines(ast.parse(source))
    out = dict.fromkeys(FIELDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if number in docs:
            out["docstring"] += 1
        elif not text:
            out["blank"] += 1
        elif text.startswith("#"):
            out["comment"] += 1
        else:
            out["code"] += 1
    return out


def main() -> int:
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "permlab", "*.py")))
    total = dict.fromkeys(FIELDS, 0)
    print(f"{'module':<20}" + "".join(f"{f:>10}" for f in FIELDS))
    for path in paths:
        with open(path) as fh:
            counts = count(fh.read())
        for f in FIELDS:
            total[f] += counts[f]
        name = os.path.basename(path)
        print(f"{name:<20}" + "".join(f"{counts[f]:>10}" for f in FIELDS))
    print(f"{'total':<20}" + "".join(f"{total[f]:>10}" for f in FIELDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
