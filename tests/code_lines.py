"""Count the lines of each module of the package: total and code lines.

    python tests/code_lines.py [PATH ...]

Code lines leave out blank lines, comment lines and the lines of
docstrings (a string that is the first statement of a module, class or
function).  A line that holds code and a trailing comment is code.
Without a PATH it counts ``src/scanseg`` next to this file's directory;
a PATH may be a module or a directory of them.  Prints one row per
module and a total row.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of every docstring in the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """``(total, code)`` lines of one Python source file."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main() -> None:
    roots = [Path(a) for a in sys.argv[1:]] or [Path(__file__).resolve().parents[1] / "src" / "scanseg"]
    files = [f for r in roots for f in (sorted(r.rglob("*.py")) if r.is_dir() else [r])]
    totals = [0, 0]
    print(f"{'module':<32} {'total':>6} {'code':>6}")
    for f in files:
        total, code = count(f)
        totals[0] += total
        totals[1] += code
        print(f"{f.name:<32} {total:>6} {code:>6}")
    print(f"{'all':<32} {totals[0]:>6} {totals[1]:>6}")


if __name__ == "__main__":
    main()
