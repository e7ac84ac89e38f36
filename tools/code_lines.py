"""Count the code lines of Python files: lines that hold a token other than a comment.

Docstrings (the leading string of a module, class or function), comments and
blank lines are left out. A directory stands for its ``*.py`` files, found
recursively, in sorted order. Prints one count per file and, for several
files, their total. Run from the repository root:

    python tools/code_lines.py src/margmap/*.py
    python tools/code_lines.py src
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines each docstring of ``tree`` spans."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    source = path.read_text()
    lines: set[int] = set()
    with path.open("rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    paths = []
    for name in map(Path, argv):
        paths += sorted(name.rglob("*.py")) if name.is_dir() else [name]
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    if len(paths) > 1:
        print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
