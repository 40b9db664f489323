"""Print the code lines and source bytes of each module of ``src/fibluc``, and their totals.

A code line holds at least one token that is not a comment and is not part
of a docstring (the first statement of a module, class or function, when it
is a string).  Blank lines, comment lines and docstring lines do not count.
Source bytes count the whole file, docstrings and comments too: a process
that compiles the package from source reads all of them.

Run from the repository root: ``python tools/code_lines.py [DIR]``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that make no line a code line.
_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that docstrings span in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The count of code lines in the Python file at ``path``."""
    source = path.read_text(encoding="utf-8")
    docstrings = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "fibluc"
    total = total_bytes = 0
    print(f"{'module':<12} {'lines':>5} {'bytes':>7}")
    for path in sorted(root.glob("*.py")):
        count, size = code_lines(path), path.stat().st_size
        total += count
        total_bytes += size
        print(f"{path.stem:<12} {count:5d} {size:7d}")
    print(f"{'total':<12} {total:5d} {total_bytes:7d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
