#!/usr/bin/env python3
"""Code lines of each module of ``src/sepkit``, and their total.

A code line is a line that holds part of a token other than a comment,
and that is not part of a docstring (the string that opens a module,
class or function body).  Blank lines, comment lines and docstrings do
not count; a statement spread over several lines counts each of them.
Run from anywhere: ``python scripts/code_lines.py [DIR]``.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sepkit"

_SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE)
    args = parser.parse_args()
    total = 0
    for path in sorted(args.package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<20} {count:>6}")
    print(f"{'total':<20} {total:>6}")


if __name__ == "__main__":
    main()
