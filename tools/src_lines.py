#!/usr/bin/env python3
"""Count the raw and code lines of a package's modules:

    python3 tools/src_lines.py            # src/rbseries of this checkout
    python3 tools/src_lines.py DIR        # the *.py files directly in DIR

Prints one line per module, `<module> <raw> <code>`, and then the totals.
Raw lines are every line of the file. Code lines are the non-blank lines that
hold a token other than a comment or a docstring: a line counts once a token
of another kind starts or runs on it, so every line of a multi-line
expression, string literal included, counts, and a docstring's lines do not.
A docstring is the string that opens a module, class or function body, as
`ast.get_docstring` reads it. Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    """The lines of every module, class and function docstring in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(raw lines, code lines) of the Python source text `source`."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE:
            continue
        first, last = tok.start[0], tok.end[0]
        if tok.type == tokenize.STRING and first in docstrings:
            continue
        code.update(range(first, last + 1))
    return len(source.splitlines()), len(code)


def main(argv: list) -> int:
    where = Path(argv[0]) if argv else ROOT / "src" / "rbseries"
    raw_total = code_total = 0
    for path in sorted(where.glob("*.py")):
        raw, code = count(path.read_text(encoding="utf-8"))
        raw_total += raw
        code_total += code
        print(f"{path.name} {raw} {code}")
    print(f"total {raw_total} {code_total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
