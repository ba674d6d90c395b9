"""pytest plugin: the statements of src/rbseries that a test run never runs
in-process, from a sys.settrace line trace. Run from the root of a checkout:

    PYTHONPATH=src:tools python -m pytest -q -p linetrace -p no:cacheprovider

The trace starts when pytest loads the plugin, before the package is
imported, so module-level statements count too. A statement counts as run
when a line event falls on its header: its lines up to its body for a
compound statement, from its first decorator on for a def or class, and all
its lines otherwise. Docstrings are not statements. Code that runs in a
subprocess (the CLI tests' `python -m rbseries`) is not seen. The unrun
statements are listed, `module:line: text`, at the end of the report. Add
`-m "not hypothesis"` to leave out every @given test and see what the plain
tests reach without Hypothesis' random draws.
Standard library only; the trace makes the run about 2.5 times slower.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rbseries"
PREFIX = str(PACKAGE)
HIT: dict = {}  # co_filename -> the lines run in it


def _trace(frame, event, arg):
    path = frame.f_code.co_filename
    if not path.startswith(PREFIX):
        return None
    lines = HIT.setdefault(path, set())
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


sys.settrace(_trace)
threading.settrace(_trace)


def _headers(source: str) -> list:
    """(line, first line, last line) of each statement's header in `source`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        out.append((node.lineno, first, last))
    return sorted(out)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        hit = set().union(*(v for k, v in HIT.items() if Path(k).resolve() == path))
        for line, first, last in _headers(source):
            if hit.isdisjoint(range(first, last + 1)):
                unrun.append(f"{path.name}:{line}: {text[line - 1].strip()}")
    terminalreporter.section(f"{len(unrun)} statements of src/rbseries not run in-process")
    for entry in unrun:
        terminalreporter.write_line(entry)
