#!/usr/bin/env python3
"""Statement lines of ``src/mxsim`` that no in-process test runs.

Runs pytest in this process under a ``sys.settrace`` line tracer limited to
the package's files, then prints each module's statement lines that never
ran.  A statement spanning several lines counts as run if any of its lines
ran.  Docstrings, ``global``/``nonlocal`` and the block under a line marked
``pragma: no cover`` are not counted.  Tests that start a subprocess are
not traced inside it.  Uses the standard library and pytest only.

    PYTHONPATH=src python scripts/line_coverage.py [pytest arguments]

The pytest arguments default to ``tests``.  Exits 0 when every counted line
ran, else 1.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mxsim"


def excluded_lines(lines: list[str]) -> set[int]:
    """Lines marked ``pragma: no cover``, with the block a marked header opens."""
    out: set[int] = set()
    for i, text in enumerate(lines, start=1):
        if "pragma: no cover" not in text:
            continue
        out.add(i)
        if text.split("#", 1)[0].rstrip().endswith(":"):
            indent = len(text) - len(text.lstrip())
            for j in range(i, len(lines)):
                body = lines[j]
                if body.strip() and len(body) - len(body.lstrip()) <= indent:
                    break
                out.add(j + 1)
    return out


def statement_spans(path: Path) -> dict[int, range]:
    """Each counted statement's first line mapped to the lines it spans."""
    source = path.read_text()
    excluded = excluded_lines(source.splitlines())
    spans = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring
        if node.lineno not in excluded:
            spans[node.lineno] = range(node.lineno, node.end_lineno + 1)
    return spans


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE)
    ran: dict[str, set[int]] = {}

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        lines = ran.setdefault(frame.f_code.co_filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        spans = statement_spans(path)
        hit = ran.get(str(path), set())
        unreached = [first for first, span in sorted(spans.items())
                     if hit.isdisjoint(span)]
        total, missed = total + len(spans), missed + len(unreached)
        if unreached:
            print(f"{path.relative_to(PACKAGE.parent.parent)}: "
                  f"{', '.join(map(str, unreached))}")
    print(f"{missed} of {total} statement lines in {PACKAGE.name} not run "
          f"(pytest exit {int(status)})")
    return int(missed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
