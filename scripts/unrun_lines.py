#!/usr/bin/env python3
"""List the lines of ``src/slimdock`` that no tier-1 test runs.

A ``sys.settrace`` line tracer (stdlib only) records the lines of
``src/slimdock`` that run while pytest runs the suite in this process.
The executable lines of a file are those its compiled code objects name
(``co_lines()``); the script prints each one that did not run as
``path:line``, then the count, and exits with pytest's status. A
function's ``def`` line counts as run when the function is called.

Run it from a checkout; arguments after ``--`` go to pytest::

    PYTHONPATH=src python3 scripts/unrun_lines.py
    PYTHONPATH=src python3 scripts/unrun_lines.py -- tests/test_model.py

Tracing slows the suite down about four times, so the tests that time
slimdock may fail under it; their lines still count as run.
"""

from __future__ import annotations

import os
import sys
import threading
from types import CodeType

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "slimdock")


def executable_lines(path: str) -> set[int]:
    """The line numbers that the code objects compiled from ``path`` name."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def main(argv: list[str]) -> int:
    pytest_args = argv[argv.index("--") + 1 :] if "--" in argv else []
    ran: set[tuple[str, int]] = set()
    paths: dict[str, str | None] = {}  # code file name: its absolute path, if in the package

    def local(frame, event, arg):
        ran.add((paths[frame.f_code.co_filename], frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in paths:
            path = os.path.abspath(name)
            paths[name] = path if os.path.dirname(path) == PACKAGE else None
        if paths[name] is None:
            return None
        ran.add((paths[name], frame.f_code.co_firstlineno))
        return local

    import pytest  # slimdock itself is imported only once tracing is on

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args], plugins=[])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    unrun = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            unrun += [(path, line) for line in sorted(executable_lines(path)) if (path, line) not in ran]
    for path, line in unrun:
        print(f"{os.path.relpath(path, ROOT)}:{line}")
    print(f"{len(unrun)} unrun lines")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
