"""Spans around calls into slimdock's public functions, and self time.

A span is ``(name, start, end, parent, file_id)`` with ``perf_counter``
seconds and ``parent`` the index of the enclosing span (``-1`` for none).
Spans stay in memory and are written out once, when the run ends.  A
layer's self time is its span's duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout

from slimdock import (
    analyze_text,
    build_unified_ast,
    detect,
    enrich,
    parse_dockerfile,
    print_minimal,
    repair,
    runner,
    verify_or_rollback,
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, file_id: int = -1):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, file_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name_, start, _, parent_, fid = self.spans[index]
            self.spans[index] = (name_, start, time.perf_counter(), parent_, fid)

    def self_ms(self, first: int = 0) -> dict[str, float]:
        """Total self time per span name, over spans from index ``first``."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, _ in self.spans[first:]:
            if parent >= first:
                children.setdefault(parent, []).append((start, end))
        totals: dict[str, float] = {}
        for offset, (name, start, end, _, _) in enumerate(self.spans[first:]):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(first + offset, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            totals[name] = totals.get(name, 0.0) + (end - start - covered) * 1000.0
        return totals

    def total_ms(self, name: str, first: int = 0) -> float:
        return sum((end - start) * 1000.0
                   for n, start, end, _, _ in self.spans[first:] if n == name)

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for name, start, end, parent, fid in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, fid]) + "\n")


def traced_fix(tracer: Tracer, text: str, path: str, file_id: int):
    """``runner.fix_text`` composed from the public functions, one span per
    call.  Returns (diagnostics, outcomes, fixed text, residual)."""
    span = tracer.span
    with span("file", file_id):
        with span("dockerfile.parse", file_id):
            tree = parse_dockerfile(text, path)
        with span("enrich.unify", file_id):
            tree = build_unified_ast(tree)
        with span("enrich.enrich", file_id):
            ast = enrich(tree)
        if runner._parse_status(ast) == runner.PARSE_FAILED:
            return [], [], text, []
        with span("rules.detect", file_id):
            diagnostics = detect(ast, None)
        outcomes = []
        for diagnostic in diagnostics:
            with span("rules.repair", file_id):
                outcome = repair(ast, diagnostic)
            with span("rules.verify", file_id):
                outcome = verify_or_rollback(ast, diagnostic, outcome)
            outcomes.append(outcome)
        with span("printer.print", file_id):
            fixed = print_minimal(ast, text)
        with span("runner.recheck", file_id):
            _, recheck = analyze_text(fixed, path)
    return diagnostics, outcomes, fixed, recheck.diagnostics


def traced_cli(tracer: Tracer, cli, argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` in-process, with a span around it and one around
    the batch it hands to ``runner.process_files``; the ``cli.main`` self
    time is then the CLI's own work (argument parsing, discovery, report
    assembly and printing).  Returns (exit code, stdout, stderr)."""
    batch = cli.process_files

    def process_files(*args, **kwargs):
        name = "runner.process_files_fix" if kwargs.get("fix") else "runner.process_files_lint"
        with tracer.span(name):
            return batch(*args, **kwargs)

    out, err = io.StringIO(), io.StringIO()
    cli.process_files = process_files
    try:
        with redirect_stdout(out), redirect_stderr(err), tracer.span("cli.main"):
            code = cli.main(argv)
    finally:
        cli.process_files = batch
    return code, out.getvalue(), err.getvalue()
