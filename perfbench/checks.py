"""Correctness checks on slimdock's outputs, and the failures they find.

A failure is kept per input file with its causes, so a run can itemise
every failing input rather than filter it out.
"""

from __future__ import annotations

from collections import Counter


def rule_line_fix(diagnostics) -> list[tuple[str, int, bool]]:
    return sorted((d.rule.value, d.line, d.fixable) for d in diagnostics)


class Findings:
    def __init__(self) -> None:
        self.failures: dict[str, list[str]] = {}  # input file name -> causes
        self.run_failures: list[str] = []  # failures tied to no input file
        self.broken: set[str] = set()  # raised in-process; left out of timing
        self.fix_results: dict[str, list] = {}  # name -> [statuses, residual, changed]

    def fail(self, name: str, cause: str) -> None:
        causes = self.failures.setdefault(name, [])
        if cause not in causes:
            causes.append(cause)

    def fail_all(self, names, cause: str) -> None:
        for name in names:
            self.fail(name, cause)

    def fail_run(self, cause: str) -> None:
        if cause not in self.run_failures:
            self.run_failures.append(cause)

    def check(self, case, diagnostics, parse_failed: bool, outcomes, fixed: str, residual,
              unrepaired=None) -> None:
        """The checks behind ``failed``: expected diagnostics, byte-identical
        reprint of the unrepaired tree, fix idempotence, and no repair
        reported ``applied`` whose smell is still in the residual.
        ``unrepaired`` is the file's tree before any repair, if at hand."""
        from slimdock import fix_text, parse_and_enrich, print_minimal

        name = case.name
        if parse_failed:
            self.fail(name, "parsed as failed-soft")
        if case.expected is not None and rule_line_fix(diagnostics) != case.expected:
            got = rule_line_fix(diagnostics)
            missing = sorted(set(case.expected) - set(got))
            extra = sorted(set(got) - set(case.expected))
            self.fail(name, f"diagnostics differ: missing {missing[:3]} extra {extra[:3]}")
        try:
            if unrepaired is None:
                unrepaired = parse_and_enrich(case.text, case.path)
            if print_minimal(unrepaired, case.text) != case.text:
                self.fail(name, "unrepaired reprint is not byte-identical")
            again = fix_text(fixed, case.path)
        except Exception as exc:  # a raising input is a finding, not a crash
            self.fail(name, f"check raised {type(exc).__name__}: {exc}")
            return
        if again.fixed != fixed:
            self.fail(name, "fix is not idempotent")
        not_applied = Counter(o.diagnostic.rule for o in outcomes if o.status != "applied")
        for rule, count in Counter(d.rule for d in residual).items():
            if count > not_applied[rule]:
                self.fail(name, f"applied {rule.value} repair left its smell in the residual")
        self.fix_results[name] = [
            [o.status for o in outcomes],
            sorted([d.rule.value, d.line] for d in residual),
            fixed != case.text,
        ]
