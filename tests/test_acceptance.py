"""Acceptance suite: the exit criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Tolerances are exact where the criterion is exact (byte
identity, 100% precision/recall, zero residual); the only numeric bound is
the 1-second fixture-corpus runtime.
"""

import os
import re
import time

import pytest

from slimdock.enrich import parse_and_enrich
from slimdock.model import NodeKind, validate_tree
from slimdock.printer import print_minimal
from slimdock.rules import RULES, detect
from slimdock.runner import (
    PARSE_FAILED,
    analyze_text,
    collect_stats,
    fix_text,
)
from conftest import read_text

_D5_REASONS = {
    "RUN top level is not a simple command or pure AND-chain",
    "exec-form array has no shell chain to extend",
}

_RULE_KEYWORD = {
    "pipUseNoCacheDir": r"\bpip[23]? ",
    "npmCacheCleanUseForce": r"npm cache clean",
    "mkdirUsrSrcThenRemove": r"\bmkdir ",
    "rmRecursiveAfterMktempD": r"mktemp",
    "tarSomethingRmTheSomething": r"\btar ",
    "apkAddUseNoCache": r"\bapk ",
    "aptGetInstallUseNoRec": r"\bapt(-get)? ",
    "aptGetInstallThenRemoveAptLists": r"\bapt(-get)? ",
    "gpgVerifyAscRmAsc": r"\bgpg ",
    "npmCacheCleanAfterInstall": r"\bnpm (install|i|ci)\b",
    "gemUpdateSystemRmRootGem": r"\bgem ",
    "gemUpdateNoDocument": r"\bgem ",
    "yumInstallRmVarCacheYum": r"\b(yum|dnf|microdnf) ",
    "yarnCacheCleanAfterInstall": r"\byarn\b",
}


def _report(name):
    print(f"\nACCEPTANCE {name}: PASS")


class TestAcceptance:
    def test_fixture_detection_precision_recall(self, manifest, fixture_paths):
        """100% precision and recall against the hand-built annotations,
        including the firefox (negative for tar) and gsl (positive) snippets,
        in under one second."""
        assert len(manifest) >= 50, "fixture corpus is expected to be ~50 files"
        start = time.perf_counter()
        false_positives = []
        false_negatives = []
        per_rule_pos_files = {r.id.value: set() for r in RULES}
        per_rule_neg_files = {r.id.value: set() for r in RULES}
        for name, path in fixture_paths.items():
            text = read_text(path)
            _, report = analyze_text(text, name)
            got = sorted((d.rule.value, d.line) for d in report.diagnostics)
            want = sorted((e["rule"], e["line"]) for e in manifest[name])
            for item in got:
                if item not in want:
                    false_positives.append((name, item))
            for item in want:
                if item not in got:
                    false_negatives.append((name, item))
            got_rules = {r for r, _ in got}
            for rule_id, keyword in _RULE_KEYWORD.items():
                if rule_id in got_rules:
                    per_rule_pos_files[rule_id].add(name)
                elif re.search(keyword, text):
                    per_rule_neg_files[rule_id].add(name)
        elapsed = time.perf_counter() - start
        assert not false_positives, f"precision < 100%: {false_positives}"
        assert not false_negatives, f"recall < 100%: {false_negatives}"
        for rule_id in _RULE_KEYWORD:
            assert len(per_rule_pos_files[rule_id]) >= 2, f"{rule_id}: <2 positives"
            assert len(per_rule_neg_files[rule_id]) >= 2, f"{rule_id}: <2 negatives"
        firefox = [
            d.rule.value
            for d in analyze_text(
                read_text(fixture_paths["tar_firefox.Dockerfile"]), "ff"
            )[1].diagnostics
        ]
        assert "tarSomethingRmTheSomething" not in firefox
        gsl = [
            d.rule.value
            for d in analyze_text(read_text(fixture_paths["tar_gsl.Dockerfile"]), "g")[
                1
            ].diagnostics
        ]
        assert gsl == ["tarSomethingRmTheSomething"]
        assert elapsed < 1.0, f"fixture corpus took {elapsed:.3f}s (limit 1s)"
        _report(
            f"ground-truth detection (100% precision/recall, {len(manifest)} files, "
            f"{elapsed * 1000:.0f}ms)"
        )

    def test_repair_completeness(self, manifest, fixture_paths):
        """After fix, re-lint reports zero residual diagnostics for every
        fixable case; the only not-fixable cases are the documented
        chain-shape exclusions."""
        for name, path in fixture_paths.items():
            report = fix_text(read_text(path), name)
            expected_unfixed = sorted(
                (e["rule"], e["line"]) for e in manifest[name] if not e["fixable"]
            )
            residual = sorted((d.rule.value, d.line) for d in report.residual)
            assert residual == expected_unfixed, (
                f"{name}: residual {residual} != expected not-fixable "
                f"{expected_unfixed}"
            )
            for outcome in report.repairs:
                assert outcome.status in ("applied", "not-fixable"), (
                    f"{name}: unexpected {outcome.status}"
                )
                if outcome.status == "not-fixable":
                    assert outcome.reason in _D5_REASONS, (
                        f"{name}: undocumented not-fixable reason {outcome.reason!r}"
                    )
        _report("repair completeness (0 residual for fixable cases)")

    def test_gsl_placement_regression(self, fixture_paths):
        """The archive removal must land before the `cd`, where the relative
        path still resolves."""
        report = fix_text(read_text(fixture_paths["tar_gsl.Dockerfile"]), "gsl")
        fixed = report.fixed
        assert "rm gsl.tgz" in fixed
        assert fixed.index("rm gsl.tgz") < fixed.index("cd gsl-1.16")
        _report("gsl placement (rm before cd)")

    def test_roundtrip_identity(self, roundtrip_paths):
        """Every corpus file that parses without failed-soft status prints
        byte-identically, and its tree places repairs where its text is:
        parent links and span containment hold, sibling spans are in order
        and disjoint, every node with a literal covers exactly that text
        (a redirection's literal is its operator, which starts its span),
        and every shell-form RUN with a non-blank script has a shell tree."""
        assert len(roundtrip_paths) >= 100, "round-trip corpus must be >= 100 files"
        checked = 0
        for path in roundtrip_paths:
            text = read_text(path)
            ast, report = analyze_text(text, path)
            if report.status == PARSE_FAILED:
                continue
            assert print_minimal(ast, text) == text, f"round-trip failed: {path}"
            validate_tree(ast.root)
            for node in ast.root.walk():
                for prev, cur in zip(node.children, node.children[1:]):
                    assert prev.span.end <= cur.span.start, f"{path}: {prev!r} overlaps {cur!r}"
                if node.literal is not None:
                    covered = text[node.span.start : node.span.end]
                    if node.kind is NodeKind.SC_REDIRECTION:
                        covered = covered[: len(node.literal)]
                    assert covered == node.literal, f"{path}: {node!r} covers {covered!r}"
            for run in ast.runs():
                if run.prop("run_form") != "shell":
                    continue
                (script,) = [c for c in run.children if c.kind is NodeKind.SC_SCRIPT]
                if text[script.span.start : script.span.end].strip():
                    assert script.children, f"{path}: {run!r} has no shell tree"
            checked += 1
        assert checked >= 100
        _report(f"round-trip identity ({checked} files byte-identical, spans exact)")

    def test_fix_idempotence(self, fixture_paths):
        """fix(fix(f)) == fix(f) byte-for-byte over the fixture corpus."""
        for name, path in fixture_paths.items():
            first = fix_text(read_text(path), name)
            second = fix_text(first.fixed, name)
            assert second.fixed == first.fixed, f"{name}: fix not idempotent"
        _report("fix idempotence over the fixture corpus")

    def test_diff_locality(self, manifest, fixture_paths):
        """For single-smell fixtures the unified diff touches only lines
        within the repaired RUN instruction's span (plus at most one added
        continuation line)."""
        checked = 0
        for name, entries in manifest.items():
            if len(entries) != 1 or not entries[0]["fixable"]:
                continue
            text = read_text(fixture_paths[name])
            ast, pre = analyze_text(text, name)
            (diag,) = pre.diagnostics
            run_start = diag.run.span.start_line
            run_end = diag.run.span.end_line
            report = fix_text(text, name)
            if not report.changed:
                continue
            for old_line, new_line, count in _hunks(report.diff()):
                assert run_start <= old_line <= run_end + 1, (
                    f"{name}: hunk at line {old_line} outside RUN "
                    f"{run_start}..{run_end}"
                )
                assert old_line + max(count - 1, 0) <= run_end + 1
            checked += 1
        assert checked >= 10
        _report(f"diff locality ({checked} single-smell fixtures)")

    def test_non_interference(self, manifest, fixture_paths):
        """A fix pass never introduces a diagnostic that was absent before,
        and fully-fixable files end with zero diagnostics."""
        for name, path in fixture_paths.items():
            text = read_text(path)
            report = fix_text(text, name)
            before = {(d.rule.value, d.line) for d in report.diagnostics}
            after = [(d.rule.value, d.line) for d in report.residual]
            assert len(after) <= len(before)
            for rule, _line in after:
                assert rule in {r for r, _ in before}, (
                    f"{name}: fix introduced new diagnostic {rule}"
                )
            if all(e["fixable"] for e in manifest[name]):
                assert after == [], f"{name}: diagnostics after fix pass: {after}"
        _report("non-interference (no new diagnostics, fixable files end clean)")

    def test_stats_arithmetic(self, tmp_path):
        """Exact occurrence / files-with-smell numbers on a corpus built
        with known counts, in the two-column-group table layout."""
        files = {
            "a/Dockerfile": "FROM p\nRUN pip install x && pip install y\n",
            "b/Dockerfile": "FROM p\nRUN pip install z\nRUN yarn install\n",
            "dup/Dockerfile": "FROM p\nRUN pip install x && pip install y\n",
            "c/Dockerfile": "FROM a\nRUN apk add --no-cache git\n",
            "junk/Dockerfile": "complete nonsense\nnot even close\n",
        }
        for rel, content in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True)
            path.write_text(content)
        paths = sorted(str(p) for p in tmp_path.rglob("Dockerfile"))
        stats, _ = collect_stats(paths)
        assert stats.files_scanned == 5
        assert stats.files_unique == 4  # dup/ collapsed by content hash
        assert stats.files_failed == 1  # junk/ is wholly unparseable
        occurrences = {k.value: v for k, v in stats.occurrences.items() if v}
        files_with = {k.value: v for k, v in stats.files_with.items() if v}
        assert occurrences == {
            "pipUseNoCacheDir": 3,
            "yarnCacheCleanAfterInstall": 1,
        }
        assert files_with == {
            "pipUseNoCacheDir": 2,
            "yarnCacheCleanAfterInstall": 1,
        }
        assert stats.total_occurrences == 4
        assert stats.files_with_smell == 2
        from slimdock.cli import _stats_table

        table = _stats_table(stats)
        assert "# Docker Smell" in table
        assert "# Dockerfile with Smell" in table
        assert re.search(r"Total\s+4\s+2", table)
        _report("stats arithmetic (exact counts, table layout)")


def _hunks(diff):
    """(old_start, new_start, old_count) per hunk of a unified diff."""
    out = []
    for line in diff.splitlines():
        m = re.match(r"@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@", line)
        if m:
            out.append(
                (int(m.group(1)), int(m.group(3)), int(m.group(2) or "1"))
            )
    return out
