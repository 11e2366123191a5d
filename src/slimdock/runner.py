"""Per-file pipeline and corpus aggregation.

One FileReport per input file: parse status, warnings, diagnostics, and in
fix mode the repair outcomes plus the residual diagnostics re-detected on
the repaired output (reparsed from the printed text, never copied from the
pre-fix list). Repairs record text insertions and leave the tree as it
was; the repaired text is the original with them spliced in
(``printer.print_minimal``). That reparse is also where every repair is
verified: one whose smell is still detected there is rolled back by
repairing the file again without it. A file that is not valid UTF-8 is
analysed with U+FFFD in place of its bad bytes, and marked
``lossy_decode`` so that the CLI does not write that text back.

Files are independent and processed one after another (the work is
pure-Python and CPU-bound, so threads would only contend for the GIL);
reports come back sorted by path. No file aborts a batch: a wholly
unparseable file, or one that hits an internal error, is reported as
failed-soft and excluded from smell statistics.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

from .dockerfile import DockerfileAst, parse_dockerfile
from .enrich import build_unified_ast, enrich
from .model import NodeKind, UnifiedNode
from .printer import print_minimal, unified_diff
from .rules import (
    RULES,
    RepairOutcome,
    RuleId,
    SmellDiagnostic,
    detect,
    repair,
)
from .shell import word_text

PARSE_OK = "ok"
PARSE_PARTIAL = "partial"
PARSE_FAILED = "failed-soft"


@dataclass
class FileReport:
    path: str
    status: str = PARSE_OK
    warnings: list[str] = field(default_factory=list)
    diagnostics: list[SmellDiagnostic] = field(default_factory=list)
    repairs: list[RepairOutcome] = field(default_factory=list)
    residual: list[SmellDiagnostic] = field(default_factory=list)
    original: str | None = None
    fixed: str | None = None
    error: str | None = None
    enriched_commands: int = 0
    total_commands: int = 0
    lossy_decode: bool = False  # not UTF-8: ``original`` has U+FFFD for bad bytes

    @property
    def changed(self) -> bool:
        return self.fixed is not None and self.fixed != self.original

    def diff(self) -> str:
        if self.fixed is None or self.original is None:
            return ""
        return unified_diff(self.original, self.fixed, self.path)


def _parse_status(ast: DockerfileAst) -> str:
    instructions = [
        n
        for n in ast.root.children
        if n.kind is not NodeKind.DOCKER_COMMENT
    ]
    if instructions and all(n.kind is NodeKind.DOCKER_UNKNOWN for n in instructions):
        return PARSE_FAILED
    if ast.warnings:
        return PARSE_PARTIAL
    return PARSE_OK


def analyze_text(
    text: str, path: str, rules: list[RuleId] | None = None
) -> tuple[DockerfileAst, FileReport]:
    """Parse + unify + enrich + detect; the lint pipeline for one file."""
    ast = enrich(build_unified_ast(parse_dockerfile(text, path)))
    report = FileReport(path=path, original=text)
    report.warnings = list(ast.warnings)
    report.status = _parse_status(ast)
    if report.status != PARSE_FAILED:
        report.diagnostics = detect(ast, rules)
    matched, total = ast.root.prop("enrich_stats", (0, 0))
    report.enriched_commands = matched
    report.total_commands = total
    return ast, report


def fix_text(
    text: str, path: str, rules: list[RuleId] | None = None
) -> FileReport:
    """Detect, repair in document order, reprint, and verify on the reparse.

    The residual list comes from re-analyzing the printed output, so it
    reflects exactly what a subsequent lint of the file would report. The
    same analysis verifies the repairs (``_unverified``). If one fails, the
    file is repaired again from the original text without the failed ones,
    which are reported rolled back, and verified again; every round rolls
    back at least one more repair, so the loop ends. A file whose repairs
    all roll back reprints byte-identically.
    """
    failed: set[tuple] = set()
    while True:
        ast, report = analyze_text(text, path, rules)
        if report.status == PARSE_FAILED:
            report.fixed = text
            return report
        ordinals = _run_ordinals(ast)
        for diagnostic in report.diagnostics:
            if _smell_key(ordinals, diagnostic) in failed:
                outcome = RepairOutcome("rolled-back", diagnostic, reason="still-detected")
            else:
                outcome = repair(ast, diagnostic)
            report.repairs.append(outcome)
        report.fixed = print_minimal(ast, text)
        reparsed, recheck = analyze_text(report.fixed, path, rules)
        report.residual = recheck.diagnostics
        unverified = _unverified(ast, ordinals, report, reparsed)
        if not unverified:
            return report
        failed |= unverified


def _run_ordinals(ast: DockerfileAst) -> dict[int, int]:
    return {id(run): i for i, run in enumerate(ast.runs())}


def _smell_key(ordinals: dict[int, int], diagnostic: SmellDiagnostic) -> tuple:
    """Names a smell in both the original tree and the reparse of the
    repaired text: repairs never insert an instruction, nor a labelled node
    ahead of an original one (see ``query.Anchor``)."""
    anchor = diagnostic.anchor
    return ordinals[id(diagnostic.run)], diagnostic.rule, anchor.label, anchor.ordinal


def _unverified(
    ast: DockerfileAst, ordinals: dict[int, int], report: FileReport, reparsed: DockerfileAst
) -> set[tuple]:
    """Keys of the applied repairs that the reparse of ``report.fixed``
    does not confirm: all of them if the instructions changed; those whose
    smell is in the residual; and those of a RUN whose original words are
    not all found, in order, among its reparsed words (an inserted word
    that changed how the original text reads)."""
    applied = [o for o in report.repairs if o.status == "applied"]
    keys = {_smell_key(ordinals, o.diagnostic) for o in applied}
    if [n.kind for n in ast.root.children] != [n.kind for n in reparsed.root.children]:
        return keys
    reparsed_ordinals = _run_ordinals(reparsed)
    remaining = {_smell_key(reparsed_ordinals, d) for d in report.residual}
    runs, reparsed_runs = ast.runs(), reparsed.runs()
    edited = {ordinals[id(o.diagnostic.run)] for o in applied if o.edits}
    garbled = {i for i in edited if not _words_kept(runs[i], reparsed_runs[i])}
    return {key for key in keys if key in remaining or key[0] in garbled}


def _words_kept(run: UnifiedNode, reparsed: UnifiedNode) -> bool:
    """The words of the original ``run`` are a subsequence of the words of
    ``reparsed``."""
    words = (word_text(n) for n in reparsed.walk() if n.kind is NodeKind.SC_WORD)
    return all(word_text(n) in words for n in run.walk() if n.kind is NodeKind.SC_WORD)


def process_file(
    path: str,
    rules: list[RuleId] | None = None,
    fix: bool = False,
    raw: bytes | None = None,
) -> FileReport:
    """Lint or fix one file; ``raw`` is its bytes if the caller read them."""
    report = FileReport(path=path)
    if raw is None:
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            report.error = str(exc)
            report.status = PARSE_FAILED
            return report
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        report.warnings.append(f"{path}: invalid UTF-8 replaced")
        report.lossy_decode = True
        text = raw.decode("utf-8", errors="replace")
    pre_warnings = list(report.warnings)
    try:
        if fix:
            result = fix_text(text, path, rules)
        else:
            _, result = analyze_text(text, path, rules)
    except Exception as exc:  # a bug on one input must not lose the batch
        report.error = f"internal error: {type(exc).__name__}: {exc}"
        report.status = PARSE_FAILED
        return report
    result.warnings = pre_warnings + result.warnings
    result.lossy_decode = report.lossy_decode
    if pre_warnings and result.status == PARSE_OK:
        result.status = PARSE_PARTIAL
    return result


def process_files(
    paths: list[str], rules: list[RuleId] | None = None, fix: bool = False
) -> list[FileReport]:
    """Process independent files; reports sorted by path."""
    return sorted((process_file(p, rules, fix) for p in paths), key=lambda r: r.path)


# ---------------------------------------------------------------------------
# Discovery
# ---------------------------------------------------------------------------

DEFAULT_GLOBS = ("Dockerfile", "*.Dockerfile", "Dockerfile.*")


def discover(paths: list[str], globs: tuple[str, ...] = DEFAULT_GLOBS) -> list[str]:
    """Expand files and directories into the Dockerfiles to process."""
    from fnmatch import fnmatch

    found: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, files in os.walk(path):
                for name in sorted(files):
                    if any(fnmatch(name, g) for g in globs):
                        found.append(os.path.join(root, name))
        else:
            found.append(path)
    return sorted(dict.fromkeys(found))


# ---------------------------------------------------------------------------
# Corpus statistics
# ---------------------------------------------------------------------------


@dataclass
class CorpusStats:
    occurrences: dict[RuleId, int] = field(default_factory=dict)
    files_with: dict[RuleId, int] = field(default_factory=dict)
    files_scanned: int = 0
    files_unique: int = 0
    files_failed: int = 0
    files_with_smell: int = 0
    enriched_commands: int = 0
    total_commands: int = 0

    @property
    def total_occurrences(self) -> int:
        return sum(self.occurrences.values())

    @property
    def coverage(self) -> float:
        if self.total_commands == 0:
            return 0.0
        return self.enriched_commands / self.total_commands


def collect_stats(
    paths: list[str], rules: list[RuleId] | None = None
) -> tuple[CorpusStats, list[FileReport]]:
    """Aggregate per-rule counts over a corpus, deduplicating byte-identical
    files by content hash first."""
    stats = CorpusStats(
        occurrences={r.id: 0 for r in RULES},
        files_with={r.id: 0 for r in RULES},
    )
    stats.files_scanned = len(paths)
    seen: set[str] = set()
    reports: list[FileReport] = []
    for path in paths:
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError:
            reports.append(process_file(path, rules))  # reports the error
            continue
        digest = hashlib.sha256(raw).hexdigest()
        if digest in seen:
            continue
        seen.add(digest)
        reports.append(process_file(path, rules, raw=raw))
    stats.files_unique = len(reports)
    reports.sort(key=lambda r: r.path)
    for report in reports:
        if report.status == PARSE_FAILED:
            stats.files_failed += 1
            continue
        stats.enriched_commands += report.enriched_commands
        stats.total_commands += report.total_commands
        rules_here = set()
        for diagnostic in report.diagnostics:
            stats.occurrences[diagnostic.rule] += 1
            rules_here.add(diagnostic.rule)
        for rule_id in rules_here:
            stats.files_with[rule_id] += 1
        if rules_here:
            stats.files_with_smell += 1
    return stats, reports
