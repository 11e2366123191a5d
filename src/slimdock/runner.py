"""Per-file pipeline and corpus aggregation.

One FileReport per input file: parse status, warnings, diagnostics, and in
fix mode the repair outcomes plus the residual diagnostics, exactly what a
lint of the repaired output reports. Repairs record text insertions and
leave the tree as it was; the repaired text is the original with them
spliced in (``printer.print_minimal``). Of that text, only the RUNs that
hold an insertion are read again, each on its own, and of those only the
chain elements a repair touched are parsed again; the other RUNs keep
their trees and diagnostics. That is where every repair is verified: one
whose smell is still detected there is rolled back by repairing the file
again without it. A file that is not valid UTF-8 is
analysed with U+FFFD in place of its bad bytes, and marked
``lossy_decode`` so that the CLI does not write that text back.

Files are independent and processed one after another (the work is
pure-Python and CPU-bound, so threads would only contend for the GIL);
reports come back sorted by path. A batch holds one file's trees at a
time: ``process_file`` drops the tree links (``run``, ``anchor``) from
its report, so reference counting frees the file's trees as soon as the
report is built. No file aborts a batch: a wholly unparseable file, or
one that hits an internal error, is reported as failed-soft and excluded
from smell statistics.
"""

from __future__ import annotations

import functools
import hashlib
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from itertools import accumulate, groupby

from .dockerfile import DockerfileAst, FileParser, SegmentedText
from .enrich import embed_run, enrich_node, parse_and_enrich
from .model import NodeKind, UnifiedNode
from .printer import print_minimal, unified_diff
from .rules import (
    RULES,
    RepairOutcome,
    RuleId,
    SmellDiagnostic,
    chain_shape,
    detect,
    detect_order,
    detect_run,
    repair,
    run_script,
    writes_gemrc_no_document,
)
from .shell import parse_shell, word_text

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
    ast = parse_and_enrich(text, path)
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
    """Detect, repair in document order, reprint, and verify on a re-read.

    The text is parsed and analysed once; of the printed output, only the
    RUNs that hold an insertion are read again, each on its own
    (``_reanalyze``), and of such a RUN only the chain elements the repairs
    touched are parsed again (``_reread``). That gives the residual list,
    exactly what a lint of the output reports, and verifies the repairs
    (``_unverified``). A failed one is rolled back by repairing again, from
    the same analysis, without it; every round rolls back at least one
    more repair, so the loop ends. A file whose repairs all roll back
    reprints byte-identically.
    """
    ast, first = analyze_text(text, path, rules)
    if first.status == PARSE_FAILED:
        first.fixed = text
        return first
    ordinals = _run_ordinals(ast.runs())
    failed: set[tuple] = set()
    while True:
        ast.insertions, ast.chains = [], {}
        report = replace(first, repairs=[])
        for diagnostic in report.diagnostics:
            if _smell_key(ordinals, diagnostic) in failed:
                outcome = RepairOutcome("rolled-back", diagnostic, reason="still-detected")
            else:
                outcome = repair(ast, diagnostic)
            report.repairs.append(outcome)
        report.fixed = print_minimal(ast, text)
        read_as, report.residual, windows = _reanalyze(ast, first.diagnostics, report.fixed, rules)
        unverified = _unverified(ordinals, report, read_as, windows)
        if not unverified:
            return report
        failed |= unverified


Windows = list[tuple[list[UnifiedNode], list[UnifiedNode]]]


def _reanalyze(
    ast: DockerfileAst, diagnostics: list[SmellDiagnostic], fixed: str, rules: list[RuleId] | None
) -> tuple[list[UnifiedNode] | None, list[SmellDiagnostic], dict[int, Windows]]:
    """What ``analyze_text(fixed)`` finds, given ``ast`` and its ``diagnostics``:
    per RUN, the tree it reads as (None if the instructions changed: then
    every applied repair fails), and the diagnostics, spans in ``fixed``.
    Only a RUN that holds an insertion, ends included, is read again; the
    rest of ``fixed`` is the original text, so it reads the same if each
    such RUN reads as a RUN over its moved span and no insertion lies
    outside every RUN. Its tree comes from ``_reread``, and it is detected
    anew; its windows, by RUN ordinal, pair the elements a window replaced
    with the elements read from it. Any other RUN keeps its tree and
    diagnostics, moved by the text inserted before it; if the gemrc fact
    flipped, only its gemUpdateNoDocument ones, the one check that reads
    the fact, are dropped or looked for again."""
    if not ast.insertions:
        return ast.runs(), list(diagnostics), {}
    shift = _Shift(ast.insertions)
    printed = FileParser(fixed, ast.path)
    runs = ast.runs()
    read_as, windows, held = [], {}, 0
    for i, run in enumerate(runs):
        start, end = run.span.start, run.span.end
        inside = bisect_right(shift.offsets, end) - bisect_left(shift.offsets, start)
        if not inside:
            read_as.append(run)
            continue
        held += inside
        start, end = start + shift(start), end + shift(end, through=True)
        new = printed.instruction_at(start)
        if new.kind is not NodeKind.DOCKER_RUN or (new.span.start, new.span.end) != (start, end):
            return None, [], {}
        windows[i] = _reread(run, new, shift)
        if windows[i] is None:  # the whole payload is the window
            embed_run(new, ast.path)
            enrich_node(new)
            windows[i] = [([run], [new])]
        read_as.append(new)
    if held != len(shift.offsets):
        return None, [], {}  # an insertion outside every RUN
    fact = functools.cache(lambda: writes_gemrc_no_document(read_as))
    flipped = ast.gemrc is not None and ast.gemrc != fact()
    gem = [r for r in (RuleId if rules is None else rules) if r == RuleId.gemUpdateNoDocument]
    kept = {id(run): list(found) for run, found in groupby(diagnostics, lambda d: d.run)}
    whole = printed.sm.span(0, len(fixed))
    residual = []
    for run, tree in zip(runs, read_as):
        if tree is not run:
            residual += detect_run(ast.path, tree, rules, fact)
            continue
        found = kept.get(id(run), [])
        if flipped:
            found = [d for d in found if d.rule is not RuleId.gemUpdateNoDocument]
            if not fact():
                found = sorted(found + detect_run(ast.path, run, gem, fact), key=detect_order)
        delta = shift(run.span.start)
        residual += [replace(d, span=d.span.moved(delta, whole)) for d in found]
    return read_as, residual, windows


class _Shift:
    """Where the original text lands in the printed one: the offsets of a
    round's insertions, and how many characters go in before each."""

    def __init__(self, insertions: list[tuple[int, int, int, str]]):
        ordered = sorted((offset, len(text)) for offset, _, _, text in insertions)
        self.offsets = [offset for offset, _ in ordered]
        self._before = list(accumulate((size for _, size in ordered), initial=0))

    def __call__(self, offset: int, through: bool = False) -> int:
        """Characters inserted before ``offset``; with ``through``, at it too."""
        return self._before[(bisect_right if through else bisect_left)(self.offsets, offset)]


def _reread(run: UnifiedNode, new: UnifiedNode, shift: _Shift) -> Windows | None:
    """Give ``new``, the printed text of the edited ``run``, its enriched
    shell tree by parsing only what the insertions can reach; the windows,
    or None, with ``new`` untouched, when that is not known to read as a
    parse of the whole payload would.

    ``run`` must be a chain (``rules.chain_shape``), and every insertion
    must touch an element: lie in its span, ends included. Then each
    untouched element, and the gap after it, is the same text in ``new``:
    its copy is moved by the text inserted before it. Each maximal run of
    touched elements, with what was inserted there, is a window. It runs
    from the first one's printed start to the ``&&`` of the gap after the
    last one, or to the end of the payload, and must read as chain
    elements (``_read_window``). The tree is the one a parse of the whole
    payload builds: the lexer starts afresh after ``&&`` and its trivia,
    and the parser reads each element of a top-level chain from fresh
    state."""
    if (
        not chain_shape(run)
        or new.prop("run_form") != run.prop("run_form")
        or new.children  # the parser built it: an `sh -c` string with JSON escapes
    ):
        return None
    top = run_script(run).children[0]
    elements = top.children if top.kind is NodeKind.SC_AND else [top]
    starts = [element.span.start for element in elements]
    offsets = shift.offsets
    inside = slice(bisect_left(offsets, run.span.start), bisect_right(offsets, run.span.end))
    touched = set()
    for offset in offsets[inside]:
        k = bisect_right(starts, offset) - 1
        if k < 0 or offset > elements[k].span.end:
            return None  # not in an element
        touched.add(k)
    if not touched:
        return None
    src = new.prop("_script_src")
    start, end = new.prop("_script_region")
    parts: list[UnifiedNode] = []
    windows: Windows = []
    for is_touched, group in groupby(range(len(elements)), touched.__contains__):
        old = [elements[k] for k in group]
        if not is_touched:
            parts += [element.moved(shift(element.span.start), new.span) for element in old]
            continue
        first, last = old[0].span, old[-1].span
        window_start = src.to_payload(first.start + shift(first.start))
        window_end = end
        if old[-1] is not elements[-1]:
            gap = src.to_payload(last.end + shift(last.end, through=True))
            window_end = src.clean.find("&&", gap)
        read = _read_window(src, window_start, window_end, end)
        if read is None:
            return None
        parts += read
        windows.append((old, read))
    script = UnifiedNode(NodeKind.SC_SCRIPT, src.span(start, end))
    if len(parts) > 1:
        chain = UnifiedNode(NodeKind.SC_AND, parts[0].span.through(parts[-1].span))
        script.add_child(chain)
        for part in parts:
            chain.add_child(part)
    else:
        script.add_child(parts[0])
    new.add_child(script)
    return windows


_SEPARATED = frozenset({NodeKind.SC_AND, NodeKind.SC_OR, NodeKind.SC_SEQ})


def _read_window(
    src: SegmentedText, start: int, end: int, payload_end: int
) -> list[UnifiedNode] | None:
    """The enriched chain elements ``src.clean[start:end]`` reads as, or
    None unless they are what a parse of the payload to ``payload_end``
    reads there: unless the window ends the payload, it ends in a blank
    (so no token of it reads on into the ``&&``); it parses with no
    warning into one statement, a chain or a single element, that starts
    at ``start``, and only blanks follow it; and each ``#`` in it lies in
    a word, assignment or redirection read from it (any other starts a
    comment, which would run past the window's end, or sits in an opaque
    region)."""
    text = src.clean[start:end]
    if end <= start or (end != payload_end and text[-1] not in " \t"):
        return None
    warnings: list[str] = []
    script = parse_shell(src.clean, span_builder=src.span, warnings=warnings, region=(start, end))
    if warnings or len(script.children) != 1:
        return None
    top = script.children[0]
    elements = top.children if top.kind is NodeKind.SC_AND else [top]
    if (
        any(element.kind in _SEPARATED for element in elements)
        or src.to_payload(elements[0].span.start) != start
        or src.clean[src.to_payload(elements[-1].span.end) : end].strip(" \t")
        or ("#" in text and not _hashes_in_words(src, start, text, top))
    ):
        return None
    enrich_node(top)
    return elements


_WORDISH = frozenset({NodeKind.SC_WORD, NodeKind.SC_ASSIGNMENT, NodeKind.SC_REDIRECTION})


def _hashes_in_words(src: SegmentedText, start: int, text: str, top: UnifiedNode) -> bool:
    """Whether every ``#`` of ``text``, the payload from ``start``, lies in
    the span of a word, assignment or redirection of ``top``."""
    spans = [(n.span.start, n.span.end) for n in top.walk() if n.kind in _WORDISH]
    k = text.find("#")
    while k >= 0:
        at = src.to_source(start + k)
        if not any(s <= at < e for s, e in spans):
            return False
        k = text.find("#", k + 1)
    return True


def _run_ordinals(runs: list[UnifiedNode]) -> dict[int, int]:
    return {id(run): i for i, run in enumerate(runs)}


def _smell_key(ordinals: dict[int, int], diagnostic: SmellDiagnostic) -> tuple:
    """Names a smell in both the original tree and the reparse of the
    repaired text: repairs never insert an instruction, nor a labelled node
    ahead of an original one (see ``query.Anchor``)."""
    anchor = diagnostic.anchor
    return ordinals[id(diagnostic.run)], diagnostic.rule, anchor.label, anchor.ordinal


def _unverified(
    ordinals: dict[int, int],
    report: FileReport,
    read_as: list[UnifiedNode] | None,
    windows: dict[int, Windows],
) -> set[tuple]:
    """Keys of the applied repairs that ``read_as``, the tree each RUN reads
    as in ``report.fixed``, does not confirm: all of them if the
    instructions changed; those whose smell is in the residual; and those
    of a RUN where the original words of a window's elements are not all
    found, in order, among the words read from that window (an inserted
    word that changed how the text reads)."""
    applied = [o for o in report.repairs if o.status == "applied"]
    keys = {_smell_key(ordinals, o.diagnostic) for o in applied}
    if read_as is None:
        return keys
    read_ordinals = _run_ordinals(read_as)
    remaining = {_smell_key(read_ordinals, d) for d in report.residual}
    edited = {ordinals[id(o.diagnostic.run)] for o in applied if o.edits}
    garbled = {i for i in edited if not all(_words_kept(old, read) for old, read in windows[i])}
    return {key for key in keys if key in remaining or key[0] in garbled}


def _words_kept(old: list[UnifiedNode], read: list[UnifiedNode]) -> bool:
    """The words of the subtrees ``old`` are a subsequence of the words of
    the subtrees ``read``."""
    words = (word_text(n) for root in read for n in root.walk() if n.kind is NodeKind.SC_WORD)
    return all(
        word_text(n) in words for root in old for n in root.walk() if n.kind is NodeKind.SC_WORD
    )


def process_file(
    path: str,
    rules: list[RuleId] | None = None,
    fix: bool = False,
    raw: bytes | None = None,
) -> FileReport:
    """Lint or fix one file; ``raw`` is its bytes if the caller read them.

    The report holds no tree: its diagnostics, residual and repair
    outcomes have ``run`` and ``anchor`` set to None."""
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
    for diagnostic in result.diagnostics + result.residual + [o.diagnostic for o in result.repairs]:
        diagnostic.run = diagnostic.anchor = None
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
