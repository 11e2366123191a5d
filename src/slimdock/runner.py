"""Per-file pipeline and corpus aggregation.

One FileReport per input file: parse status, warnings, diagnostics, and in
fix mode the repair outcomes plus the residual diagnostics, exactly what a
lint of the repaired output reports. Repairs record text insertions and
leave the tree as it was; the repaired text is the original with them
spliced in (``printer.print_minimal``). Of that text, only the RUNs that
hold an insertion are read again, each on its own, and of those only the
windows that hold inserted text, or a chain element it went into, are
parsed again, each distinct window text once per file where it lies in
one source segment (``_read_window``); the other RUNs keep their trees
and diagnostics. That is where every repair is verified: one whose smell
is still detected there is rolled back by repairing the file again
without it. A file that is not valid UTF-8 is analysed with U+FFFD in
place of its bad bytes, and marked ``lossy_decode`` so that the CLI does
not write that text back.

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

import hashlib
import os
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from itertools import accumulate, groupby

from .dockerfile import DockerfileAst, FileParser, SegmentedText
from .enrich import embed_run, enrich_node, parse_and_enrich
from .model import NodeKind, UnifiedNode
from .printer import print_minimal, unified_diff
from .rules import (
    _FLAG,
    RULES,
    RepairOutcome,
    RuleId,
    SmellDiagnostic,
    chain_elements,
    clear_configured,
    detect,
    detect_run,
    repair,
    run_script,
)
from .shell import list_node, parse_shell, word_text

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
    if report.status == PARSE_FAILED:
        report.error = "no known instruction"
    else:
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
    (``_reanalyze``), and of such a RUN only the windows that hold
    inserted text are parsed again (``_reread``). That gives the residual
    list, exactly what a lint of the output reports, and verifies the
    repairs (``_unverified``). A failed one is rolled back by repairing
    again, from the same analysis, without it; every round rolls back at
    least one more repair, so the loop ends. A file whose repairs all roll
    back reprints byte-identically.
    """
    ast, first = analyze_text(text, path, rules)
    if first.status == PARSE_FAILED:
        first.fixed = text
        return first
    ordinals = _run_ordinals(ast.runs())
    failed: dict[tuple, str] = {}  # the key of each failed repair's smell: why it failed
    while True:
        ast.insertions, ast.chains = [], {}
        report = replace(first, repairs=[])
        for diagnostic in report.diagnostics:
            detail = failed.get(_smell_key(ordinals, diagnostic))
            if detail:
                outcome = RepairOutcome(
                    "rolled-back", diagnostic, reason="still-detected", detail=detail
                )
            else:
                outcome = repair(ast, diagnostic)
            report.repairs.append(outcome)
        report.fixed = print_minimal(ast, text)
        read_as, report.residual, garbled = _reanalyze(ast, first.diagnostics, report.fixed, rules)
        unverified = _unverified(ordinals, report, read_as, garbled)
        if not unverified:
            return report
        failed |= unverified


Windows = list[tuple[list[UnifiedNode], tuple[UnifiedNode, ...]]]


def _reanalyze(
    ast: DockerfileAst, diagnostics: list[SmellDiagnostic], fixed: str, rules: list[RuleId] | None
) -> tuple[list[UnifiedNode] | None, list[SmellDiagnostic], set[int]]:
    """What ``analyze_text(fixed)`` finds, given ``ast`` and the
    ``diagnostics`` that ``analyze_text`` reports of it: per RUN, the tree
    it reads as (None if the instructions changed: then every applied
    repair fails), the diagnostics, spans in ``fixed``, and the ordinals of
    the RUNs where an original word does not read the same.
    Only a RUN that holds an insertion, ends included, is read again; the
    rest of ``fixed`` is the original text, so it reads the same if each
    such RUN reads as a RUN over its moved span and no insertion lies
    outside every RUN. Its tree comes from ``_reread``, it is detected
    anew, and the words of each window are checked (``_words_kept``).
    Any other RUN keeps its tree and diagnostics, moved by the text
    inserted before it, as a check reads only its own RUN. The gemrc fact
    is read once, of the printed RUNs, by ``clear_configured``. Repairs
    only insert text, so a gemrc write in ``ast`` is still read in them,
    and what it cleared stays cleared, unless a RUN's words are garbled:
    then every RUN is detected anew."""
    runs = ast.runs()
    if not ast.insertions:
        return runs, list(diagnostics), set()
    shift = _Shift(ast.insertions)
    printed = FileParser(fixed, ast.path)
    read_as, garbled, held = [], set(), 0
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
            return None, [], set()
        windows = _reread(run, new, shift)
        if windows is None:  # the whole payload is the window
            embed_run(new, ast.path)
            enrich_node(new)
            windows = [([run], [new])]
        if not all(_words_kept(old, read, shift) for old, read in windows):
            garbled.add(i)
        read_as.append(new)
    if held != len(shift.offsets):
        return None, [], set()  # an insertion outside every RUN
    kept = {id(run): list(found) for run, found in groupby(diagnostics, lambda d: d.run)}
    whole = printed.sm.span(0, len(fixed))
    residual = []
    for run, tree in zip(runs, read_as):
        if tree is not run:
            residual += detect_run(ast.path, tree, rules)
            continue
        delta = shift(run.span.start)
        found = detect_run(ast.path, run, rules) if garbled else kept.get(id(run), [])
        residual += [replace(d, span=d.span.moved(delta, whole)) for d in found]
    return read_as, clear_configured(residual, read_as), garbled


class _Shift:
    """Where the original text lands in the printed one: the offsets of a
    round's insertions, how many characters go in before each, and the
    offsets that hold a flag addition; and the windows of the printed
    text parsed so far (``_read_window``)."""

    def __init__(self, insertions: list[tuple[int, int, int, str]]):
        ordered = sorted((offset, len(text)) for offset, _, _, text in insertions)
        self.offsets = [offset for offset, _ in ordered]
        self._before = list(accumulate((size for _, size in ordered), initial=0))
        self.flagged = {offset for offset, rank, _, _ in insertions if rank == _FLAG}
        self.parsed: dict[tuple[str, bool], tuple[int, list[UnifiedNode]] | None] = {}

    def __call__(self, offset: int, through: bool = False) -> int:
        """Characters inserted before ``offset``; with ``through``, at it too."""
        return self._before[(bisect_right if through else bisect_left)(self.offsets, offset)]


# the inserted `&&` that joins a new element to the one before it, with its
# trivia: blanks and backslash-newlines
_JOINED_RE = re.compile(r"(?:[ \t\r]|\\\n)*&&(?:[ \t\r]|\\\n)*")


def _reread(run: UnifiedNode, new: UnifiedNode, shift: _Shift) -> Windows | None:
    """Give ``new``, the printed text of the edited ``run``, its enriched
    shell tree by parsing only what the insertions can reach; the windows,
    or None, with ``new`` untouched, when that is not known to read as a
    parse of the whole payload would.

    ``run`` must be a chain (``rules.chain_elements``), and every insertion
    must lie in an element's span, ends included. The printed chain is a
    row of pieces: what goes in before element 0 (B), then each element k
    followed by what goes in after it (A_k). A flag addition dirties its
    element, as does any other insertion inside one, or at the end of one
    whose last payload character is `\\`, which the inserted blank would
    escape; any other insertion at element k's end is A_k, and one at
    element 0's start is B. Every element, and each B or A_k that holds
    text, is a piece; B and A_k are dirty. A clean element, and the gap
    after it, is the same text in ``new``: its copy is moved by the text
    inserted before it and at its start. Each row of dirty pieces is one
    window, read as chain elements (``_read_window``): from the printed
    start of its first piece (for A_k, past the inserted ``&&``) to the
    last ``&&`` before the printed start of the next element, or to the
    end of the payload. The tree is the one a parse of the whole payload
    builds: the lexer starts afresh after ``&&`` and its trivia, and the
    parser reads each element of a top-level chain from fresh state."""
    elements = chain_elements(run_script(run))
    if (
        elements is None
        or new.prop("run_form") != run.prop("run_form")
        or new.children  # the parser built it: an `sh -c` string it left opaque
    ):
        return None
    starts = [element.span.start for element in elements]
    offsets, old_src = shift.offsets, run.prop("_script_src")
    inside = slice(bisect_left(offsets, run.span.start), bisect_right(offsets, run.span.end))
    dirty = set()  # pieces in printed order: B is 0, element k is 2k + 1, A_k is 2k + 2
    for offset in offsets[inside]:
        k = bisect_right(starts, offset) - 1
        if k < 0 or offset > elements[k].span.end:
            return None  # not in an element
        if offset in shift.flagged:
            dirty.add(2 * k + 1)
        elif offset == elements[k].span.end:  # A_k, unless the inserted blank escapes a `\`
            dirty.add(2 * k + 1 + (old_src.clean[old_src.to_payload(offset) - 1] != "\\"))
        else:
            dirty.add(0 if offset == starts[0] else 2 * k + 1)
    src = new.prop("_script_src")
    start, end = new.prop("_script_region")

    def printed(offset: int, through: bool = False) -> int:
        return src.to_payload(offset + shift(offset, through))

    pieces = [p for p in range(2 * len(elements) + 1) if p % 2 or p in dirty]
    parts: list[UnifiedNode] = []
    windows: Windows = []
    for is_dirty, row in groupby(pieces, dirty.__contains__):
        row = list(row)
        old = [elements[p // 2] for p in row if p % 2]
        if not is_dirty:
            parts += [e.moved(shift(e.span.start, through=True), new.span) for e in old]
            continue
        first, after = row[0], (row[-1] + 1) // 2  # after: the element that follows the row
        if first and not first % 2:  # A_k: past the `&&` inserted after element k
            joint = _JOINED_RE.match(src.clean, printed(elements[first // 2 - 1].span.end))
            if joint is None:
                return None
            at = joint.end()
        else:
            at = printed(starts[first // 2])
        to = end
        if after < len(elements):
            to = src.clean.rfind("&&", at, printed(starts[after], through=True))
        found = _read_window(src, at, to, end, shift.parsed)
        if found is None:
            return None
        parts += found
        windows.append((old, found))
    chain = parts[0] if len(parts) == 1 else list_node(NodeKind.SC_AND, parts)
    new.children = (UnifiedNode(NodeKind.SC_SCRIPT, src.span(start, end), children=(chain,)),)
    return windows


def _read_window(
    src: SegmentedText, start: int, end: int, payload_end: int, parsed: dict
) -> tuple[UnifiedNode, ...] | None:
    """The enriched chain elements ``src.clean[start:end]`` reads as, or
    None unless they are what a parse of the payload to ``payload_end``
    reads there: unless the window ends the payload, its last character is
    not `\\` (the whole parse reads `\\&` as an escaped `&`; no other token
    reads on into the ``&&``, and a trailing `|`, `>` or `<` draws a
    warning); it parses with no warning into a chain
    (``rules.chain_elements``) that starts at ``start``; and only blanks,
    line ends and backslash-newlines follow it (a leading heredoc's body
    ends in a line end, and its line may continue before a leading
    ``&&``). The lexer starts afresh at ``start`` in both parses, so a
    ``#`` reads the same way in both, in a word or as a comment; a comment
    that would run on past ``end`` leaves text after the last element,
    which the blank check refuses.

    That reads only the window's text and whether it ends the payload, so
    ``parsed`` keeps by those two the source start and the elements (or
    None) of a window in one source segment; a later such window gets
    copies of the elements, moved."""
    if end <= start or (end < payload_end and src.clean[end - 1] == "\\"):
        return None
    where = src.span(start, end)
    one_segment = where.end - where.start == end - start
    key = (src.clean[start:end], end == payload_end) if one_segment else None
    if key in parsed:
        hit = parsed[key]
        return hit and tuple([e.moved(where.start - hit[0], where) for e in hit[1]])
    warnings: list[str] = []
    script = parse_shell(src.clean, span_builder=src.span, warnings=warnings, region=(start, end))
    elements = chain_elements(script)
    if (
        warnings
        or elements is None
        or src.to_payload(elements[0].span.start) != start
        or src.clean[src.to_payload(elements[-1].span.end) : end]
        .replace("\\\n", "")
        .strip(" \t\r\n")
    ):
        elements = None
    else:
        enrich_node(script)
    if key is not None:
        parsed[key] = elements and (where.start, elements)
    return elements


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
    garbled: set[int],
) -> dict[tuple, str]:
    """The keys of the applied repairs that ``read_as``, the tree each RUN
    reads as in ``report.fixed``, does not confirm, each with its cause
    (``RepairOutcome.detail``): all of them if the ``instructions``
    changed; those of a RUN in ``garbled``, where an inserted word changed
    how an original ``words`` reads; and those whose smell is in the
    ``residual``."""
    keys = {_smell_key(ordinals, o.diagnostic) for o in report.repairs if o.status == "applied"}
    if read_as is None:
        return dict.fromkeys(keys, "instructions")
    read_ordinals = _run_ordinals(read_as)
    remaining = {_smell_key(read_ordinals, d) for d in report.residual}
    return {
        key: "words" if key[0] in garbled else "residual"
        for key in keys
        if key[0] in garbled or key in remaining
    }


def _words_kept(old: list[UnifiedNode], read: list[UnifiedNode], shift: _Shift) -> bool:
    """Each word of the subtrees ``old`` is read from the subtrees ``read``
    where the insertions moved it, with the same text."""
    word = NodeKind.SC_WORD
    at = {n.span.start: word_text(n) for root in read for n in root.walk() if n.kind is word}
    return all(
        at.get(n.span.start + shift(n.span.start, through=True)) == word_text(n)
        for root in old
        for n in root.walk()
        if n.kind is word
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
