"""The registry of the 14 size-impacting smells, one ``Rule`` row each.

A row says which nodes its rule is asked about (anchor labels, see
``query.RunIndex``), what their statement must carry to smell, what
clears the smell (a flag there, a later clean command or `rm -r` of a
cache path, or an operand check of the rule's own) and its fix.
``Rule.smells`` is the one reader of a row, and detection asks only the
rules whose anchor labels a RUN holds. A rule reads the enclosing RUN
instruction only (``detect_run``): container layering means a cleanup in
a later RUN cannot shrink the earlier layer, so cross-RUN cleanup does
not remove the size smell. The one fact read beyond a RUN, a gemrc
written anywhere in the file, clears gemUpdateNoDocument in
``clear_configured`` alone.

Repairs are text insertions, recorded on the ``DockerfileAst`` (the tree is
not changed) and spliced into the source by ``printer.print_minimal``.
They are one of four shapes:

* flag addition - the canonical long flag inserted right after the
  subcommand word (`pip install --no-cache-dir ...`);
* trailing cleanup - a new final element of the RUN's AND-chain
  (`... && rm -rf /var/lib/apt/lists/*`);
* adjacent cleanup - inserted immediately after the consuming command and
  before any later `cd`, so relative paths still resolve (`tar -zxf x.tgz
  && rm x.tgz && cd ...`);
* config insertion - a statement inserted before the anchor
  (`echo 'gem: --no-document' >> /etc/gemrc && gem update --system`).

Element insertions are applied only when the RUN's top level is a single
command or a pure AND-chain; a top-level `;`, `||`, compound statement, or
unparsed region makes the repair not-fixable (appending after those would
change failure semantics). ``chain_elements`` is the one reader of that
shape, for detection, repair and ``runner``'s re-read alike. Nor is a
trailing cleanup appended to a chain with a top-level `exit`, or `exec` of
a command: it would never run. For the same reason no check reads the
elements after it, so a smell or a cleanup there does not count. Flag
additions are always safe and are applied regardless of the chain shape.

A repair is checked where its effect is seen: ``runner.fix_text`` prints
the repaired file, detects again in each RUN that holds an insertion
(``detect_run``), and rolls back each repair whose smell is still there
or whose inserted text changed how the RUN's original words read.
"""

from __future__ import annotations

import json
import re
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum, unique
from typing import Callable, Iterator

from . import shell
from .dockerfile import DockerfileAst
from .enrich import command_words
from .model import NodeKind, SourceSpan, UnifiedNode
from .query import Anchor, RunIndex, checked_label, path_covers


@unique
class RuleId(str, Enum):
    pipUseNoCacheDir = "pipUseNoCacheDir"
    npmCacheCleanUseForce = "npmCacheCleanUseForce"
    mkdirUsrSrcThenRemove = "mkdirUsrSrcThenRemove"
    rmRecursiveAfterMktempD = "rmRecursiveAfterMktempD"
    tarSomethingRmTheSomething = "tarSomethingRmTheSomething"
    apkAddUseNoCache = "apkAddUseNoCache"
    aptGetInstallUseNoRec = "aptGetInstallUseNoRec"
    aptGetInstallThenRemoveAptLists = "aptGetInstallThenRemoveAptLists"
    gpgVerifyAscRmAsc = "gpgVerifyAscRmAsc"
    npmCacheCleanAfterInstall = "npmCacheCleanAfterInstall"
    gemUpdateSystemRmRootGem = "gemUpdateSystemRmRootGem"
    gemUpdateNoDocument = "gemUpdateNoDocument"
    yumInstallRmVarCacheYum = "yumInstallRmVarCacheYum"
    yarnCacheCleanAfterInstall = "yarnCacheCleanAfterInstall"


#: Alternate spellings seen in the wild, accepted by rule filters.
RULE_ALIASES: dict[str, RuleId] = {
    "aptGetInstallRmAptLists": RuleId.aptGetInstallThenRemoveAptLists,
    "rmRecurisveAfterMktempD": RuleId.rmRecursiveAfterMktempD,
    "pipUseCacheDir": RuleId.pipUseNoCacheDir,
}


def parse_rule_name(name: str) -> RuleId:
    try:
        return RuleId(name)
    except ValueError:
        if name in RULE_ALIASES:
            return RULE_ALIASES[name]
        raise ValueError(f"unknown rule: {name}") from None


@dataclass
class SmellDiagnostic:
    rule: RuleId
    file: str
    span: SourceSpan
    anchor: Anchor | None  # None, as ``run``, in a ``runner.process_file`` report
    message: str
    fixable: bool
    run: UnifiedNode | None = field(repr=False, default=None)  # enclosing DOCKER-RUN
    extras: dict = field(default_factory=dict, repr=False)

    @property
    def line(self) -> int:
        return self.span.start_line

    @property
    def column(self) -> int:
        return self.span.start_col


@dataclass
class RepairOutcome:
    status: str  # applied | rolled-back | not-fixable
    diagnostic: SmellDiagnostic
    edits: list[tuple[int, str]] = field(default_factory=list)  # (offset, text) it inserted
    reason: str | None = None
    detail: str | None = None  # why a rolled-back repair failed: instructions | words | residual


# ---------------------------------------------------------------------------
# Inserted operands
# ---------------------------------------------------------------------------


# characters that make the shell read a word as more than its text
_METACHAR_RE = re.compile(r"[\s&|;()<>*?$`'\"\\#~]")


def _operand_source(word: UnifiedNode, text: str) -> str:
    """An inserted operand that expands to ``text``, the logical text of
    ``word``: ``text`` itself, or the word's source if it needs quoting."""
    return word.literal if _METACHAR_RE.search(text) else text


# ---------------------------------------------------------------------------
# Chain shape analysis (decision: element insertion safety)
# ---------------------------------------------------------------------------

def run_script(run: UnifiedNode) -> UnifiedNode | None:
    for child in run.children:
        if child.kind is NodeKind.SC_SCRIPT:
            return child
    return None


def _element_ok(node: UnifiedNode) -> bool:
    if node.kind is NodeKind.SC_SIMPLE_COMMAND:
        return True
    if node.kind is NodeKind.SC_PIPELINE:
        return all(c.kind is NodeKind.SC_SIMPLE_COMMAND for c in node.children)
    return False


def chain_elements(script: UnifiedNode | None) -> tuple[UnifiedNode, ...] | None:
    """The top-level elements of ``script``, a RUN's SC-SCRIPT (None for an
    exec array), when it is one simple command or pipeline, or a pure
    AND-chain of them: the shape in which an inserted element is safe.
    None otherwise. Every inserted statement is a simple command, so
    repairs keep the shape."""
    if script is None or len(script.children) != 1:
        return None  # exec-array form; empty, or a `;` sequence at top level
    top = script.children[0]
    elements = top.children if top.kind is NodeKind.SC_AND else (top,)
    return elements if all(_element_ok(e) for e in elements) else None


def _ends_shell(elements: tuple[UnifiedNode, ...]) -> int | None:
    """The index of the first of a chain's ``elements`` that is `exit`, or
    `exec` of a command: the shell ends there, so nothing after it runs."""
    for k, element in enumerate(elements):
        words = command_words(element) if element.kind is NodeKind.SC_SIMPLE_COMMAND else []
        name = shell.word_text(words[0]) if words else None
        if name == "exit" or (name == "exec" and len(words) > 1):
            return k
    return None


def _not_fixable_reason(run: UnifiedNode) -> str:
    if run.prop("run_form") == "exec-array":
        return "exec-form array has no shell chain to extend"
    if chain_elements(run_script(run)) is not None:
        return "RUN chain has a top-level exit or exec, after which nothing runs"
    return "RUN top level is not a simple command or pure AND-chain"


# ---------------------------------------------------------------------------
# Rule definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """One row of ``RULES``: the nodes a rule is asked about, what their
    statement must carry to smell, what clears the smell, and its fix.
    ``smells`` is the one reader of the row."""

    id: RuleId
    description: str
    kind: str  # flag | append | adjacent | before
    anchors: tuple[str, ...]  # labels of the nodes the rule is asked about
    fix: str  # the flag to add, or the statement to insert with the extras formatted in
    needs: str | None = None  # a flag label the anchor's statement must carry
    flags: dict[str, str] = field(default_factory=dict)  # per anchor label, a flag that clears it
    cleaned_by: str | None = None  # a label whose later statement clears it
    removed: tuple[str, ...] = ()  # paths a later `rm -r` clears it by; `*` ends a glob
    # reads the operand the fix names: the fix's extras if the anchor smells, None if not
    operand: Callable[[RunIndex, Anchor], dict | None] | None = None

    def __post_init__(self) -> None:
        for label in (*self.anchors, *self.flags.values(), self.needs, self.cleaned_by):
            if label is not None:
                checked_label(label)

    def smells(self, index: RunIndex) -> Iterator[tuple[Anchor, dict]]:
        for label in self.anchors:
            flag = self.flags.get(label)
            for anchor in index.anchors(label):
                statement, position = anchor.statement, anchor.statement_position
                if (
                    (self.needs is not None and not index.labelled(statement, self.needs))
                    or (flag is not None and index.labelled(statement, flag))
                    # any later clean counts: if `npm cache clean` lacks --force,
                    # npmCacheCleanUseForce flags that command itself
                    or (self.cleaned_by is not None and index.later(self.cleaned_by, position))
                    or any(
                        index.removed_after(position, path, recursive=True, glob=path.endswith("*"))
                        for path in self.removed
                    )
                ):
                    continue
                extras = {} if self.operand is None else self.operand(index, anchor)
                if extras is not None:
                    yield anchor, extras


# -- rule 3: mkdirUsrSrcThenRemove ---------------------------------------------


def _mkdir_usr_src(index: RunIndex, anchor: Anchor) -> dict | None:
    path = shell.word_text(anchor.node)
    if shell.contains_variable(path):
        return None  # unresolvable path: suppressed (conservative)
    normalized = path.rstrip("/")
    if normalized != "/usr/src" and not normalized.startswith("/usr/src/"):
        return None
    if index.removed_after(anchor.statement_position, path, recursive=True):
        return None
    return {"path": _operand_source(anchor.node, normalized)}


# -- rule 4: rmRecursiveAfterMktempD -------------------------------------------


def _mktemp_d(index: RunIndex, anchor: Anchor) -> dict | None:
    var = index.captured(anchor.statement)
    if var is None:
        return None  # result not captured: nothing nameable to remove
    if index.removed_variable_after(anchor.statement_position, var):
        return None
    return {"var": var}


# -- rule 5: tarSomethingRmTheSomething ------------------------------------------

_TAR_ARCHIVE = checked_label("SC-TAR-ARCHIVE")


def _tar(index: RunIndex, anchor: Anchor) -> dict | None:
    archives = index.labelled(anchor.statement, _TAR_ARCHIVE)
    if not archives:
        return None
    word = archives[0]
    archive = word.prop("value")  # set when the option word holds it
    if archive is None:
        archive = shell.word_text(word)
    elif _METACHAR_RE.search(archive):
        return None  # its source is not the operand alone
    if archive in ("-", "/dev/stdin") or shell.contains_variable(archive):
        return None
    if index.removed_after(anchor.statement_position, archive, recursive=False):
        return None
    return {"archive": _operand_source(word, archive)}


# -- rule 9: gpgVerifyAscRmAsc ----------------------------------------------------


_GPG_FILE = checked_label("SC-GPG-FILE")


def _gpg_asc(index: RunIndex, anchor: Anchor) -> dict | None:
    for node in index.labelled(anchor.statement, _GPG_FILE):
        asc = shell.word_text(node)
        if asc.endswith(".asc") and not shell.contains_variable(asc):
            break
    else:
        return None
    if index.removed_after(anchor.statement_position, asc, recursive=False):
        return None
    return {"asc": _operand_source(node, asc)}


# -- rule 12: gemUpdateNoDocument, cleared by a gemrc anywhere in the file ---


def writes_gemrc_no_document(roots: list[UnifiedNode]) -> bool:
    """Whether a command in ``roots`` writes `gem: --no-document` to a
    gemrc."""
    for root in roots:
        for node in root.walk():
            if node.kind is not NodeKind.SC_SIMPLE_COMMAND:
                continue
            if not _redirects_to_gemrc(node):
                continue
            joined = " ".join(shell.word_text(w) for w in command_words(node))
            if "gem:" in joined and "--no-document" in joined:
                return True
    return False


def _redirects_to_gemrc(cmd: UnifiedNode) -> bool:
    for child in cmd.children:
        if child.kind is not NodeKind.SC_REDIRECTION:
            continue
        if child.prop("op") not in (">", ">>"):
            continue
        if child.children and shell.word_text(child.children[0]).endswith("gemrc"):
            return True
    return False


_APT_INSTALLS = ("SC-APT-GET-INSTALL", "SC-APT-INSTALL")

RULES: list[Rule] = [
    Rule(
        RuleId.pipUseNoCacheDir,
        "Clean cache after pip install.",
        "flag",
        ("SC-PIP-INSTALL",),
        "--no-cache-dir",
        flags={"SC-PIP-INSTALL": "SC-PIP-F-NO-CACHE-DIR"},
    ),
    Rule(
        RuleId.npmCacheCleanUseForce,
        "Clean cache after npm install.",
        "flag",
        ("SC-NPM-CACHE-CLEAN",),
        "--force",
        flags={"SC-NPM-CACHE-CLEAN": "SC-NPM-F-FORCE"},
    ),
    Rule(
        RuleId.mkdirUsrSrcThenRemove,
        "Remove /usr/src/* after usage.",
        "append",
        ("SC-MKDIR-PATH",),
        "rm -rf {path}",
        operand=_mkdir_usr_src,
    ),
    Rule(
        RuleId.rmRecursiveAfterMktempD,
        "Remove temporary folders.",
        "append",
        ("SC-MKTEMP",),
        'rm -rf "${var}"',
        needs="SC-MKTEMP-F-D",
        operand=_mktemp_d,
    ),
    Rule(
        RuleId.tarSomethingRmTheSomething,
        "Remove tar files after decompression.",
        "adjacent",
        ("SC-TAR-EXTRACT",),
        "rm {archive}",
        operand=_tar,
    ),
    Rule(
        RuleId.apkAddUseNoCache,
        "Use --no-cache flag with apk add.",
        "flag",
        ("SC-APK-ADD",),
        "--no-cache",
        flags={"SC-APK-ADD": "SC-APK-F-NO-CACHE"},
    ),
    Rule(
        RuleId.aptGetInstallUseNoRec,
        "Use --no-install-recommends flag in apt-get install.",
        "flag",
        _APT_INSTALLS,
        "--no-install-recommends",
        flags={
            "SC-APT-GET-INSTALL": "SC-APT-GET-F-NO-INSTALL-RECOMMENDS",
            "SC-APT-INSTALL": "SC-APT-F-NO-INSTALL-RECOMMENDS",
        },
    ),
    Rule(
        RuleId.aptGetInstallThenRemoveAptLists,
        "Remove /var/lib/apt/lists/* after apt-get install.",
        "append",
        _APT_INSTALLS,
        "rm -rf /var/lib/apt/lists/*",
        removed=("/var/lib/apt/lists/*",),
    ),
    Rule(
        RuleId.gpgVerifyAscRmAsc,
        "Remove .asc file after usage.",
        "adjacent",
        ("SC-GPG",),
        "rm {asc}",
        needs="SC-GPG-F-VERIFY",
        operand=_gpg_asc,
    ),
    Rule(
        RuleId.npmCacheCleanAfterInstall,
        "Force to clean cache after npm install.",
        "append",
        ("SC-NPM-INSTALL",),
        "npm cache clean --force",
        cleaned_by="SC-NPM-CACHE-CLEAN",
    ),
    Rule(
        RuleId.gemUpdateSystemRmRootGem,
        "Clean cache after gem update --system.",
        "append",
        ("SC-GEM-UPDATE",),
        "rm -rf /root/.gem",
        needs="SC-GEM-F-SYSTEM",
        removed=("/root/.gem",),
    ),
    Rule(
        RuleId.gemUpdateNoDocument,
        "Add --no-document flag to the .gemrc config file.",
        "before",
        ("SC-GEM-UPDATE",),
        "echo 'gem: --no-document' >> /etc/gemrc",
        needs="SC-GEM-F-SYSTEM",
        flags={"SC-GEM-UPDATE": "SC-GEM-F-NO-DOCUMENT"},  # or a gemrc: ``clear_configured``
    ),
    Rule(
        RuleId.yumInstallRmVarCacheYum,
        "Clean cache after yum install.",
        "append",
        ("SC-YUM-INSTALL",),
        "rm -rf /var/cache/yum",
        removed=("/var/cache/yum", "/var/cache/dnf"),  # dnf spells the same cache
    ),
    Rule(
        RuleId.yarnCacheCleanAfterInstall,
        "Clean cache after yarn install.",
        "append",
        ("SC-YARN-INSTALL",),
        "yarn cache clean",
        cleaned_by="SC-YARN-CACHE-CLEAN",
    ),
]

_RULE_BY_ID = {rule.id: rule for rule in RULES}
_RULE_INDEX = {rule.id: i for i, rule in enumerate(RULES)}


def rule_for(rule_id: RuleId) -> Rule:
    return _RULE_BY_ID[rule_id]


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------


def detect(
    ast: DockerfileAst, rules: set[RuleId] | list[RuleId] | None = None
) -> list[SmellDiagnostic]:
    """All smell diagnostics for the file, in document order: ``detect_run``
    of each RUN, less those that ``clear_configured`` clears."""
    runs = ast.runs()
    return clear_configured([d for run in runs for d in detect_run(ast.path, run, rules)], runs)


def detect_run(
    path: str, run: UnifiedNode, rules: set[RuleId] | list[RuleId] | None
) -> list[SmellDiagnostic]:
    """The diagnostics of one RUN, in document order, read from ``run``
    alone; and of a chain, only from the elements up to one that ends the
    shell. Only the rules with an anchor label that the RUN holds are
    asked, in ``RULES`` order."""
    elements = chain_elements(run_script(run))
    ends = None if elements is None else _ends_shell(elements)
    stop = sys.maxsize if ends is None else elements[ends].span.end
    index = RunIndex(run, stop)
    insertable = elements is not None
    appendable = insertable and ends is None
    diagnostics = [
        SmellDiagnostic(
            rule=rule.id,
            file=path,
            span=anchor.statement.span,
            anchor=anchor,
            message=rule.description,
            fixable=rule.kind == "flag" or (appendable if rule.kind == "append" else insertable),
            run=run,
            extras=extras,
        )
        for rule in RULES
        if not index.labels.isdisjoint(rule.anchors) and (rules is None or rule.id in rules)
        for anchor, extras in rule.smells(index)
    ]
    return sorted(
        diagnostics,
        key=lambda d: (d.anchor.statement_position, d.anchor.position, _RULE_INDEX[d.rule]),
    )


def clear_configured(
    diagnostics: list[SmellDiagnostic], runs: list[UnifiedNode]
) -> list[SmellDiagnostic]:
    """``diagnostics`` without gemUpdateNoDocument if a RUN of ``runs``
    writes the gemrc; the trees are walked only when such a one is there."""
    gem = RuleId.gemUpdateNoDocument
    if any(d.rule is gem for d in diagnostics) and writes_gemrc_no_document(runs):
        return [d for d in diagnostics if d.rule is not gem]
    return diagnostics


# ---------------------------------------------------------------------------
# Repair
# ---------------------------------------------------------------------------


# Insertions at one offset are printed by rank, then order: a flag first
# (it ends its element's text), then the cleanups inserted right after that
# element, the latest first, then appended and config statements, the
# earliest first. That is where each stands among the chain's elements.
_FLAG, _ADJACENT, _QUEUED = 0, 1, 2


@dataclass
class Chain:
    """The chain of a fixable RUN, as the repairs extending it see it."""

    elements: tuple[UnifiedNode, ...]  # ``chain_elements`` of the RUN's script
    joiner: str  # the text that joins a new element to an element
    end: int  # the offset after the last element
    appended: set[str] = field(default_factory=set)  # the statements appended at ``end``
    removed: list[tuple[str, bool]] = field(default_factory=list)  # their `rm -rf` operands


def _chain(ast: DockerfileAst, run: UnifiedNode) -> Chain:
    """``run``'s Chain, made on the first repair that extends it."""
    chain = ast.chains.get(id(run))
    if chain is None:
        elements = chain_elements(run_script(run))
        joiner = _chain_joiner(elements, run, ast.source, ast.escape_char)
        chain = ast.chains[id(run)] = Chain(elements, joiner, elements[-1].span.end)
    return chain


def _chain_joiner(
    elements: tuple[UnifiedNode, ...], run: UnifiedNode, src: str, escape: str
) -> str:
    """Inline `` && `` or, when at least half of the chain's ``elements``
    start on a continued line, a continuation in the chain's dominant style
    with the last element's line indentation and line end. Where the
    payload keeps the line ends before the last element, as a leading
    heredoc's script does, the shell reads them, so a line continues with
    `\\` whatever the ``escape`` directive."""
    if run.prop("run_form") == "exec-shell":
        return " && "  # a raw newline would corrupt the JSON string
    gaps = [src[prev.span.end : cur.span.start] for prev, cur in zip(elements, elements[1:])]
    continued = [g for g in gaps if "\n" in g]
    if not continued or 2 * len(continued) < len(gaps):
        return " && "
    script = run.prop("_script_src")
    if "\n" in script.clean[: script.to_payload(elements[-1].span.start)]:
        escape = "\\"
    leading = sum(1 for g in continued if "&&" in g.rsplit("\n", 1)[1])
    indent = _line_indent(src, elements[-1].span.start)
    eol = src.find("\n", elements[-1].span.end)
    eol = "\r\n" if eol > 0 and src[eol - 1] == "\r" else "\n"
    if 2 * leading >= len(continued):
        return " " + escape + eol + indent + "&& "
    return " && " + escape + eol + indent


def _line_indent(src: str, offset: int) -> str:
    line_start = src.rfind("\n", 0, offset) + 1
    m = re.match(r"[ \t]*", src[line_start:offset])
    return m.group(0) if m else ""


def _element(chain: Chain, statement: UnifiedNode) -> tuple[int, UnifiedNode]:
    """The index and the element of ``chain`` that holds ``statement``: the
    last one that starts at or before it, as sibling spans are ordered and
    disjoint."""
    k = bisect_right(chain.elements, statement.span.start, key=lambda e: e.span.start) - 1
    return k, chain.elements[k]


_RM_RF = "rm -rf "


def _appended_already(chain: Chain, statement: str) -> bool:
    """Whether the chain has appended ``statement``, or an `rm -rf` whose
    operand covers the one ``statement`` removes (``query.path_covers``);
    else record it as appended."""
    target = shell.read_word(statement[len(_RM_RF):]) if statement.startswith(_RM_RF) else None
    if statement in chain.appended or (
        target is not None
        and any(path_covers(path, target[0], glob, target[1]) for path, glob in chain.removed)
    ):
        return True
    chain.appended.add(statement)
    if target is not None:
        chain.removed.append(target)
    return False


def _flag_text(flag: str, anchor: Anchor) -> str:
    """``flag`` as inserted after the anchor word: an element of an exec
    array, or a word one space away (and one space from a next word or
    redirection that touched the anchor)."""
    cmd, word = anchor.statement, anchor.node
    if cmd.prop("exec_array"):
        return ", " + json.dumps(flag)
    touching = any(child.span.start == word.span.end for child in cmd.children)
    return " " + flag + " " if touching else " " + flag


def repair(ast: DockerfileAst, diagnostic: SmellDiagnostic) -> RepairOutcome:
    """Record the rule's insertion in ``ast.insertions``; the tree is not
    changed, so ``detect`` sees the original file until it is printed and
    parsed again.

    A statement becomes a new element of the RUN's top-level AND-chain, or
    of a new chain of two with the RUN's single statement. Whether the RUN
    has that shape was decided once, by ``detect`` (``diagnostic.fixable``).
    A cleanup that an earlier repair already appended to the RUN, or whose
    path an `rm -rf` appended there already removes, is not appended."""
    rule = rule_for(diagnostic.rule)
    anchor = diagnostic.anchor
    if rule.kind == "flag":
        text = _flag_text(rule.fix, anchor)
        return _insert(ast, diagnostic, anchor.node.span.end, _FLAG, text)

    if not diagnostic.fixable:
        return RepairOutcome(
            "not-fixable", diagnostic, reason=_not_fixable_reason(diagnostic.run)
        )
    chain = _chain(ast, diagnostic.run)
    statement = rule.fix.format(**diagnostic.extras)
    if rule.kind == "before":
        index, element = _element(chain, anchor.statement)
        if index == 0:
            text = statement + chain.joiner
            return _insert(ast, diagnostic, element.span.start, _QUEUED, text)
        offset = chain.elements[index - 1].span.end
        return _insert(ast, diagnostic, offset, _QUEUED, chain.joiner + statement)
    if rule.kind == "adjacent":
        offset = _element(chain, anchor.statement)[1].span.end
        return _insert(ast, diagnostic, offset, _ADJACENT, chain.joiner + statement)
    if _appended_already(chain, statement):
        return RepairOutcome("applied", diagnostic)  # an earlier repair's cleanup
    return _insert(ast, diagnostic, chain.end, _QUEUED, chain.joiner + statement)


def _insert(
    ast: DockerfileAst, diagnostic: SmellDiagnostic, offset: int, rank: int, text: str
) -> RepairOutcome:
    if diagnostic.run.prop("run_form") == "exec-shell":
        text = json.dumps(text, ensure_ascii=False)[1:-1]  # it goes into a JSON string
    order = len(ast.insertions)
    ast.insertions.append((offset, rank, -order if rank == _ADJACENT else order, text))
    return RepairOutcome("applied", diagnostic, [(offset, text)])


def verify_or_rollback(
    ast: DockerfileAst, diagnostic: SmellDiagnostic, outcome: RepairOutcome
) -> RepairOutcome:
    """``outcome`` unchanged: ``runner.fix_text`` verifies every repair on
    the re-read of the printed file, and rolls back by rebuilding without
    the repairs whose smell is still detected there."""
    return outcome
