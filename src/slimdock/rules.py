"""The registry of the 14 size-impacting smells.

Each rule pairs a check, asked about every node of a RUN that carries one
of its anchor labels (see ``query.RunIndex``), with a repair
transformation. Detection scope for "later cleanup" checks is the
enclosing RUN instruction only: container layering means a cleanup in a
later RUN cannot shrink the earlier layer, so cross-RUN cleanup does not
remove the size smell.

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
change failure semantics). Flag additions are always safe and are applied
regardless of the chain shape.

A repair is checked where its effect is seen: ``runner.fix_text`` prints
the repaired file, detects again in each RUN that holds an insertion
(``detect_run``), and rolls back each repair whose smell is still there
or whose inserted text changed how the RUN's original words read.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum, unique
from typing import Callable, Iterator

from . import shell
from .dockerfile import DockerfileAst
from .enrich import command_words
from .model import NodeKind, SourceSpan, UnifiedNode
from .query import Anchor, RunIndex, checked_label, path_covers, statement_has


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


def chain_shape(run: UnifiedNode) -> bool:
    """Whether element insertion is safe: the RUN's script is one statement,
    or a pure AND-chain of simple commands/pipelines. Every inserted
    statement is a simple command, so repairs keep the shape."""
    script = run_script(run)
    if script is None or len(script.children) != 1:
        return False  # exec-array form; empty, or a `;` sequence at top level
    top = script.children[0]
    return _element_ok(top) or (
        top.kind is NodeKind.SC_AND and all(_element_ok(c) for c in top.children)
    )


def _not_fixable_reason(run: UnifiedNode) -> str:
    if run.prop("run_form") == "exec-array":
        return "exec-form array has no shell chain to extend"
    return "RUN top level is not a simple command or pure AND-chain"


# ---------------------------------------------------------------------------
# Rule definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scope:
    """What a rule's check reads beyond the anchor's own statement: the
    statements indexed in ``index``, and whether the file configures gem."""

    index: RunIndex
    gemrc_configured: Callable[[], bool]


# The check answers whether one anchor smells: the repair's extras if so,
# None if not.
Check = Callable[[Scope, Anchor], "dict | None"]


@dataclass(frozen=True)
class Rule:
    id: RuleId
    description: str
    kind: str  # flag | append | adjacent | before
    anchors: tuple[str, ...]  # labels of the nodes the check is asked about
    check: Check
    repair_text: Callable[[dict], str] | None = None  # element insertions
    flag_text: str | None = None  # flag additions

    def __post_init__(self) -> None:
        for label in self.anchors:
            checked_label(label)

    def smells(self, scope: Scope) -> Iterator[tuple[Anchor, dict]]:
        for label in self.anchors:
            for anchor in scope.index.anchors(label):
                extras = self.check(scope, anchor)
                if extras is not None:
                    yield anchor, extras


def _flag_rule(
    rule_id: RuleId, description: str, flag_text: str, flags: dict[str, str]
) -> Rule:
    """An anchor smells while its statement lacks the flag paired with the
    anchor's label in ``flags``."""
    for flag in flags.values():
        checked_label(flag)

    def check(scope: Scope, anchor: Anchor) -> dict | None:
        return None if statement_has(anchor.statement, flags[anchor.label]) else {}

    return Rule(rule_id, description, "flag", tuple(flags), check, flag_text=flag_text)


# -- rule 3: mkdirUsrSrcThenRemove ---------------------------------------------


def _mkdir_usr_src(scope: Scope, anchor: Anchor) -> dict | None:
    path = shell.word_text(anchor.node)
    if shell.contains_variable(path):
        return None  # unresolvable path: suppressed (conservative)
    normalized = path.rstrip("/")
    if normalized != "/usr/src" and not normalized.startswith("/usr/src/"):
        return None
    if scope.index.removed_after(anchor.statement_position, path, recursive=True):
        return None
    return {"path": _operand_source(anchor.node, normalized)}


# -- rule 4: rmRecursiveAfterMktempD -------------------------------------------


_MKTEMP_D = checked_label("SC-MKTEMP-F-D")


def _mktemp_d(scope: Scope, anchor: Anchor) -> dict | None:
    if not statement_has(anchor.statement, _MKTEMP_D):
        return None
    var = scope.index.captured(anchor.statement)
    if var is None:
        return None  # result not captured: nothing nameable to remove
    if scope.index.removed_variable_after(anchor.statement_position, var):
        return None
    return {"var": var}


# -- rule 5: tarSomethingRmTheSomething ------------------------------------------

_TAR_ARCHIVE = checked_label("SC-TAR-ARCHIVE")


def _archive_of(statement: UnifiedNode) -> UnifiedNode | None:
    for node in statement.walk():
        if node.kind is NodeKind.SC_WORD and node.has_annotation(_TAR_ARCHIVE):
            return node
    return None


def _tar(scope: Scope, anchor: Anchor) -> dict | None:
    word = _archive_of(anchor.statement)
    if word is None:
        return None
    archive = word.prop("value")  # set when the option word holds it
    if archive is None:
        archive = shell.word_text(word)
    elif _METACHAR_RE.search(archive):
        return None  # its source is not the operand alone
    if archive in ("-", "/dev/stdin") or shell.contains_variable(archive):
        return None
    if scope.index.removed_after(anchor.statement_position, archive, recursive=False):
        return None
    return {"archive": _operand_source(word, archive)}


# -- rule 8: aptGetInstallThenRemoveAptLists --------------------------------------

_APT_LISTS = "/var/lib/apt/lists/*"


def _apt_lists(scope: Scope, anchor: Anchor) -> dict | None:
    if scope.index.removed_after(
        anchor.statement_position, _APT_LISTS, recursive=True, glob=True
    ):
        return None
    return {}


# -- rule 9: gpgVerifyAscRmAsc ----------------------------------------------------


_GPG_VERIFY = checked_label("SC-GPG-F-VERIFY")
_GPG_FILE = checked_label("SC-GPG-FILE")


def _gpg_asc(scope: Scope, anchor: Anchor) -> dict | None:
    if not statement_has(anchor.statement, _GPG_VERIFY):
        return None
    for node in anchor.statement.walk():
        if node.kind is NodeKind.SC_WORD and node.has_annotation(_GPG_FILE):
            asc = shell.word_text(node)
            if asc.endswith(".asc") and not shell.contains_variable(asc):
                break
    else:
        return None
    if scope.index.removed_after(anchor.statement_position, asc, recursive=False):
        return None
    return {"asc": _operand_source(node, asc)}


# -- rules 10/14: a cache clean after the install ------------------------------


def _cleaned_by(label: str) -> Check:
    checked_label(label)

    def check(scope: Scope, anchor: Anchor) -> dict | None:
        # any later clean counts: if `npm cache clean` lacks --force,
        # npmCacheCleanUseForce flags that command itself
        return None if scope.index.later(label, anchor.statement_position) else {}

    return check


# -- rules 11/12: gem update --system ------------------------------------------------

_ROOT_GEM = "/root/.gem"
_GEM_SYSTEM = checked_label("SC-GEM-F-SYSTEM")
_GEM_NO_DOCUMENT = checked_label("SC-GEM-F-NO-DOCUMENT")


def _gem_rm_root(scope: Scope, anchor: Anchor) -> dict | None:
    if not statement_has(anchor.statement, _GEM_SYSTEM):
        return None
    if scope.index.removed_after(anchor.statement_position, _ROOT_GEM, recursive=True):
        return None
    return {}


def writes_gemrc_no_document(roots: list[UnifiedNode]) -> bool:
    """Whether a command in ``roots`` writes `gem: --no-document` to a
    gemrc: the one fact a check reads beyond its own RUN."""
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


def _gem_no_document(scope: Scope, anchor: Anchor) -> dict | None:
    if not statement_has(anchor.statement, _GEM_SYSTEM):
        return None
    if statement_has(anchor.statement, _GEM_NO_DOCUMENT):
        return None
    if scope.gemrc_configured():
        return None
    return {}


# -- rule 13: yumInstallRmVarCacheYum ---------------------------------------------


def _yum_install(scope: Scope, anchor: Anchor) -> dict | None:
    for cache in ("/var/cache/yum", "/var/cache/dnf"):  # dnf spells the same cache
        if scope.index.removed_after(anchor.statement_position, cache, recursive=True):
            return None
    return {}


_APT_INSTALLS = ("SC-APT-GET-INSTALL", "SC-APT-INSTALL")

RULES: list[Rule] = [
    _flag_rule(
        RuleId.pipUseNoCacheDir,
        "Clean cache after pip install.",
        "--no-cache-dir",
        {"SC-PIP-INSTALL": "SC-PIP-F-NO-CACHE-DIR"},
    ),
    _flag_rule(
        RuleId.npmCacheCleanUseForce,
        "Clean cache after npm install.",
        "--force",
        {"SC-NPM-CACHE-CLEAN": "SC-NPM-F-FORCE"},
    ),
    Rule(
        RuleId.mkdirUsrSrcThenRemove,
        "Remove /usr/src/* after usage.",
        "append",
        ("SC-MKDIR-PATH",),
        _mkdir_usr_src,
        repair_text=lambda extras: f"rm -rf {extras['path']}",
    ),
    Rule(
        RuleId.rmRecursiveAfterMktempD,
        "Remove temporary folders.",
        "append",
        ("SC-MKTEMP",),
        _mktemp_d,
        repair_text=lambda extras: 'rm -rf "$' + extras["var"] + '"',
    ),
    Rule(
        RuleId.tarSomethingRmTheSomething,
        "Remove tar files after decompression.",
        "adjacent",
        ("SC-TAR-EXTRACT",),
        _tar,
        repair_text=lambda extras: f"rm {extras['archive']}",
    ),
    _flag_rule(
        RuleId.apkAddUseNoCache,
        "Use --no-cache flag with apk add.",
        "--no-cache",
        {"SC-APK-ADD": "SC-APK-F-NO-CACHE"},
    ),
    _flag_rule(
        RuleId.aptGetInstallUseNoRec,
        "Use --no-install-recommends flag in apt-get install.",
        "--no-install-recommends",
        {
            "SC-APT-GET-INSTALL": "SC-APT-GET-F-NO-INSTALL-RECOMMENDS",
            "SC-APT-INSTALL": "SC-APT-F-NO-INSTALL-RECOMMENDS",
        },
    ),
    Rule(
        RuleId.aptGetInstallThenRemoveAptLists,
        "Remove /var/lib/apt/lists/* after apt-get install.",
        "append",
        _APT_INSTALLS,
        _apt_lists,
        repair_text=lambda extras: f"rm -rf {_APT_LISTS}",
    ),
    Rule(
        RuleId.gpgVerifyAscRmAsc,
        "Remove .asc file after usage.",
        "adjacent",
        ("SC-GPG",),
        _gpg_asc,
        repair_text=lambda extras: f"rm {extras['asc']}",
    ),
    Rule(
        RuleId.npmCacheCleanAfterInstall,
        "Force to clean cache after npm install.",
        "append",
        ("SC-NPM-INSTALL",),
        _cleaned_by("SC-NPM-CACHE-CLEAN"),
        repair_text=lambda extras: "npm cache clean --force",
    ),
    Rule(
        RuleId.gemUpdateSystemRmRootGem,
        "Clean cache after gem update --system.",
        "append",
        ("SC-GEM-UPDATE",),
        _gem_rm_root,
        repair_text=lambda extras: f"rm -rf {_ROOT_GEM}",
    ),
    Rule(
        RuleId.gemUpdateNoDocument,
        "Add --no-document flag to the .gemrc config file.",
        "before",
        ("SC-GEM-UPDATE",),
        _gem_no_document,
        repair_text=lambda extras: "echo 'gem: --no-document' >> /etc/gemrc",
    ),
    Rule(
        RuleId.yumInstallRmVarCacheYum,
        "Clean cache after yum install.",
        "append",
        ("SC-YUM-INSTALL",),
        _yum_install,
        repair_text=lambda extras: "rm -rf /var/cache/yum",
    ),
    Rule(
        RuleId.yarnCacheCleanAfterInstall,
        "Clean cache after yarn install.",
        "append",
        ("SC-YARN-INSTALL",),
        _cleaned_by("SC-YARN-CACHE-CLEAN"),
        repair_text=lambda extras: "yarn cache clean",
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
    of each RUN. The gemrc fact is computed into ``ast.gemrc`` when asked."""
    runs = ast.runs()

    def gemrc_configured() -> bool:
        if ast.gemrc is None:
            ast.gemrc = writes_gemrc_no_document(runs)
        return ast.gemrc

    return [d for run in runs for d in detect_run(ast.path, run, rules, gemrc_configured)]


def detect_run(
    path: str, run: UnifiedNode, rules: set[RuleId] | list[RuleId] | None,
    gemrc_configured: Callable[[], bool],
) -> list[SmellDiagnostic]:
    """The diagnostics of one RUN, in document order. Each check reads only
    ``run``, but for gemUpdateNoDocument, which asks ``gemrc_configured()``."""
    scope = Scope(RunIndex(run), gemrc_configured)
    insertable = chain_shape(run)
    diagnostics = [
        SmellDiagnostic(
            rule=rule.id,
            file=path,
            span=anchor.statement.span,
            anchor=anchor,
            message=rule.description,
            fixable=rule.kind == "flag" or insertable,
            run=run,
            extras=extras,
        )
        for rule in RULES
        if rules is None or rule.id in rules
        for anchor, extras in rule.smells(scope)
    ]
    return sorted(diagnostics, key=detect_order)


def detect_order(diagnostic: SmellDiagnostic) -> tuple[int, int, int]:
    """Where ``detect_run`` puts ``diagnostic`` among those of its RUN."""
    anchor = diagnostic.anchor
    return anchor.statement_position, anchor.position, _RULE_INDEX[diagnostic.rule]


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
    """The top statement of a fixable RUN, as the repairs extending it see it."""

    top: UnifiedNode  # an AND-chain, or a single statement: a chain of one
    joiner: str  # the text that joins a new element to an element
    end: int  # the offset after the last element
    appended: set[str] = field(default_factory=set)  # the statements appended at ``end``
    removed: list[tuple[str, bool]] = field(default_factory=list)  # their `rm -rf` operands


def _chain(ast: DockerfileAst, run: UnifiedNode) -> Chain:
    """``run``'s Chain, made on the first repair that extends it."""
    chain = ast.chains.get(id(run))
    if chain is None:
        top = run_script(run).children[0]
        if top.kind is NodeKind.SC_AND:
            joiner = _chain_joiner(top, run, ast.source, ast.escape_char)
            chain = Chain(top, joiner, top.children[-1].span.end)
        else:
            chain = Chain(top, " && ", top.span.end)
        ast.chains[id(run)] = chain
    return chain


def _chain_joiner(chain: UnifiedNode, run: UnifiedNode, src: str, escape: str) -> str:
    """Inline `` && `` or, when at least half of the chain's elements start
    on a continued line, a continuation in the chain's dominant style with
    the last element's line indentation."""
    if run.prop("run_form") == "exec-shell":
        return " && "  # a raw newline would corrupt the JSON string
    elements = chain.children
    gaps = [src[prev.span.end : cur.span.start] for prev, cur in zip(elements, elements[1:])]
    continued = [g for g in gaps if "\n" in g]
    if not continued or 2 * len(continued) < len(gaps):
        return " && "
    leading = sum(1 for g in continued if "&&" in g.rsplit("\n", 1)[1])
    indent = _line_indent(src, elements[-1].span.start)
    if 2 * leading >= len(continued):
        return " " + escape + "\n" + indent + "&& "
    return " && " + escape + "\n" + indent


def _line_indent(src: str, offset: int) -> str:
    line_start = src.rfind("\n", 0, offset) + 1
    m = re.match(r"[ \t]*", src[line_start:offset])
    return m.group(0) if m else ""


def _element(chain: Chain, statement: UnifiedNode) -> tuple[int, UnifiedNode]:
    """The index and the element of ``chain`` that holds ``statement``: the
    last one that starts at or before it, as sibling spans are ordered and
    disjoint."""
    if chain.top.kind is not NodeKind.SC_AND:
        return 0, chain.top
    elements = chain.top.children
    k = bisect_right(elements, statement.span.start, key=lambda e: e.span.start) - 1
    return k, elements[k]


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
        text = _flag_text(rule.flag_text, anchor)
        return _insert(ast, diagnostic, anchor.node.span.end, _FLAG, text)

    if not diagnostic.fixable:
        return RepairOutcome(
            "not-fixable", diagnostic, reason=_not_fixable_reason(diagnostic.run)
        )
    chain = _chain(ast, diagnostic.run)
    statement = rule.repair_text(diagnostic.extras)
    if rule.kind == "before":
        index, element = _element(chain, anchor.statement)
        if index == 0:
            text = statement + chain.joiner
            return _insert(ast, diagnostic, element.span.start, _QUEUED, text)
        offset = chain.top.children[index - 1].span.end
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
