"""The per-RUN statement index that every rule reads.

One pre-order walk over a RUN records, per annotation label, the labelled
nodes together with their enclosing command statement, and the variable
each statement's output is assigned to (`V=$(...)`). Positions count
the nodes of that walk, so comparing two statements' positions compares
their document order. Nodes inside SC-UNPARSED regions are never
indexed. A check asks what its own statement carries with ``labelled``,
which leaves out the statements nested in it (`$(...)`); no check walks
the tree. "Is there a cleanup after this statement?" is answered from the
last position at which each label, and each rm operand, occurs. The
tables behind ``labelled`` and these lookups are built on first use.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fnmatch import fnmatchcase
from itertools import accumulate, takewhile

from .model import STATEMENT_KINDS, NodeKind, SlimdockError, UnifiedNode
from .schemas import LABELS
from .shell import read_word, variable_reference


class PatternConfigError(SlimdockError):
    """A rule references an unknown annotation label."""


def checked_label(label: str) -> str:
    """``label`` itself, or PatternConfigError when no schema declares it.

    Rules pass every label they use through this at import, so a
    misconfigured rule fails at startup; the lookups below trust them."""
    if label not in LABELS:
        raise PatternConfigError(f"unknown annotation label {label!r}")
    return label


_RM = checked_label("SC-RM")
_RM_RECURSIVE = checked_label("SC-RM-F-RECURSIVE")
_RM_PATH = checked_label("SC-RM-PATH")


_STARS_RE = re.compile(r"\*+")
_GLOB_CHARS = frozenset("*?[")


def _normalize_path(p: str) -> str:
    if p.startswith("./"):
        p = p[2:]
    if len(p) > 1:
        p = p.rstrip("/") or p
    return p


def path_covers(
    operand: str, target: str, operand_glob: bool = True, target_glob: bool = False
) -> bool:
    """True when removing ``operand`` removes ``target``: when the
    operand's ``/``-components match a prefix of the target's, so that a
    directory covers what it holds (``x`` covers ``x/*``). A glob component
    of a glob target is no name: only the same glob (a run of `*` read as
    one), or `*`, matches it. Any other component of a glob operand
    matches as a pattern, so no `*`, `?` or `[...]` matches a `/`
    (``/var/*`` covers ``/var/lib/apt/lists``, but ``/var/*/lists`` does
    not). Any other component matches only itself: an operand that is not
    a glob (a `*`, `?` or `[` of it was quoted) is a path. A relative glob
    is matched as one string, since the directory it is relative to is
    unknown: against the target and each directory that holds it (of a
    glob target, those with no glob). A contents glob covers its directory
    (``x/*`` covers ``x``).
    """
    o = _normalize_path(operand)
    t = _normalize_path(target)
    if operand_glob and o.endswith("/*") and o[:-2] == t:
        return True
    # the root's one component is its empty name
    want, have = o.rstrip("/").split("/"), t.rstrip("/").split("/")
    if operand_glob and want[0] and not _GLOB_CHARS.isdisjoint(o):
        names = takewhile(_GLOB_CHARS.isdisjoint, have) if target_glob else have
        return any(o == d or fnmatchcase(d, o) for d in accumulate(names, "{}/{}".format))
    return (
        bool(o)
        and len(want) <= len(have)
        and all(_component_covers(w, h, operand_glob, target_glob) for w, h in zip(want, have))
    )


def _component_covers(want: str, have: str, operand_glob: bool, target_glob: bool) -> bool:
    if target_glob and not _GLOB_CHARS.isdisjoint(have):  # no name: its glob, or `*`
        return operand_glob and _STARS_RE.sub("*", want) in ("*", _STARS_RE.sub("*", have))
    return want == have or (operand_glob and fnmatchcase(have, want))


@dataclass(frozen=True)
class Anchor:
    """A labelled node, its enclosing statement and their walk positions.

    ``ordinal`` counts the nodes before this one that carry the same label.
    Repairs never insert a labelled node ahead of an original one, so
    ``(label, ordinal)`` names the same node in a reprinted and reparsed RUN.
    """

    node: UnifiedNode
    statement: UnifiedNode
    label: str
    position: int
    statement_position: int
    ordinal: int


# a substitution's output is that of its statements, also of those in
# the lists and pipelines it holds
_CAPTURING = frozenset(
    {NodeKind.SC_COMMAND_SUBSTITUTION, NodeKind.SC_SEQ, NodeKind.SC_AND,
     NodeKind.SC_OR, NodeKind.SC_PIPELINE}
)
_ASSIGNMENT, _UNPARSED = NodeKind.SC_ASSIGNMENT, NodeKind.SC_UNPARSED


class RunIndex:
    """Labelled nodes of one RUN's subtree, in document order, with
    cleanup lookups by position; ``labels`` are the labels they carry. The
    nodes that start past the offset ``stop`` are left out: the walk meets
    them last."""

    def __init__(self, root: UnifiedNode, stop: int = sys.maxsize):
        self._anchors: dict[str, list[Anchor]] = {}
        self._last: dict[str, int] = {}
        self._captured: dict[int, str] = {}  # by id() of the statement
        self._labelled: dict[str, dict[int, list[UnifiedNode]]] = {}  # by label, then id() of the statement
        self._removals: tuple[dict, dict] | None = None
        stack: list[tuple[UnifiedNode, UnifiedNode | None, int]] = [(root, None, -1)]
        push, position = stack.append, 0
        while stack:
            node, statement, statement_position = stack.pop()
            if node.span.start > stop:
                break
            kind = node.kind
            if kind in STATEMENT_KINDS:
                statement, statement_position = node, position
            elif kind is _ASSIGNMENT:
                self._capture(node)
            if node.annotations:
                for label in node.annotations:
                    same = self._anchors.setdefault(label, [])
                    same.append(Anchor(node, statement or node, label, position,
                                       statement_position if statement else position, len(same)))
            position += 1
            if node.children and kind is not _UNPARSED:
                for child in reversed(node.children):
                    push((child, statement, statement_position))
        self.labels = self._anchors.keys()

    def _capture(self, assignment: UnifiedNode) -> None:
        """Record the assignment's name for the statements whose output its
        substitutions (its children) capture."""
        stack = list(assignment.children)
        while stack:
            node = stack.pop()
            if node.kind in STATEMENT_KINDS:
                self._captured[id(node)] = assignment.prop("name")
            elif node.kind in _CAPTURING:
                stack.extend(node.children)

    def anchors(self, label: str) -> list[Anchor]:
        """Nodes carrying ``label``, in document order."""
        return self._anchors.get(label, [])

    def labelled(self, statement: UnifiedNode, label: str) -> list[UnifiedNode]:
        """The nodes of ``statement`` itself, not of a statement nested in
        it, that carry ``label``, in document order."""
        table = self._labelled.get(label)
        if table is None:
            table = self._labelled[label] = {}
            for anchor in self.anchors(label):
                table.setdefault(id(anchor.statement), []).append(anchor.node)
        return table.get(id(statement), [])

    def later(self, label: str, position: int) -> bool:
        """Some statement after ``position`` carries ``label``."""
        last = self._last.get(label)
        if last is None:
            last = max((a.statement_position for a in self.anchors(label)), default=-1)
            self._last[label] = last
        return last > position

    def captured(self, statement: UnifiedNode) -> str | None:
        """The variable ``V`` when ``statement`` runs in `V=$(...)`, on its
        own or in a list or pipeline there."""
        return self._captured.get(id(statement))

    def removed_after(
        self, position: int, target: str, recursive: bool, glob: bool = False
    ) -> bool:
        """Some rm statement after ``position`` has an operand that covers
        ``target``, a path or, with ``glob``, a glob (``path_covers``), and
        a recursive flag if asked for."""
        return any(
            last[recursive] > position and path_covers(operand, target, operand_glob, glob)
            for (operand, operand_glob), last in self._rm_operands()[0].items()
        )

    def removed_variable_after(self, position: int, name: str) -> bool:
        """Some recursive rm after ``position`` removes ``$name`` or below it."""
        return self._rm_operands()[1].get(name, -1) > position

    def _rm_operands(self) -> tuple[dict, dict]:
        """Last statement position per rm operand and whether the shell
        expands it as a glob, as ``[any rm, recursive rm]``; and per
        variable a recursive rm removes. An exec-form rm has no shell, so
        no glob."""
        if self._removals is None:
            operands: dict[tuple[str, bool], list[int]] = {}
            variables: dict[str, int] = {}
            for anchor in self.anchors(_RM):
                where, statement = anchor.statement_position, anchor.statement
                recursive = bool(self.labelled(statement, _RM_RECURSIVE))
                in_shell = not statement.prop("exec_array")
                for node in self.labelled(statement, _RM_PATH):
                    text = node.prop("text")
                    glob = in_shell and read_word(node.literal)[1]
                    last = operands.setdefault((text, glob), [-1, -1])
                    last[0] = max(last[0], where)
                    if recursive:
                        last[1] = max(last[1], where)
                        name = variable_reference(text)
                        if name is not None:
                            variables[name] = max(variables.get(name, -1), where)
            self._removals = operands, variables
        return self._removals
