"""The per-RUN statement index that every rule reads.

One pre-order walk over a RUN records, per annotation label, the labelled
nodes together with their enclosing command statement, and the variable
each statement's output is assigned to (`V=$(...)`). Positions count
the nodes of that walk, so comparing two statements' positions compares
their document order. Nodes inside SC-UNPARSED regions are never
indexed. "Is there a cleanup after this statement?" is answered from the
last position at which each label, and each rm operand, occurs; those
tables are built on first use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Iterator

from . import schemas  # noqa: F401  registers the labels checked below
from .model import (
    STATEMENT_KINDS,
    NodeKind,
    SlimdockError,
    UnifiedNode,
    is_registered_label,
)
from .shell import read_word, variable_reference


class PatternConfigError(SlimdockError):
    """A rule references an unknown annotation label."""


def checked_label(label: str) -> str:
    """``label`` itself, or PatternConfigError when it is not registered.

    Rules pass every label they use through this at import, so a
    misconfigured rule fails at startup; the lookups below trust them."""
    if not is_registered_label(label):
        raise PatternConfigError(f"unknown annotation label {label!r}")
    return label


_RM = checked_label("SC-RM")
_RM_RECURSIVE = checked_label("SC-RM-F-RECURSIVE")
_RM_PATH = checked_label("SC-RM-PATH")


_GLOB_CHAR_RE = re.compile(r"[*?[]|$")  # the first glob character, else the end
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
    """True when removing ``operand`` removes ``target``.

    A directory covers its contents (``x`` covers ``x/*``). A glob operand
    also covers what it equals or matches, an absolute one also what it
    matches a directory of (``/var/*`` covers ``/var/lib/apt/lists``, but
    ``/var/*/lists`` does not), and its contents glob covers the directory
    (``x/*`` covers ``x``). An operand that is not a glob (a
    `*`, `?` or `[` of it was quoted) is one path: it covers the same path.
    A glob target is no name: it is covered by a glob operand of its text
    (a run of `*` read as one) or by what covers its literal directory, the
    part before the last `/` ahead of its first `*`, `?` or `[`.
    """
    o = _normalize_path(operand)
    t = _normalize_path(target)
    if target_glob:
        if operand_glob and _STARS_RE.sub("*", o) == _STARS_RE.sub("*", t):
            return True
        cut = t.rfind("/", 0, _GLOB_CHAR_RE.search(t).start())
        if cut < 0:
            return False
        t = t[:cut] or "/"
    if t.endswith("/*") and t[:-2] == o:
        return True
    if not operand_glob:
        return o == t
    return o == t or _glob_covers(o, t) or (o.endswith("/*") and o[:-2] == t)


def _glob_covers(o: str, t: str) -> bool:
    """Whether the glob ``o`` matches ``t`` or, if it is absolute and has a
    glob character, a directory that holds ``t``: component by component,
    so that no `*`, `?` or `[...]` matches a `/`. A relative glob is
    matched as one string, since the directory it is relative to is
    unknown."""
    if not o.startswith("/") or _GLOB_CHARS.isdisjoint(o):
        return fnmatchcase(t, o)
    want, have = o.split("/"), t.split("/")
    return len(want) <= len(have) and all(map(fnmatchcase, have, want))


def _walk_matchable(root: UnifiedNode) -> Iterator[UnifiedNode]:
    """Pre-order walk that refuses to descend into SC-UNPARSED regions."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if node.kind is not NodeKind.SC_UNPARSED:
            stack.extend(reversed(node.children))


def statement_has(statement: UnifiedNode, label: str) -> bool:
    """Whether any matchable node of the statement's subtree carries ``label``."""
    return any(label in node.annotations for node in _walk_matchable(statement))


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
    cleanup lookups by position."""

    def __init__(self, root: UnifiedNode):
        self._anchors: dict[str, list[Anchor]] = {}
        self._last: dict[str, int] = {}
        self._captured: dict[int, str] = {}  # by id() of the statement
        self._removals: tuple[dict, dict] | None = None
        stack: list[tuple[UnifiedNode, UnifiedNode | None, int]] = [(root, None, -1)]
        position = 0
        while stack:
            node, statement, statement_position = stack.pop()
            kind = node.kind
            if kind in STATEMENT_KINDS:
                statement, statement_position = node, position
            elif kind is _ASSIGNMENT:
                self._capture(node)
            for label in node.annotations:
                same = self._anchors.setdefault(label, [])
                same.append(Anchor(node, statement or node, label, position,
                                   statement_position if statement else position, len(same)))
            position += 1
            if kind is not _UNPARSED:
                stack.extend((child, statement, statement_position)
                             for child in reversed(node.children))

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
                where = anchor.statement_position
                nodes = list(_walk_matchable(anchor.statement))
                recursive = any(_RM_RECURSIVE in n.annotations for n in nodes)
                in_shell = not anchor.statement.prop("exec_array")
                for node in nodes:
                    text = node.prop("text")
                    if _RM_PATH not in node.annotations or text is None:
                        continue
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
