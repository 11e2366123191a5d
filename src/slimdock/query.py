"""The per-RUN statement index that every rule reads.

One pre-order walk over a RUN records, per annotation label, the labelled
nodes together with their enclosing command statement. Positions count
the nodes of that walk, so comparing two statements' positions compares
their document order. Nodes inside SC-UNPARSED regions are never
indexed. "Is there a cleanup after this statement?" is answered from the
last position at which each label, and each rm operand, occurs; those
tables are built on first use.
"""

from __future__ import annotations

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
from .shell import variable_reference


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


def _normalize_path(p: str) -> str:
    if p.startswith("./"):
        p = p[2:]
    if len(p) > 1:
        p = p.rstrip("/") or p
    return p


def path_covers(operand: str, target: str) -> bool:
    """True when removing ``operand`` removes ``target``.

    String equality, the operand interpreted as a glob matching the target,
    and the directory/contents equivalences either way (``x`` vs ``x/*``).
    """
    o = _normalize_path(operand)
    t = _normalize_path(target)
    if o == t:
        return True
    if fnmatchcase(t, o):
        return True
    if o.endswith("/*") and o[:-2] == t:
        return True
    if t.endswith("/*") and t[:-2] == o:
        return True
    return False


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


class RunIndex:
    """Labelled nodes of one RUN's subtree, in document order, with
    cleanup lookups by position."""

    def __init__(self, root: UnifiedNode):
        self._anchors: dict[str, list[Anchor]] = {}
        self._last: dict[str, int] = {}
        self._removals: tuple[dict, dict] | None = None
        stack: list[tuple[UnifiedNode, UnifiedNode | None, int]] = [(root, None, -1)]
        position = 0
        while stack:
            node, statement, statement_position = stack.pop()
            if node.kind in STATEMENT_KINDS:
                statement, statement_position = node, position
            for label in node.annotations:
                same = self._anchors.setdefault(label, [])
                same.append(Anchor(node, statement or node, label, position,
                                   statement_position if statement else position, len(same)))
            position += 1
            if node.kind is not NodeKind.SC_UNPARSED:
                stack.extend((child, statement, statement_position)
                             for child in reversed(node.children))

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

    def removed_after(self, position: int, target: str, recursive: bool) -> bool:
        """Some rm statement after ``position`` has an operand that covers
        ``target`` (``path_covers``), and a recursive flag if asked for."""
        return any(
            last[recursive] > position and path_covers(operand, target)
            for operand, last in self._rm_operands()[0].items()
        )

    def removed_variable_after(self, position: int, name: str) -> bool:
        """Some recursive rm after ``position`` removes ``$name`` or below it."""
        return self._rm_operands()[1].get(name, -1) > position

    def _rm_operands(self) -> tuple[dict, dict]:
        """Last statement position per rm operand, as ``[any rm, recursive
        rm]``; and per variable a recursive rm removes."""
        if self._removals is None:
            operands: dict[str, list[int]] = {}
            variables: dict[str, int] = {}
            for anchor in self.anchors(_RM):
                where = anchor.statement_position
                nodes = list(_walk_matchable(anchor.statement))
                recursive = any(_RM_RECURSIVE in n.annotations for n in nodes)
                for node in nodes:
                    text = node.prop("text")
                    if _RM_PATH not in node.annotations or text is None:
                        continue
                    last = operands.setdefault(text, [-1, -1])
                    last[0] = max(last[0], where)
                    if recursive:
                        last[1] = max(last[1], where)
                        name = variable_reference(text)
                        if name is not None:
                            variables[name] = max(variables.get(name, -1), where)
            self._removals = operands, variables
        return self._removals
