"""Core source model shared by every other module.

Defines source spans and the unified node type that mixes Dockerfile-level
and shell-level constructs in one tree.

A node is built whole: the parsers, and fix's re-read, give its
``children`` (a tuple) and its props when they construct it. After that,
only two kinds of write remain. Enrichment adds labels from
``schemas.LABELS`` to a node's ``annotations`` (``annotate``) and sets two
props (``set_prop``): a word's ``value`` and the root's ``enrich_stats``.
And ``run.children = (script,)`` attaches a RUN's shell tree
(``enrich.embed_run``, ``runner._reread``), the one structural write after
construction. Once enriched, the tree is read-only: repairs record text
insertions on the ``DockerfileAst``.

A node carries only what it holds: a leaf's ``children`` is the empty
tuple, and every node without props shares one empty read-only mapping.
Labels are interned frozensets and props are replaced, never changed in
place, so a copy (``moved``) shares its original's ``literal``, props and
labels.

Offsets are indices into the decoded source text (the text is decoded from
UTF-8 once, at ingestion); slicing ``text[start:end]`` is always exact and
never normalized.
"""

from __future__ import annotations

import bisect
from enum import Enum, unique
from types import MappingProxyType
from typing import Any, Iterator, Mapping


class SlimdockError(Exception):
    """Base class for all library errors."""


class SpanError(SlimdockError):
    """An out-of-bounds or inverted span. Signals a parser bug."""


@unique
class NodeKind(str, Enum):
    """Flat kind enum over both namespaces.

    DOCKER-* kinds come from the Dockerfile grammar, SC-* kinds from the
    embedded shell grammar. A single namespace-prefixed enum lets queries
    traverse both levels of the tree transparently.
    """

    # Dockerfile level
    DOCKER_FILE = "DOCKER-FILE"
    DOCKER_FROM = "DOCKER-FROM"
    DOCKER_RUN = "DOCKER-RUN"
    DOCKER_COPY = "DOCKER-COPY"
    DOCKER_ADD = "DOCKER-ADD"
    DOCKER_ENV = "DOCKER-ENV"
    DOCKER_ARG = "DOCKER-ARG"
    DOCKER_WORKDIR = "DOCKER-WORKDIR"
    DOCKER_EXPOSE = "DOCKER-EXPOSE"
    DOCKER_ENTRYPOINT = "DOCKER-ENTRYPOINT"
    DOCKER_CMD = "DOCKER-CMD"
    DOCKER_LABEL = "DOCKER-LABEL"
    DOCKER_USER = "DOCKER-USER"
    DOCKER_VOLUME = "DOCKER-VOLUME"
    DOCKER_SHELL = "DOCKER-SHELL"
    DOCKER_HEALTHCHECK = "DOCKER-HEALTHCHECK"
    DOCKER_ONBUILD = "DOCKER-ONBUILD"
    DOCKER_STOPSIGNAL = "DOCKER-STOPSIGNAL"
    DOCKER_MAINTAINER = "DOCKER-MAINTAINER"
    DOCKER_COMMENT = "DOCKER-COMMENT"
    DOCKER_UNKNOWN = "DOCKER-UNKNOWN"

    # Shell level
    SC_SCRIPT = "SC-SCRIPT"
    SC_SIMPLE_COMMAND = "SC-SIMPLE-COMMAND"
    SC_PIPELINE = "SC-PIPELINE"
    SC_AND = "SC-AND"
    SC_OR = "SC-OR"
    SC_SEQ = "SC-SEQ"
    SC_SUBSHELL = "SC-SUBSHELL"
    SC_COMMAND_SUBSTITUTION = "SC-COMMAND-SUBSTITUTION"
    SC_COMPOUND = "SC-COMPOUND"
    SC_WORD = "SC-WORD"
    SC_ASSIGNMENT = "SC-ASSIGNMENT"
    SC_REDIRECTION = "SC-REDIRECTION"
    SC_UNPARSED = "SC-UNPARSED"


#: Node kinds that act as statements for textual before/after ordering.
STATEMENT_KINDS = frozenset(
    {
        NodeKind.SC_SIMPLE_COMMAND,
        NodeKind.SC_COMPOUND,
        NodeKind.SC_SUBSHELL,
        NodeKind.SC_UNPARSED,
    }
)


class SourceSpan:
    """Half-open [start, end) region of the source text.

    ``start``/``end`` are offsets into the decoded file text and are the
    authoritative coordinates. The 1-based line/column positions used for
    reporting (``start_line``, ``start_col``, ``end_line``, ``end_col``)
    are derived from the SourceMap that built the span each time they are
    read. A span built without a map reports 1:1 for both ends.
    """

    __slots__ = ("start", "end", "_map")

    def __init__(self, start: int, end: int, source_map: "SourceMap | None" = None):
        if start < 0 or end < start:
            raise SpanError(f"invalid span [{start}, {end})")
        self.start = start
        self.end = end
        self._map = source_map

    def _position(self, offset: int) -> tuple[int, int]:
        return (1, 1) if self._map is None else self._map.position(offset)

    start_line = property(lambda self: self._position(self.start)[0])
    start_col = property(lambda self: self._position(self.start)[1])
    end_line = property(lambda self: self._position(self.end)[0])
    end_col = property(lambda self: self._position(self.end)[1])

    def through(self, last: "SourceSpan") -> "SourceSpan":
        """From this span's start to ``last``'s end, in the same source."""
        return SourceSpan(self.start, last.end, self._map)

    def moved(self, delta: int, into: "SourceSpan") -> "SourceSpan":
        """This span ``delta`` characters later, in the source of ``into``."""
        return SourceSpan(self.start + delta, self.end + delta, into._map)

    def _key(self) -> tuple[int, ...]:
        return (self.start, self.end, *self._position(self.start), *self._position(self.end))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceSpan):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"SourceSpan({self.start}, {self.end})"

    def contains(self, other: "SourceSpan") -> bool:
        return self.start <= other.start and other.end <= self.end


class SourceMap:
    """Derives line/column positions for offsets of one source text, from
    ``line_starts``: the offset at which each line starts."""

    def __init__(self, text: str):
        self.text = text
        self.line_starts = [0]
        nl = text.find("\n")
        while nl >= 0:
            self.line_starts.append(nl + 1)
            nl = text.find("\n", nl + 1)

    def position(self, offset: int) -> tuple[int, int]:
        """1-based (line, column) of ``offset``; offset may equal len(text)."""
        if offset < 0 or offset > len(self.text):
            raise SpanError(f"offset {offset} out of range 0..{len(self.text)}")
        line_idx = bisect.bisect_right(self.line_starts, offset) - 1
        return line_idx + 1, offset - self.line_starts[line_idx] + 1

    def span(self, start: int, end: int) -> SourceSpan:
        """A span of this text; SpanError if it is inverted or out of range."""
        if start < 0 or end > len(self.text):
            raise SpanError(f"span [{start}, {end}) out of range 0..{len(self.text)}")
        return SourceSpan(start, end, self)


def span_text(source: str, span: SourceSpan) -> str:
    """Exact slice of ``source`` covered by ``span``; no normalization.

    Raises SpanError when the span does not lie within the source; that
    always indicates a parser bug, never bad user input.
    """
    if span.end > len(source):
        raise SpanError(
            f"span [{span.start}, {span.end}) exceeds source length {len(source)}"
        )
    return source[span.start : span.end]


_NO_PROPS: Mapping[str, Any] = MappingProxyType({})
_NO_LABELS: frozenset[str] = frozenset()
# the label set of each (label set, label) ``annotate`` was asked for
_LABELS: dict[tuple[frozenset[str], str], frozenset[str]] = {}


class UnifiedNode:
    """One AST node spanning both the Dockerfile and shell grammars.

    Every node the parsers build covers a span of the source. ``literal``
    carries the verbatim token text for leaves. Semantic extras (a word's unquoted
    text, a RUN's form, ...) live in ``props``. A node links to its children
    only, so a tree holds no reference cycle: reference counting frees each
    node once nothing refers to it.
    """

    __slots__ = ("kind", "children", "span", "annotations", "literal", "props")

    def __init__(
        self,
        kind: NodeKind,
        span: SourceSpan | None = None,
        literal: str | None = None,
        children: tuple["UnifiedNode", ...] = (),
        props: Mapping[str, Any] = _NO_PROPS,
    ):
        self.kind = kind
        self.children = children
        self.span = span
        self.annotations = _NO_LABELS
        self.literal = literal
        self.props = props

    # -- enrichment and copies -------------------------------------------

    def set_prop(self, key: str, value: Any) -> None:
        props = self.props
        self.props = {key: value} if props is _NO_PROPS else {**props, key: value}

    def annotate(self, label: str) -> None:
        key = (self.annotations, label)
        self.annotations = _LABELS.get(key) or _LABELS.setdefault(key, key[0] | {label})

    def moved(self, delta: int, into: SourceSpan) -> "UnifiedNode":
        """A copy of this subtree ``delta`` characters later, in the source
        of ``into``: spans moved, ``literal``, ``props`` and annotations
        shared."""
        span = self.span.moved(delta, into)
        children = self.children and tuple([child.moved(delta, into) for child in self.children])
        copy = UnifiedNode(self.kind, span, self.literal, children, self.props)
        copy.annotations = self.annotations
        return copy

    # -- traversal -------------------------------------------------------

    def walk(self) -> Iterator["UnifiedNode"]:
        """Depth-first pre-order over this subtree, including self."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def prop(self, key: str, default: Any = None) -> Any:
        return self.props.get(key, default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f"{self.span.start}:{self.span.end}" if self.span else "?"
        lit = f" {self.literal!r}" if self.literal is not None else ""
        return f"<{self.kind.value} {where}{lit}>"


def validate_tree(root: UnifiedNode) -> None:
    """Assert structural invariants; used by tests, not production paths.

    Checks that each node's ``children`` is a tuple and that each child's
    span lies in its parent's. Nodes hold no link to their parent, so a
    tree has no reference cycle.
    """
    for node in root.walk():
        if type(node.children) is not tuple:
            raise TypeError(f"children of {node!r} are not a tuple")
        for child in node.children:
            if (
                child.span is not None
                and node.span is not None
                and not node.span.contains(child.span)
            ):
                raise SpanError(f"child span {child!r} escapes parent {node!r}")
