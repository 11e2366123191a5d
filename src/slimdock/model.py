"""Core source model shared by every other module.

Defines source spans, the unified node type that mixes Dockerfile-level and
shell-level constructs in one tree, and the annotation label registry.
The tree is built by the parsers and annotated by enrichment; after that it
is only read: repairs record text insertions on the ``DockerfileAst``.

Offsets are indices into the decoded source text (the text is decoded from
UTF-8 once, at ingestion); slicing ``text[start:end]`` is always exact and
never normalized.
"""

from __future__ import annotations

import bisect
from enum import Enum, unique
from typing import Any, Iterator


class SlimdockError(Exception):
    """Base class for all library errors."""


class SpanError(SlimdockError):
    """An out-of-bounds or inverted span. Signals a parser bug."""


class AnnotationError(SlimdockError):
    """An annotation label that is not in the registry."""


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
    SC_VARIABLE = "SC-VARIABLE"
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


_POSITIONS = ("start_line", "start_col", "end_line", "end_col")


class SourceSpan:
    """Half-open [start, end) region of the source text.

    ``start``/``end`` are offsets into the decoded file text and are the
    authoritative coordinates. The 1-based line/column positions used for
    reporting (``start_line``, ``start_col``, ``end_line``, ``end_col``)
    are derived on demand: on first read, from the SourceMap that built
    the span. A span built without a map reports 1:1 for both ends.
    """

    __slots__ = ("start", "end", "_map") + _POSITIONS

    def __init__(self, start: int, end: int, source_map: "SourceMap | None" = None):
        if start < 0 or end < start:
            raise SpanError(f"invalid span [{start}, {end})")
        self.start = start
        self.end = end
        self._map = source_map

    def __getattr__(self, name: str) -> int:
        # reached only while the position slots are unset: fill all four
        if name not in _POSITIONS:
            raise AttributeError(name)
        sm = self._map
        values = (1, 1, 1, 1) if sm is None else sm.position(self.start) + sm.position(self.end)
        for field, value in zip(_POSITIONS, values):
            setattr(self, field, value)
        return getattr(self, name)

    def through(self, last: "SourceSpan") -> "SourceSpan":
        """From this span's start to ``last``'s end, in the same source."""
        return SourceSpan(self.start, last.end, self._map)

    def moved(self, delta: int, into: "SourceSpan") -> "SourceSpan":
        """This span ``delta`` characters later, in the source of ``into``."""
        return SourceSpan(self.start + delta, self.end + delta, into._map)

    def _key(self) -> tuple[int, ...]:
        return (self.start, self.end, self.start_line, self.start_col, self.end_line, self.end_col)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceSpan):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"SourceSpan({self.start}, {self.end})"

    def __len__(self) -> int:
        return self.end - self.start

    def contains(self, other: "SourceSpan") -> bool:
        return self.start <= other.start and other.end <= self.end


class SourceMap:
    """Derives line/column positions for offsets of one source text."""

    def __init__(self, text: str):
        self.text = text
        self._line_starts = [0]
        nl = text.find("\n")
        while nl >= 0:
            self._line_starts.append(nl + 1)
            nl = text.find("\n", nl + 1)

    def position(self, offset: int) -> tuple[int, int]:
        """1-based (line, column) of ``offset``; offset may equal len(text)."""
        if offset < 0 or offset > len(self.text):
            raise SpanError(f"offset {offset} out of range 0..{len(self.text)}")
        line_idx = bisect.bisect_right(self._line_starts, offset) - 1
        return line_idx + 1, offset - self._line_starts[line_idx] + 1

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


# ---------------------------------------------------------------------------
# Annotation label registry
# ---------------------------------------------------------------------------

_ANNOTATION_REGISTRY: set[str] = set()


def register_annotation_labels(labels: Iterator[str] | list[str] | set[str]) -> None:
    """Add labels to the controlled vocabulary (startup-time only)."""
    for label in labels:
        _ANNOTATION_REGISTRY.add(label)


def is_registered_label(label: str) -> bool:
    return label in _ANNOTATION_REGISTRY


class UnifiedNode:
    """One AST node spanning both the Dockerfile and shell grammars.

    Every node the parsers build covers a span of the source. ``literal``
    carries the verbatim token text for leaves. Semantic extras (a word's unquoted
    text, a RUN's form, ...) live in ``props``.
    """

    __slots__ = ("kind", "children", "parent", "span", "annotations", "literal", "props")

    def __init__(
        self,
        kind: NodeKind,
        span: SourceSpan | None = None,
        literal: str | None = None,
    ):
        self.kind = kind
        self.children: list[UnifiedNode] = []
        self.parent: UnifiedNode | None = None
        self.span = span
        self.annotations: set[str] = set()
        self.literal = literal
        self.props: dict[str, Any] = {}

    # -- construction ---------------------------------------------------

    def add_child(self, child: "UnifiedNode") -> "UnifiedNode":
        """Append ``child``, which has no parent yet."""
        child.parent = self
        self.children.append(child)
        return child

    def child_index(self, child: "UnifiedNode") -> int:
        try:
            return self.children.index(child)  # nodes compare by identity
        except ValueError:
            raise ValueError("node is not a child of this parent") from None

    # -- annotations -----------------------------------------------------

    def annotate(self, label: str) -> None:
        if not is_registered_label(label):
            raise AnnotationError(f"unknown annotation label: {label!r}")
        self.annotations.add(label)

    def has_annotation(self, label: str) -> bool:
        return label in self.annotations

    # -- traversal -------------------------------------------------------

    def walk(self) -> Iterator["UnifiedNode"]:
        """Depth-first pre-order over this subtree, including self."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def ancestors(self) -> Iterator["UnifiedNode"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def prop(self, key: str, default: Any = None) -> Any:
        return self.props.get(key, default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f"{self.span.start}:{self.span.end}" if self.span else "?"
        lit = f" {self.literal!r}" if self.literal is not None else ""
        return f"<{self.kind.value} {where}{lit}>"


def validate_tree(root: UnifiedNode) -> None:
    """Assert structural invariants; used by tests, not production paths.

    Checks parent links and span containment.
    """
    for node in root.walk():
        for child in node.children:
            if child.parent is not node:
                raise SlimdockError(f"broken parent link at {child!r}")
            if (
                child.span is not None
                and node.span is not None
                and not node.span.contains(child.span)
            ):
                raise SpanError(f"child span {child!r} escapes parent {node!r}")
