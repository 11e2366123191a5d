"""Dockerfile parser producing DOCKER-* nodes.

Instructions are matched case-insensitively (the original casing survives
through spans). Backslash-newline continuations, full-line comments inside
a continued instruction, and the ``# escape=`` directive are all handled
here: the payload handed to the shell parser is the logical instruction
text, while a segment map keeps every shell node's span in file
coordinates so the whole tree shares one coordinate system.

Each RUN's form (shell, exec ``sh -c`` or exec array) is decided here, and
the trees that need no shell parse are built here: an exec array's command,
and an opaque script for an ``sh -c`` string with JSON escapes.
``enrich.build_unified_ast`` parses the shell regions of the other RUNs.

Parsing never hard-fails. Unrecognizable keywords become DOCKER-UNKNOWN
nodes, an empty file parses to an empty DOCKER-FILE with a warning, and
variable references in arguments stay literal tokens (rules operate
syntactically).
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field
from json.decoder import JSONDecodeError, scanstring
from operator import itemgetter
from typing import Any

from .model import NodeKind, SourceMap, SourceSpan, UnifiedNode

_KEYWORDS = {
    "from": NodeKind.DOCKER_FROM,
    "run": NodeKind.DOCKER_RUN,
    "copy": NodeKind.DOCKER_COPY,
    "add": NodeKind.DOCKER_ADD,
    "env": NodeKind.DOCKER_ENV,
    "arg": NodeKind.DOCKER_ARG,
    "workdir": NodeKind.DOCKER_WORKDIR,
    "expose": NodeKind.DOCKER_EXPOSE,
    "entrypoint": NodeKind.DOCKER_ENTRYPOINT,
    "cmd": NodeKind.DOCKER_CMD,
    "label": NodeKind.DOCKER_LABEL,
    "user": NodeKind.DOCKER_USER,
    "volume": NodeKind.DOCKER_VOLUME,
    "shell": NodeKind.DOCKER_SHELL,
    "healthcheck": NodeKind.DOCKER_HEALTHCHECK,
    "onbuild": NodeKind.DOCKER_ONBUILD,
    "stopsignal": NodeKind.DOCKER_STOPSIGNAL,
    "maintainer": NodeKind.DOCKER_MAINTAINER,
}

_SHELLS_FOR_EXEC = {"sh", "bash", "/bin/sh", "/bin/bash", "/usr/bin/sh", "/usr/bin/bash"}

_KEYWORD_RE = re.compile(r"[ \t\ufeff]*([A-Za-z][A-Za-z_-]*)")
_DIRECTIVE_RE = re.compile(r"#\s*([A-Za-z][A-Za-z0-9]*)\s*=\s*(\S+)\s*$")
_RUN_FLAGS_RE = re.compile(r"\s*(?:--\S+\s+)*")
_HEREDOC_TOKEN_RE = re.compile(r"<<(-?)([\"']?)([A-Za-z_][A-Za-z0-9_]*)\2")


@dataclass
class DockerfileAst:
    root: UnifiedNode
    source: str
    path: str
    warnings: list[str]
    escape_char: str
    #: The text repairs insert, as ``(offset, rank, order, text)``; sorted,
    #: it is the order in which ``printer.print_minimal`` splices it into
    #: ``source`` (see ``rules.repair``).
    insertions: list[tuple[int, int, int, str]] = field(default_factory=list)
    #: What repairs keep per RUN they extend (``rules.Chain``), by the
    #: RUN node's id.
    chains: dict[int, Any] = field(default_factory=dict)
    #: Whether a RUN configures gem (``rules.detect`` sets it when asked).
    gemrc: bool | None = None

    def runs(self) -> list[UnifiedNode]:
        """The RUN instructions; a DOCKER-RUN node is always a root child."""
        return [n for n in self.root.children if n.kind is NodeKind.DOCKER_RUN]


class SegmentedText:
    """A logical string assembled from source ranges, with offset mapping."""

    def __init__(
        self,
        source: str,
        segments: list[tuple[int, int]],
        source_map: SourceMap,
        anchor: int = 0,
    ):
        self.segments = [(s, e) for s, e in segments if e > s]
        self.clean = "".join(source[s:e] for s, e in self.segments)
        self._cum = [0]
        for s, e in self.segments:
            self._cum.append(self._cum[-1] + (e - s))
        self.source_map = source_map
        self.anchor = anchor

    def to_source(self, offset: int) -> int:
        return self._source_in(bisect.bisect_right(self._cum, offset) - 1, offset)

    def _source_in(self, idx: int, offset: int) -> int:
        """The source offset of payload ``offset``, which lies in segment
        ``idx`` (past the last segment: at its end)."""
        if not self.segments:
            return self.anchor
        if idx >= len(self.segments):
            return self.segments[-1][1]
        return self.segments[idx][0] + (offset - self._cum[idx])

    def to_payload(self, offset: int) -> int:
        """The payload offset of source ``offset``, which lies in a segment
        or at its end: the inverse of ``to_source``."""
        if not self.segments:
            return 0
        idx = bisect.bisect_right(self.segments, offset, key=itemgetter(0)) - 1
        return self._cum[idx] + (offset - self.segments[idx][0])

    def span(self, start: int, end: int) -> SourceSpan:
        """The source span of payload ``[start, end)``. The segment of its
        last character is found by walking on from the start's segment,
        which a span within one line does in zero steps."""
        cum = self._cum
        idx = bisect.bisect_right(cum, start) - 1
        s = self._source_in(idx, start)
        if end <= start:
            return self.source_map.span(s, s)
        while idx + 1 < len(cum) and cum[idx + 1] < end:
            idx += 1
        return self.source_map.span(s, self._source_in(idx, end - 1) + 1)


def _lines_of(text: str) -> list[tuple[int, int, int]]:
    """(start, end-without-newline, end-with-newline) for each line."""
    if not text:
        return [(0, 0, 0)]
    lines = []
    pos = 0
    n = len(text)
    while pos < n:
        nl = text.find("\n", pos)
        if nl < 0:
            lines.append((pos, n, n))
            break
        lines.append((pos, nl, nl + 1))
        pos = nl + 1
    return lines


def _is_blank(text: str, line: tuple[int, int, int]) -> bool:
    return not text[line[0] : line[1]].strip(" \t\r\ufeff")


def _is_comment(text: str, line: tuple[int, int, int]) -> bool:
    return text[line[0] : line[1]].lstrip(" \t\ufeff").startswith("#")


def _scan_directives(text: str, lines: list[tuple[int, int, int]], warnings: list[str]) -> str:
    escape = "\\"
    for line in lines:
        raw = text[line[0] : line[1]].strip(" \t\r\ufeff")
        if not raw:
            break
        if not raw.startswith("#"):
            break
        m = _DIRECTIVE_RE.match(raw)
        if not m or m.group(1).lower() not in ("syntax", "escape"):
            break
        if m.group(1).lower() == "escape":
            value = m.group(2)
            if value in ("\\", "`"):
                escape = value
            else:
                warnings.append(f"ignoring invalid escape directive {value!r}")
    return escape


def _find_heredoc_tokens(payload: str) -> list[tuple[str, bool]]:
    """Heredoc delimiters in a payload, quote-aware; (name, strip_tabs)."""
    out: list[tuple[str, bool]] = []
    i = 0
    n = len(payload)
    while i < n:
        ch = payload[i]
        if ch == "\\":
            i += 2
        elif ch == "'":
            j = payload.find("'", i + 1)
            i = n if j < 0 else j + 1
        elif ch == '"':
            i += 1
            while i < n and payload[i] != '"':
                if payload[i] == "\\":
                    i += 1
                i += 1
            i += 1
        elif ch == "<" and payload.startswith("<<", i) and not payload.startswith("<<<", i):
            m = _HEREDOC_TOKEN_RE.match(payload, i)
            if m:
                out.append((m.group(3), m.group(1) == "-"))
                i = m.end()
            else:
                i += 2
        else:
            i += 1
    return out


def _scan_exec_array(payload: str, i: int) -> list[tuple[str, int, int]] | None:
    """Tolerant JSON-array-of-strings scan of ``payload[i:]``.

    Returns (decoded, start, end) per element, offsets into ``payload``
    and inclusive of the quotes. None means "not exec form" (Docker falls
    back to shell form in that case). Strings are read by the standard
    JSON reader, which here also takes raw control characters.
    """
    n = len(payload)

    def skip_ws(j: int) -> int:
        while j < n and payload[j] in " \t\r":
            j += 1
        return j

    i = skip_ws(i)
    if i >= n or payload[i] != "[":
        return None
    i = skip_ws(i + 1)
    elems: list[tuple[str, int, int]] = []
    if i < n and payload[i] == "]":
        return elems if skip_ws(i + 1) >= n else None
    while True:
        i = skip_ws(i)
        if i >= n or payload[i] != '"':
            return None
        start = i
        try:
            value, i = scanstring(payload, i + 1, False)
        except JSONDecodeError:  # a bad escape, or no closing quote
            return None
        elems.append((value, start, i))
        i = skip_ws(i)
        if i < n and payload[i] == ",":
            i += 1
            continue
        if i < n and payload[i] == "]":
            return elems if skip_ws(i + 1) >= n else None
        return None


class FileParser:
    """Reads one Dockerfile text: ``parse`` reads all of it, and
    ``instruction_at`` one instruction of it; its lines and source map are
    built once, here."""

    def __init__(self, text: str, path: str):
        self.text = text
        self.path = path
        self.sm = SourceMap(text)
        self.warnings: list[str] = []
        self.lines = _lines_of(text)
        self.escape = _scan_directives(text, self.lines, self.warnings)

    def parse(self) -> DockerfileAst:
        text = self.text
        root = UnifiedNode(NodeKind.DOCKER_FILE, self.sm.span(0, len(text)))
        i = 0
        instruction_count = 0
        while i < len(self.lines):
            line = self.lines[i]
            if _is_blank(text, line):
                i += 1
                continue
            if _is_comment(text, line):
                raw = text[line[0] : line[1]]
                cstart = line[0] + (len(raw) - len(raw.lstrip(" \t\ufeff")))
                node = UnifiedNode(
                    NodeKind.DOCKER_COMMENT,
                    self.sm.span(cstart, line[1]),
                    literal=text[cstart : line[1]],
                )
                root.add_child(node)
                i += 1
                continue
            node, i = self._parse_instruction(i)
            root.add_child(node)
            instruction_count += 1
        if instruction_count == 0:
            self.warnings.append(f"{self.path}: no instructions found")
        return DockerfileAst(
            root=root,
            source=text,
            path=self.path,
            warnings=self.warnings,
            escape_char=self.escape,
        )

    # -- one instruction (with continuations) ------------------------------

    def instruction_at(self, offset: int) -> UnifiedNode:
        """The instruction read from the line that holds ``offset``, as
        ``parse`` reads an instruction that starts on that line."""
        return self._parse_instruction(self.sm.position(offset)[0] - 1)[0]

    def _parse_instruction(self, i: int) -> tuple[UnifiedNode, int]:
        text = self.text
        line = self.lines[i]
        raw = text[line[0] : line[1]]
        m = _KEYWORD_RE.match(raw)
        if m:
            keyword = m.group(1)
            kw_start = line[0] + m.start(1)
            content_start = line[0] + m.end(1)
            kind = _KEYWORDS.get(keyword.lower(), NodeKind.DOCKER_UNKNOWN)
        else:
            keyword = ""
            kw_start = line[0] + (len(raw) - len(raw.lstrip(" \t\ufeff")))
            content_start = line[1]
            kind = NodeKind.DOCKER_UNKNOWN
        if kind is NodeKind.DOCKER_UNKNOWN:
            self.warnings.append(
                f"{self.path}:{self.sm.position(kw_start)[0]}: unknown instruction {keyword!r}"
            )

        # skip the single whitespace run separating keyword and payload
        while content_start < line[1] and text[content_start] in " \t":
            content_start += 1

        segments, last_i = self._assemble(i, content_start)
        span_end = self.lines[last_i][1]
        seg_text = SegmentedText(text, segments, self.sm, anchor=content_start)
        payload = seg_text.clean

        # heredocs extend the instruction through their body lines
        heredoc_script: SegmentedText | None = None
        if kind in (NodeKind.DOCKER_RUN, NodeKind.DOCKER_COPY) and "<<" in payload:
            tokens = _find_heredoc_tokens(payload)
            if tokens:
                result = self._consume_heredoc_bodies(last_i, tokens)
                if result is None:
                    self.warnings.append(
                        f"{self.path}:{self.sm.position(kw_start)[0]}: unterminated heredoc"
                    )
                else:
                    body_segments, last_i, span_end, first_body = result
                    if kind is NodeKind.DOCKER_RUN:
                        if _is_leading_heredoc(payload):
                            heredoc_script = SegmentedText(
                                text, first_body, self.sm, anchor=content_start
                            )
                        else:
                            # command line plus body: shell parser sees it all
                            heredoc_script = SegmentedText(
                                text, segments + body_segments, self.sm, anchor=content_start
                            )

        node = UnifiedNode(kind, self.sm.span(kw_start, span_end))
        if kind is NodeKind.DOCKER_RUN:
            self._stash_run_payload(node, seg_text, heredoc_script)
        return node, last_i + 1

    def _assemble(self, i: int, content_start: int) -> tuple[list[tuple[int, int]], int]:
        """Payload segments for a logical line; elides escape-newline pairs
        and full-line comments / blank lines inside a continuation."""
        text = self.text
        segments: list[tuple[int, int]] = []
        cur = content_start
        while True:
            s, e, _ = self.lines[i]
            end_eff = e
            if end_eff > s and text[end_eff - 1] == "\r":
                end_eff -= 1
            continued = end_eff > cur and end_eff > s and text[end_eff - 1] == self.escape
            if continued:
                if end_eff - 1 > cur:
                    segments.append((cur, end_eff - 1))
            else:
                if end_eff > cur:
                    segments.append((cur, end_eff))
                return segments, i
            j = i + 1
            while j < len(self.lines) and (
                _is_comment(text, self.lines[j]) or _is_blank(text, self.lines[j])
            ):
                j += 1
            if j >= len(self.lines):
                return segments, len(self.lines) - 1
            i = j
            cur = self.lines[i][0]

    def _consume_heredoc_bodies(
        self, last_i: int, tokens: list[tuple[str, bool]]
    ) -> tuple[list[tuple[int, int]], int, int, list[tuple[int, int]]] | None:
        """Consume body lines for each heredoc delimiter, in order.

        Returns (all_body_segments_with_newlines, new_last_line_index,
        new_span_end, first_body_segments_without_delimiter)."""
        text = self.text
        i = last_i + 1
        all_segments: list[tuple[int, int]] = []
        first_body: list[tuple[int, int]] = []
        if last_i < len(self.lines):
            # the newline that ends the command line starts the body
            _, e, ne = self.lines[last_i]
            if ne > e:
                all_segments.append((e, ne))
        span_end = self.lines[last_i][1]
        for idx, (delim, strip_tabs) in enumerate(tokens):
            found = False
            while i < len(self.lines):
                s, e, ne = self.lines[i]
                line_text = text[s:e].rstrip("\r")
                check = line_text.lstrip("\t") if strip_tabs else line_text
                if check == delim:
                    all_segments.append((s, ne))
                    span_end = e
                    i += 1
                    found = True
                    break
                all_segments.append((s, ne))
                if idx == 0:
                    first_body.append((s, ne))
                span_end = e
                i += 1
            if not found:
                return None
        return all_segments, i - 1, span_end, first_body

    # -- per-kind payload handling -----------------------------------------

    def _stash_run_payload(
        self, node: UnifiedNode, seg_text: SegmentedText, heredoc_script: SegmentedText | None
    ) -> None:
        """Decide the RUN's form (shell / exec-shell / exec-array) and build
        the trees that need no shell parse. Any other RUN keeps the text
        (``_script_src``) and the region of it (``_script_region``) that
        enrich.build_unified_ast parses as shell."""
        payload = seg_text.clean
        flags_end = _RUN_FLAGS_RE.match(payload).end()
        elems = None if heredoc_script else _scan_exec_array(payload, flags_end)
        if elems is None:
            src = heredoc_script or seg_text
            node.props["run_form"] = "shell"
            node.props["_script_src"] = src
            node.props["_script_region"] = (0 if heredoc_script else flags_end, len(src.clean))
            return
        if len(elems) >= 3 and elems[0][0] in _SHELLS_FOR_EXEC and elems[1][0] == "-c":
            node.props["run_form"] = "exec-shell"
            _value, s, e = elems[2]
            if "\\" not in payload[s:e]:
                node.props["_script_src"] = seg_text
                node.props["_script_region"] = (s + 1, e - 1)
                return
            # escapes shift offsets inside the JSON string: keep it opaque
            script = UnifiedNode(NodeKind.SC_SCRIPT, seg_text.span(s + 1, e - 1))
            script.add_child(UnifiedNode(NodeKind.SC_UNPARSED, script.span))
            node.add_child(script)
            self.warnings.append(
                f"{self.path}:{node.span.start_line}: exec-form payload with escapes left unparsed"
            )
            return
        node.props["run_form"] = "exec-array"
        start, end = (elems[0][1], elems[-1][2]) if elems else (flags_end, flags_end)
        cmd = UnifiedNode(NodeKind.SC_SIMPLE_COMMAND, seg_text.span(start, end))
        cmd.props["exec_array"] = True
        for value, s, e in elems:
            word = UnifiedNode(NodeKind.SC_WORD, seg_text.span(s, e), literal=payload[s:e])
            word.props["text"] = value
            cmd.add_child(word)
        node.add_child(cmd)


def _is_leading_heredoc(payload: str) -> bool:
    stripped = payload.strip()
    m = _HEREDOC_TOKEN_RE.match(stripped)
    return bool(m and m.end() == len(stripped))


def parse_dockerfile(text: str, path: str = "<memory>") -> DockerfileAst:
    """Parse Dockerfile text into a DOCKER-FILE tree.

    The input must already be decoded text; the CLI layer handles bytes
    and emits a warning when invalid UTF-8 had to be replaced. Every node's
    span locates it in ``text``; repairs insert text at those offsets.
    """
    return FileParser(text, path).parse()
