"""Dockerfile parser producing DOCKER-* nodes.

Instructions are matched case-insensitively (the original casing survives
through spans). Backslash-newline continuations, full-line comments inside
a continued instruction, and the ``# escape=`` directive are all handled
here: the payload handed to the shell parser is the logical instruction
text, while a segment map keeps every shell node's span in file
coordinates so the whole tree shares one coordinate system.

A RUN or COPY that opens heredocs extends through their bodies, each read
to its delimiter line by ``shell.heredoc_body``, the delimiter being the
word after ``<<`` as the shell lexer reads it (``shell.heredoc_delimiter``).
As BuildKit reads the command line, a ``<<`` opens a heredoc only where it
starts a blank-separated word, past optional fd digits (``2<<EOF``), and
outside quotes, which ``shell.skip_quoted`` steps over: ``$((1<<2))``
opens none. A leading heredoc (``RUN <<EOF``, after any ``--mount``-style
flags) is the RUN's script; any other RUN hands the shell parser its
command line, past the flags, and the bodies, which the shell lexer steps
over as data. ``<<\\EOF`` opens a heredoc as ``<<'EOF'`` does; a
here-string (``<<<``) opens none.

Each RUN's form (shell, exec ``sh -c`` or exec array) is decided here, and
the trees that need no shell parse are built here: an exec array's command,
and an opaque script for an ``sh -c`` string with a JSON escape other than
`\\"`, `\\\\` and `\\/`, each of which stands for the character it escapes.
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

from .model import NodeKind, SourceMap, SourceSpan, SpanError, UnifiedNode
from .shell import QUOTE_CHARS, heredoc_body, heredoc_delimiter, skip_quoted

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
_RUN_FLAGS_RE = re.compile(r"\s*(?:--\S+(?:\s+|\Z))*")  # a flag ends at blanks or the end
# the operator of a heredoc; ``shell.heredoc_delimiter`` reads the word after it
_HEREDOC_OP_RE = re.compile(r"<<-?")
_JSON_ESCAPE_RE = re.compile(r"\\.", re.S)


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

    def to_payload(self, offset: int) -> int:
        """The payload offset of source ``offset``, which lies in a segment
        or at its end."""
        idx = bisect.bisect_right(self.segments, offset, key=itemgetter(0)) - 1
        return self._cum[idx] + (offset - self.segments[idx][0])

    def span(self, start: int, end: int) -> SourceSpan:
        """The source span of payload ``[start, end)``; SpanError if it
        ends past the source. The segment of its last character is found
        by walking on from the start's segment, which a span within one
        line does in zero steps. The payload ends where its last segment does."""
        cum, segments = self._cum, self.segments
        idx = bisect.bisect_right(cum, start) - 1
        if idx == len(segments):  # at the end of the payload
            s = e = segments[-1][1] if segments else self.anchor
        else:
            s = e = segments[idx][0] + (start - cum[idx])
            if end > start:
                while idx + 1 < len(segments) and cum[idx + 1] < end:
                    idx += 1
                e = segments[idx][0] + (end - cum[idx])
        if e > len(self.source_map.text):
            raise SpanError(f"span [{s}, {e}) out of range 0..{len(self.source_map.text)}")
        return SourceSpan(s, e, self.source_map)


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
    """Heredoc delimiters in a payload, quote-aware; (name, strip_tabs). A
    ``<<`` opens a heredoc only where it starts a word (``_starts_word``)."""
    out: list[tuple[str, bool]] = []
    i = 0
    n = len(payload)
    while i < n:
        ch = payload[i]
        if ch in QUOTE_CHARS:
            i = skip_quoted(payload, i, n) or n
        elif ch == "<" and payload.startswith("<<<", i):  # a here-string
            i += 3
        elif ch == "<" and payload.startswith("<<", i) and _starts_word(payload, i):
            op = _HEREDOC_OP_RE.match(payload, i)
            i = op.end()
            delim = heredoc_delimiter(payload, i)
            if delim:
                out.append((delim[0], op.group() == "<<-"))
                i = delim[1]
        else:
            i += 1
    return out


def _starts_word(payload: str, i: int) -> bool:
    """Whether only fd digits lie between ``payload[i]`` and the start of
    its blank-separated word."""
    while i and payload[i - 1] in "0123456789":
        i -= 1
    return not i or payload[i - 1] in " \t"


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
        # (start, end-without-newline, end-with-newline) per line
        starts = self.sm.line_starts
        self.lines = [(s, e - 1, e) for s, e in zip(starts, starts[1:])]
        if starts[-1] < len(text) or not text:
            self.lines.append((starts[-1], len(text), len(text)))
        self.escape = _scan_directives(text, self.lines, self.warnings)

    def parse(self) -> DockerfileAst:
        text = self.text
        children: list[UnifiedNode] = []
        i = 0
        while i < len(self.lines):
            line = self.lines[i]
            if _is_blank(text, line):
                i += 1
                continue
            if _is_comment(text, line):
                raw = text[line[0] : line[1]]
                cstart = line[0] + (len(raw) - len(raw.lstrip(" \t\ufeff")))
                span = self.sm.span(cstart, line[1])
                children.append(UnifiedNode(NodeKind.DOCKER_COMMENT, span, text[cstart : line[1]]))
                i += 1
                continue
            node, i = self._parse_instruction(i)
            children.append(node)
        if all(node.kind is NodeKind.DOCKER_COMMENT for node in children):
            self.warnings.append(f"{self.path}: no instructions found")
        root = UnifiedNode(NodeKind.DOCKER_FILE, self.sm.span(0, len(text)), children=tuple(children))
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
        heredoc_script: SegmentedText | None = None  # a leading heredoc's body
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
                            # command line plus bodies: shell parser sees it all
                            seg_text = SegmentedText(
                                text, segments + body_segments, self.sm, anchor=content_start
                            )

        span = self.sm.span(kw_start, span_end)
        if kind is not NodeKind.DOCKER_RUN:
            return UnifiedNode(kind, span), last_i + 1
        children, props = self._run_payload(span, seg_text, heredoc_script)
        return UnifiedNode(kind, span, None, children, props), last_i + 1

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
        """The bodies of the heredocs ``tokens``, in order, from the line
        after ``last_i`` (``shell.heredoc_body``), or None if one is
        unterminated: (the range from the newline that ends the command
        line to the end of the last delimiter line, where the RUN ends, that
        line's index and end, the first body without its delimiter line)."""
        _, cmd_end, pos = self.lines[last_i]
        first_body = None
        for delim, strip_tabs in tokens:
            body = heredoc_body(self.text, pos, len(self.text), delim, strip_tabs)
            if body is None:
                return None
            first_body = first_body or [(pos, body[0])]
            pos = min(body[1] + 1, len(self.text))
        last_i = self.sm.position(body[1])[0] - 1
        return [(cmd_end, body[1])], last_i, body[1], first_body

    # -- per-kind payload handling -----------------------------------------

    def _run_payload(
        self, span: SourceSpan, seg_text: SegmentedText, heredoc_script: SegmentedText | None
    ) -> tuple[tuple[UnifiedNode, ...], dict[str, Any]]:
        """The children and props of the RUN at ``span``: its form (shell,
        exec-shell or exec-array), and the trees that need no shell parse.
        Any other RUN keeps the text (``_script_src``) and the region of it
        (``_script_region``) that enrich.build_unified_ast parses as shell:
        all of a leading heredoc's body, or else the text past the flags. A
        RUN that opens heredocs outside quotes is never an exec array."""
        payload = seg_text.clean
        flags_end = _RUN_FLAGS_RE.match(payload).end()
        elems = None if heredoc_script else _scan_exec_array(payload, flags_end)
        if elems is None:
            src = heredoc_script or seg_text
            region = (0 if heredoc_script else flags_end, len(src.clean))
            return (), {"run_form": "shell", "_script_src": src, "_script_region": region}
        if len(elems) >= 3 and elems[0][0] in _SHELLS_FOR_EXEC and elems[1][0] == "-c":
            value, s, e = elems[2]
            src = self._unescaped(seg_text, s + 1, e - 1, value) if "\\" in payload[s:e] else seg_text
            if src is not None:
                region = (s + 1, e - 1) if src is seg_text else (0, len(src.clean))
                return (), {"run_form": "exec-shell", "_script_src": src, "_script_region": region}
            # other escapes stand for other characters: keep it opaque
            where = seg_text.span(s + 1, e - 1)
            opaque = (UnifiedNode(NodeKind.SC_UNPARSED, where),)
            script = UnifiedNode(NodeKind.SC_SCRIPT, where, children=opaque)
            self.warnings.append(
                f"{self.path}:{span.start_line}: exec-form payload with escapes left unparsed"
            )
            return (script,), {"run_form": "exec-shell"}
        start, end = (elems[0][1], elems[-1][2]) if elems else (flags_end, flags_end)
        words = tuple([
            UnifiedNode(NodeKind.SC_WORD, seg_text.span(s, e), payload[s:e], props={"text": value})
            for value, s, e in elems
        ])
        where = seg_text.span(start, end)
        cmd = UnifiedNode(NodeKind.SC_SIMPLE_COMMAND, where, None, words, {"exec_array": True})
        return (cmd,), {"run_form": "exec-array"}

    def _unescaped(
        self, seg_text: SegmentedText, start: int, end: int, value: str
    ) -> SegmentedText | None:
        """``value``, the JSON string ``seg_text.clean[start:end]`` decoded,
        as its source less the backslash of each escape; None unless that
        reads as ``value`` (each escape is `\\"`, `\\\\` or `\\/`) and the
        string lies in one source segment."""
        where = seg_text.span(start, end)
        delta = where.start - start
        cuts = [m.start() + delta for m in _JSON_ESCAPE_RE.finditer(seg_text.clean, start, end)]
        pieces = list(zip([where.start] + [k + 1 for k in cuts], cuts + [where.end]))
        src = SegmentedText(self.text, pieces, self.sm, where.start)
        return src if src.clean == value and where.end - where.start == end - start else None


def _is_leading_heredoc(payload: str) -> bool:
    """Whether the RUN's command, past its flags, is one heredoc alone."""
    stripped = payload[_RUN_FLAGS_RE.match(payload).end() :].strip()
    op = _HEREDOC_OP_RE.match(stripped)
    delim = op and heredoc_delimiter(stripped, op.end())
    return bool(delim and delim[1] == len(stripped))


def parse_dockerfile(text: str, path: str = "<memory>") -> DockerfileAst:
    """Parse Dockerfile text into a DOCKER-FILE tree.

    The input must already be decoded text; the CLI layer handles bytes
    and emits a warning when invalid UTF-8 had to be replaced. Every node's
    span locates it in ``text``; repairs insert text at those offsets.
    """
    return FileParser(text, path).parse()
