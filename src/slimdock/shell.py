"""Parser for the POSIX-shell subset that appears in RUN payloads.

The supported subset is exactly what the smell rules need: simple commands,
AND/OR lists, sequences, pipelines, subshells, command substitution,
assignments, redirections and quoting. Variables are read (``$X`` and
``${X}`` stay in their word, which is then not bare), but not kept as
nodes: a rule reads them from word text. Compound statements
(if/for/while/until/case/brace groups) parse into a generic SC-COMPOUND
block whose inner statements are parsed normally. Anything outside the
subset degrades to SC-UNPARSED instead of failing: the smallest enclosing
statement for local constructs (heredocs, process substitution, arrays),
the whole script for pathological input (unterminated quotes or heredocs).

A heredoc body is data, never read as shell: at the newline that ends a
line, the lexer steps over the body of each ``<<``/``<<-`` of that line,
in order, to its delimiter line (``heredoc_body``). The Dockerfile parser
reads delimiter words and bodies with the same readers
(``heredoc_delimiter``, ``heredoc_body``). The statement that opens a
heredoc is SC-UNPARSED, and the rest of its line is read as usual.

AND/OR/SEQ lists are flattened (n-ary), so "a && b && c" is one SC-AND
with three children; a cleanup step is inserted at the end of one of them.

The lexer reads each token with one match of a compiled pattern: the
trivia before it (blanks, backslash-newline continuations and ``#``
comments), then a plain word, a redirection, an operator or the end of
the region. Only a word that holds a quote, ``$``, backquote or backslash,
or runs into ``<``/``>``, is scanned segment by segment. One quote-aware
matcher reads every bracket: ``$(...)``, ``$((...))`` (an opaque segment)
and ``${...}``. Outside the token lexer, one reader steps over a quoted
string or an escaped character (``skip_quoted``): the bracket matcher uses
it, and so does the Dockerfile parser's heredoc scan.

The parser reads every statement list (the script, a subshell, a
substitution, a block's body) with one loop, ``parse_statements``, which
stops only at the end of the region or at the stop tokens it is given.

Span guarantee: every parsed node carries a span into the payload text,
and sibling spans are in order and disjoint, with the text between them
(whitespace, operators, heredoc bodies, and backslash-newline
continuations, which the lexer reads as whitespace) in the gaps. Repairs
insert text at the ends of these spans.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from .model import NodeKind, SourceMap, SourceSpan, UnifiedNode

SpanBuilder = Callable[[int, int], SourceSpan]


class ShellUnterminated(Exception):
    """Unterminated quote/substitution/heredoc; degrades the whole script."""


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SPECIAL_PARAMS = "@*#?$!-0123456789"
_ASSIGN_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*\+?=")
# Trivia, then one token. A word with a quote, `$`, backquote or backslash,
# or that runs into `<`/`>`, matches no alternative and is read by
# ``_Lexer._word``. A digit run is a word unless a redirection operator
# follows it; `&>` takes no fd.
_TOKEN_RE = re.compile(
    r"""(?:[ \t\r]|\\\n|\#[^\n]*)*
    (?:
        (?P<word>[^ \t\r\n&|;()<>'"$`\\]+)(?=[ \t\r\n&|;()]|\Z)
      | (?P<redir>&>>?|(?P<fd>\d+)?(?:[<>]&(?:\d+|-)?|>>|>\||>|<<<|<<-|<<|<))
      | (?P<op>&&|\|\||;;|\|&|[;|()&\n])
      | (?P<eof>\Z)
    )?""",
    re.VERBOSE,
)
# redirection operators that take the next word as their target; a
# duplication with an attached target (`2>&1`, `<&-`) takes none
_TARGET_OPS = frozenset({">>", ">|", ">", "<<<", "<<-", "<<", "<", ">&", "<&", "&>", "&>>"})
# maximal runs of characters that stand for themselves, in a word and
# inside double quotes
_BARE_RUN_RE = re.compile(r"[^ \t\r\n&|;()<>'\"$`\\]+")
_DOUBLE_RUN_RE = re.compile(r'[^"\\$`]+')

_RESERVED_OPENERS = {"if", "while", "until", "for", "case", "{"}
_STRUCT_WORDS = {
    "if": ({"then", "elif", "else"}, "fi"),
    "while": ({"do"}, "done"),
    "until": ({"do"}, "done"),
    "for": ({"do"}, "done"),
    "{": (set(), "}"),
}


@dataclass
class Seg:
    """One piece of a word: literal text, a quoted run, a variable, etc."""

    kind: str  # bare | single | double | var | subst | arith
    start: int
    end: int
    logical: str
    inner: tuple[int, int] | None = None  # subst segments: interior range


@dataclass
class Tok:
    kind: str  # word | op | redir | eof
    start: int
    end: int
    value: str  # op text / redirection operator / word logical text
    segments: list[Seg] = field(default_factory=list)
    fd: str | None = None  # redirections only


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


class _Lexer:
    """Tokens of ``text[start:end]``.

    Each token is one ``_TOKEN_RE`` match from the current offset: the
    trivia (blanks, backslash-newline and ``#`` comments) and then a plain
    word, a redirection, an operator or the end of the region. A word the
    pattern does not take is scanned segment by segment by ``_word``.
    """

    def __init__(self, text: str, start: int, end: int):
        self.text = text
        self.i = start
        self.end = end

    def tokens(self) -> list[Tok]:
        text, end = self.text, self.end
        match = _TOKEN_RE.match
        toks: list[Tok] = []
        heredocs: list[int] = []  # the `<<`/`<<-` tokens of the current line
        while True:
            m = match(text, self.i, end)
            kind = m.lastgroup
            if kind is None:
                self.i = m.end()
                toks.append(self._word())
                continue
            start, self.i = m.span(kind)
            value = m.group(kind)
            if kind == "word":
                toks.append(Tok("word", start, self.i, value, [Seg("bare", start, self.i, value)]))
            elif kind == "redir":
                fd = m.group("fd")
                toks.append(Tok("redir", start, self.i, value[len(fd):] if fd else value, fd=fd))
                if toks[-1].value in ("<<", "<<-"):
                    heredocs.append(len(toks) - 1)
            else:
                toks.append(Tok(kind, start, self.i, value))
                if kind == "eof":
                    return toks
                if heredocs and value == "\n":
                    self._skip_bodies(toks, heredocs)
                    heredocs = []

    def _skip_bodies(self, toks: list[Tok], heredocs: list[int]) -> None:
        """Step over the bodies of the heredocs opened at ``toks[k]``, ``k``
        in ``heredocs``, in order, to the end of the last delimiter line."""
        pos = self.i
        for redir, delim in (toks[k : k + 2] for k in heredocs):
            body = None
            if delim.kind == "word":
                body = heredoc_body(self.text, pos, self.end, delim.value, redir.value == "<<-")
            if body is None:
                raise ShellUnterminated(f"unterminated heredoc at offset {redir.start}")
            self.i = body[1]
            pos = self.i + 1

    def _peek(self, offset: int = 0) -> str:
        j = self.i + offset
        return self.text[j] if j < self.end else ""

    # -- word scanning ----------------------------------------------------

    def _word(self) -> Tok:
        text, end = self.text, self.end
        start = bare_start = self.i
        segs: list[Seg] = []
        bare: list[str] = []  # logical text of the bare run being read
        while self.i < end:
            run = _BARE_RUN_RE.match(text, self.i, end)
            if run is not None:
                bare.append(run.group())
                self.i = run.end()
                if self.i >= end:
                    break
            ch = text[self.i]
            if ch == "\\":
                nxt = self._peek(1)
                if nxt == "\n":
                    self.i += 2  # continuation inside a word
                elif nxt == "":
                    bare.append("\\")
                    self.i += 1
                else:
                    bare.append(nxt)
                    self.i += 2
                continue
            if ch not in "'\"$`":  # a blank, newline or metacharacter ends it
                break
            if self.i > bare_start or bare:
                segs.append(Seg("bare", bare_start, self.i, "".join(bare)))
                bare = []
            if ch == "'":
                segs.append(self._single_quoted())
            elif ch == '"':
                segs.extend(self._double_quoted())
            elif ch == "$":
                segs.append(self._dollar())
            else:
                segs.append(self._backtick())
            bare_start = self.i
        if self.i > bare_start or bare:
            segs.append(Seg("bare", bare_start, self.i, "".join(bare)))
        logical = "".join(s.logical for s in segs)
        return Tok("word", start, self.i, logical, segments=segs)

    def _single_quoted(self) -> Seg:
        start = self.i
        self.i += 1
        j = self.text.find("'", self.i, self.end)
        if j < 0:
            raise ShellUnterminated(f"unterminated single quote at offset {start}")
        inner = self.text[self.i : j]
        self.i = j + 1
        return Seg("single", start, self.i, inner)

    def _double_quoted(self) -> list[Seg]:
        start = self.i
        self.i += 1
        segs: list[Seg] = []
        chunk_start = self.i
        logical: list[str] = []

        def flush() -> None:
            nonlocal chunk_start
            if self.i > chunk_start or logical:
                segs.append(Seg("double", chunk_start, self.i, "".join(logical)))
                logical.clear()
            chunk_start = self.i

        while True:
            run = _DOUBLE_RUN_RE.match(self.text, self.i, self.end)
            if run is not None:
                logical.append(run.group())
                self.i = run.end()
            if self.i >= self.end:
                raise ShellUnterminated(f"unterminated double quote at offset {start}")
            ch = self.text[self.i]
            if ch == '"':
                flush()
                self.i += 1
                if not segs:  # empty string: keep a segment, so `if""` is not bare
                    segs.append(Seg("double", start + 1, start + 1, ""))
                return segs
            if ch == "\\":
                nxt = self._peek(1)
                if nxt == "\n":
                    self.i += 2
                elif nxt in '"\\$`':
                    logical.append(nxt)
                    self.i += 2
                else:
                    logical.append(ch)
                    self.i += 1
            elif ch == "$":
                flush()
                segs.append(self._dollar())
                chunk_start = self.i
            elif ch == "`":
                flush()
                segs.append(self._backtick())
                chunk_start = self.i

    def _dollar(self) -> Seg:
        start = self.i
        self.i += 1
        if self._peek() == "(":
            inner_start = self.i + 1
            end = self.i = self._scan_matching(self.i, "(", ")")
            if self.text[inner_start] == "(":  # $(( ... )): arithmetic
                return Seg("arith", start, end, self.text[start:end])
            return Seg("subst", start, end, self.text[start:end], inner=(inner_start, end - 1))
        if self._peek() == "{":
            self.i = self._scan_matching(self.i, "{", "}")
        elif m := _NAME_RE.match(self.text, self.i, self.end):
            self.i = m.end()
        elif self._peek() and self._peek() in _SPECIAL_PARAMS:  # "" is in every string
            self.i += 1
        else:
            return Seg("bare", start, self.i, "$")
        return Seg("var", start, self.i, self.text[start : self.i])

    def _scan_matching(self, open_pos: int, open_ch: str, close_ch: str) -> int:
        """Find the offset just past the delimiter matching text[open_pos].

        Quote-aware (a closer inside quotes does not count) and handles
        nesting of the same delimiter pair and of $(...) inside ${...}.
        """
        depth = 0
        j = open_pos
        while j < self.end:
            ch = self.text[j]
            if ch in QUOTE_CHARS:
                k = skip_quoted(self.text, j, self.end)
                if k is None:
                    kind = "single" if ch == "'" else "double"
                    raise ShellUnterminated(f"unterminated {kind} quote at offset {j}")
                j = k
                continue
            if ch == open_ch:
                depth += 1
            elif ch == close_ch:
                depth -= 1
                if depth == 0:
                    return j + 1
            j += 1
        raise ShellUnterminated(f"unterminated '{open_ch}' at offset {open_pos}")

    def _backtick(self) -> Seg:
        start = self.i
        self.i += 1
        j = self.i
        while j < self.end:
            if self.text[j] == "\\":
                j += 2
                continue
            if self.text[j] == "`":
                self.i = j + 1
                return Seg("subst", start, self.i, self.text[start : self.i], inner=(start + 1, j))
            j += 1
        raise ShellUnterminated(f"unterminated backquote at offset {start}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(
        self,
        text: str,
        start: int,
        end: int,
        spans: SpanBuilder,
        warnings: list[str],
    ):
        self.text = text
        self.spans = spans
        self.warnings = warnings
        self.toks = _Lexer(text, start, end).tokens()
        self.i = 0

    # -- token plumbing ---------------------------------------------------

    def _peek(self) -> Tok:
        return self.toks[self.i]

    def _take(self) -> Tok:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def _at_stop(self, stop_ops: frozenset[str], stop_words: frozenset[str]) -> bool:
        tok = self._peek()
        if tok.kind == "eof":
            return True
        if tok.kind == "op" and tok.value in stop_ops:
            return True
        if tok.kind == "word" and tok.value in stop_words and _is_bare(tok):
            return True
        return False

    # -- statement sequences ----------------------------------------------

    def parse_statements(
        self, stop_ops: frozenset[str], stop_words: frozenset[str]
    ) -> list[UnifiedNode]:
        """The statements up to the end of the region, an op of
        ``stop_ops`` or a bare word of ``stop_words``, which is not taken."""
        stmts: list[UnifiedNode] = []
        while True:
            while self._peek().kind == "op" and self._peek().value in (";", "&", "\n", ";;"):
                self._take()
            if self._at_stop(stop_ops, stop_words):
                return stmts
            stmts.append(self.parse_and_or(stop_ops, stop_words))

    def parse_and_or(
        self, stop_ops: frozenset[str], stop_words: frozenset[str]
    ) -> UnifiedNode:
        """A pipeline, or an AND/OR list of them: each run of one operator
        is one n-ary node, and a list is read left to right, so
        ``a && b || c`` is ``OR(AND(a, b), c)``."""
        parts = [self.parse_pipeline(stop_ops, stop_words)]
        kind = None  # of the operator that joins ``parts``
        while self._peek().kind == "op" and self._peek().value in ("&&", "||"):
            op = self._take()
            while self._peek().kind == "op" and self._peek().value == "\n":
                self._take()
            if self._at_stop(stop_ops, stop_words):
                self.warnings.append(f"dangling {op.value!r} in shell payload")
                break
            op_kind = NodeKind.SC_AND if op.value == "&&" else NodeKind.SC_OR
            if kind is not op_kind and len(parts) > 1:
                parts = [list_node(kind, parts)]
            kind = op_kind
            parts.append(self.parse_pipeline(stop_ops, stop_words))
        return parts[0] if len(parts) == 1 else list_node(kind, parts)

    def parse_pipeline(
        self, stop_ops: frozenset[str], stop_words: frozenset[str]
    ) -> UnifiedNode:
        """A command, or a pipeline of them; ``a |`` is a pipeline of one."""
        parts = [self.parse_command()]
        if not (self._peek().kind == "op" and self._peek().value in ("|", "|&")):
            return parts[0]
        while self._peek().kind == "op" and self._peek().value in ("|", "|&"):
            self._take()
            while self._peek().kind == "op" and self._peek().value == "\n":
                self._take()
            if self._at_stop(stop_ops, stop_words):
                self.warnings.append("dangling '|' in shell payload")
                break
            parts.append(self.parse_command())
        return list_node(NodeKind.SC_PIPELINE, parts)

    # -- commands -----------------------------------------------------------

    def parse_command(self) -> UnifiedNode:
        """One command; the caller has checked that no stop token is next."""
        tok = self._peek()
        if tok.kind == "op" and tok.value == "(":
            return self._parse_subshell()
        if tok.kind == "word" and tok.value in _RESERVED_OPENERS and _is_bare(tok):
            if tok.value == "case":
                return self._parse_case()
            return self._parse_block(tok.value)
        if self._looks_like_function():
            return self._degrade_function()
        return self._parse_simple()

    def _parse_subshell(self) -> UnifiedNode:
        open_tok = self._take()
        stmts = self.parse_statements(frozenset({")"}), frozenset())
        close = self._peek()
        if close.kind == "op" and close.value == ")":
            self._take()
            end = close.end
        else:
            self.warnings.append("unterminated subshell")
            end = close.start
        span = self.spans(open_tok.start, end)
        return UnifiedNode(NodeKind.SC_SUBSHELL, span, children=_sequence(stmts))

    def _parse_block(self, opener: str) -> UnifiedNode:
        """A block from its opener through its closer, or to the end of the
        region. A statement list in it ends at its closer, a middle word, or
        a stop word of another block, which is skipped with a warning."""
        middles, closer = _STRUCT_WORDS[opener]
        open_tok = self._take()
        children = self._for_header() if opener == "for" else []
        stop_words = frozenset(middles | {closer, "do", "then"})
        while True:
            children.extend(self.parse_statements(frozenset(), stop_words))
            tok = self._take()
            if tok.kind == "eof":
                self.warnings.append(f"unterminated {opener!r} block")
                break
            if tok.value == closer:
                break
            if tok.value not in middles:
                self.warnings.append(f"skipping {tok.value!r} in {opener!r} block")
        end = self.toks[self.i - 1].end  # the closer, or the last token
        span = self.spans(open_tok.start, end)
        return UnifiedNode(NodeKind.SC_COMPOUND, span, children=tuple(children))

    def _for_header(self) -> list[UnifiedNode]:
        """The words of a ``for`` header, up to ``;``, newline or ``do``, as
        one SC-UNPARSED node (none when the header is empty)."""
        first = self.i
        while not self._at_stop(frozenset({";", "\n"}), frozenset({"do"})):
            self._take()
        header = self.toks[first : self.i]
        if self._peek().kind == "eof":
            self.warnings.append("unterminated 'for' header")
        elif self._peek().kind == "op":
            self._take()
        if not header:
            return []
        return [UnifiedNode(NodeKind.SC_UNPARSED, self.spans(header[0].start, header[-1].end))]

    def _parse_case(self) -> UnifiedNode:
        """A ``case`` through its ``esac``, nested ones counted, with the
        tokens between them as one SC-UNPARSED node."""
        open_tok = self._take()
        first = self.i
        depth = 1
        while depth:
            tok = self._take()
            if tok.kind == "eof":
                raise ShellUnterminated(f"unterminated case statement at offset {open_tok.start}")
            if tok.kind == "word" and _is_bare(tok) and tok.value in ("case", "esac"):
                depth += 1 if tok.value == "case" else -1
        inner = self.toks[first : self.i - 1]
        children = ()
        if inner:
            children = (UnifiedNode(NodeKind.SC_UNPARSED, self.spans(inner[0].start, inner[-1].end)),)
        span = self.spans(open_tok.start, tok.end)
        return UnifiedNode(NodeKind.SC_COMPOUND, span, children=children)

    def _looks_like_function(self) -> bool:
        """Whether a word, ``(`` and ``)`` come next: ``name()``."""
        after = [(tok.kind, tok.value) for tok in self.toks[self.i + 1 : self.i + 3]]
        return self._peek().kind == "word" and after == [("op", "("), ("op", ")")]

    def _degrade_function(self) -> UnifiedNode:
        """Whole function definitions are out of the subset: one SC-UNPARSED."""
        start_tok = self._take()  # name
        self._take()  # (
        self._take()  # )
        end = self.toks[self.i - 1].end
        depth = 0
        seen_brace = False
        while True:
            tok = self._peek()
            if tok.kind == "eof":
                if seen_brace:
                    self.warnings.append("unterminated function body")
                break
            if tok.kind == "word" and _is_bare(tok) and tok.value == "{":
                depth += 1
                seen_brace = True
            elif tok.kind == "word" and _is_bare(tok) and tok.value == "}":
                depth -= 1
                if depth <= 0:
                    end = self._take().end
                    break
            elif not seen_brace and tok.kind == "op" and tok.value in (";", "\n"):
                break
            end = self._take().end
        return UnifiedNode(NodeKind.SC_UNPARSED, self.spans(start_tok.start, end))

    # -- simple commands ----------------------------------------------------

    def _parse_simple(self) -> UnifiedNode:
        first_index = self.i
        children: list[UnifiedNode] = []
        seen_word = False
        while True:
            tok = self._peek()
            if tok.kind == "eof":
                break
            if tok.kind == "op":
                if tok.value == "(" and children:
                    # array assignment or stray group: outside the subset
                    return self._degrade_statement(first_index)
                break
            if tok.kind == "word":
                self._take()
                if not seen_word and _ASSIGN_RE.match(tok.value) and tok.segments and tok.segments[0].kind == "bare":
                    children.append(self._assignment_node(tok))
                else:
                    seen_word = True
                    children.append(self._word_node(tok))
            else:  # a redirection
                if tok.value in ("<<", "<<-"):  # the lexer stepped over the body
                    return self._degrade_statement(first_index, "heredoc statement left unparsed")
                after = self.toks[self.i + 1]  # the eof token at least
                if after.kind == "op" and after.value == "(":
                    # process substitution: outside the subset
                    return self._degrade_statement(first_index)
                self._take()
                children.append(self._redirection_node(tok))
        if not children:
            # no progress possible: consume one token as unparsed
            tok = self._take()
            self.warnings.append(f"unparsed token {tok.value!r}")
            return UnifiedNode(NodeKind.SC_UNPARSED, self.spans(tok.start, tok.end))
        return list_node(NodeKind.SC_SIMPLE_COMMAND, children)

    def _assignment_node(self, tok: Tok) -> UnifiedNode:
        name = tok.value.split("=", 1)[0].rstrip("+")
        span = self.spans(tok.start, tok.end)
        literal = self.text[tok.start : tok.end]
        return UnifiedNode(NodeKind.SC_ASSIGNMENT, span, literal, self._word_parts(tok), {"name": name})

    def _word_node(self, tok: Tok) -> UnifiedNode:
        literal = self.text[tok.start : tok.end]
        # "$" and "`" are what a subst segment starts with
        parts = self._word_parts(tok) if "$" in literal or "`" in literal else ()
        text = literal if tok.value == literal else tok.value  # one string if plain
        span = self.spans(tok.start, tok.end)
        return UnifiedNode(NodeKind.SC_WORD, span, literal, parts, {"text": text})

    def _word_parts(self, tok: Tok) -> tuple[UnifiedNode, ...]:
        """The command substitutions of a word, its children."""
        return tuple([self._substitution_node(seg) for seg in tok.segments if seg.kind == "subst"])

    def _substitution_node(self, seg: Seg) -> UnifiedNode:
        inner_start, inner_end = seg.inner
        try:
            sub = _Parser(self.text, inner_start, inner_end, self.spans, self.warnings)
            stmts = sub.parse_statements(frozenset(), frozenset())
        except ShellUnterminated as exc:
            self.warnings.append(f"substitution parse degraded: {exc}")
            stmts = [UnifiedNode(NodeKind.SC_UNPARSED, self.spans(inner_start, inner_end))]
        span = self.spans(seg.start, seg.end)
        return UnifiedNode(NodeKind.SC_COMMAND_SUBSTITUTION, span, children=_sequence(stmts))

    def _redirection_node(self, tok: Tok) -> UnifiedNode:
        """The redirection ``tok``, through its target word if it takes one."""
        target: tuple[UnifiedNode, ...] = ()
        if tok.value in _TARGET_OPS:
            nxt = self._peek()
            if nxt.kind == "word":
                self._take()
                target = (self._word_node(nxt),)
            else:
                self.warnings.append(f"redirection {tok.value!r} without target")
        span = self.spans(tok.start, nxt.end if target else tok.end)
        literal = self.text[tok.start : tok.end]
        return UnifiedNode(NodeKind.SC_REDIRECTION, span, literal, target, {"op": tok.value})

    # -- degradation ---------------------------------------------------------

    def _statement_end_index(self, from_index: int) -> int:
        """Token index just past the current statement, paren-aware; at
        most that of the eof token, which ends every token list."""
        depth = 0
        j = from_index
        while True:
            tok = self.toks[j]
            if tok.kind == "eof":
                return j
            if tok.kind == "op":
                if tok.value == "(":
                    depth += 1
                elif tok.value == ")":
                    if depth == 0:
                        return j
                    depth -= 1
                elif depth == 0 and tok.value in ("&&", "||", ";", ";;", "&", "|", "|&", "\n"):
                    return j
            j += 1

    def _degrade_statement(
        self, first_index: int, warning: str = "statement outside supported shell subset"
    ) -> UnifiedNode:
        # the statement's first token, a word or redirection, is in it
        end_index = self._statement_end_index(first_index)
        start = self.toks[first_index].start
        end = self.toks[end_index - 1].end
        self.i = end_index
        self.warnings.append(warning)
        return UnifiedNode(NodeKind.SC_UNPARSED, self.spans(start, end))


def _is_bare(tok: Tok) -> bool:
    return len(tok.segments) == 1 and tok.segments[0].kind == "bare"


def list_node(kind: NodeKind, parts: list[UnifiedNode]) -> UnifiedNode:
    """A node of ``kind`` over ``parts``, from the first one's start to the
    last one's end: a list, pipeline or simple command."""
    return UnifiedNode(kind, parts[0].span.through(parts[-1].span), children=tuple(parts))


def _sequence(stmts: list[UnifiedNode]) -> tuple[UnifiedNode, ...]:
    """A statement list as children: one statement alone, several under SC-SEQ."""
    return tuple(stmts) if len(stmts) < 2 else (list_node(NodeKind.SC_SEQ, stmts),)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def parse_shell(
    text: str,
    span_builder: SpanBuilder | None = None,
    warnings: list[str] | None = None,
    region: tuple[int, int] | None = None,
) -> UnifiedNode:
    """Parse a shell payload into an SC-SCRIPT tree.

    Never raises on bad input: constructs outside the subset become
    SC-UNPARSED statements, and pathological input (unterminated quote or
    substitution) turns the whole script into a single SC-UNPARSED node
    with a warning appended to ``warnings``.

    ``span_builder`` converts payload offsets to SourceSpans; the default
    builds spans in the payload's own coordinates. ``region`` restricts
    parsing to a slice of ``text`` (offsets still refer to ``text``).
    """
    if warnings is None:
        warnings = []
    if span_builder is None:
        span_builder = SourceMap(text).span
    start, end = region if region is not None else (0, len(text))
    span = span_builder(start, end)
    children: tuple[UnifiedNode, ...] = ()
    if text[start:end].strip():
        try:
            parser = _Parser(text, start, end, span_builder, warnings)
            children = _sequence(parser.parse_statements(frozenset(), frozenset()))
        except ShellUnterminated as exc:
            warnings.append(f"shell parse degraded to opaque text: {exc}")
            children = (UnifiedNode(NodeKind.SC_UNPARSED, span),)
    return UnifiedNode(NodeKind.SC_SCRIPT, span, children=children)


QUOTE_CHARS = "\\'\""


def skip_quoted(text: str, j: int, end: int) -> int | None:
    """The offset past the quoting that starts at ``text[j]``, one of
    ``QUOTE_CHARS``, in ``text[:end]``: a backslash and the character it
    escapes, or a single- or double-quoted string (in which a backslash
    escapes the next character). None when the string is unterminated."""
    ch = text[j]
    if ch == "\\":
        return j + 2
    if ch == "'":
        k = text.find("'", j + 1, end)
        return None if k < 0 else k + 1
    j += 1
    while j < end and text[j] != '"':
        j += 2 if text[j] == "\\" else 1
    return j + 1 if j < end else None


def heredoc_body(
    text: str, pos: int, end: int, delim: str, strip_tabs: bool
) -> tuple[int, int] | None:
    """The start and end of the first line of ``text[pos:end]``, from
    ``pos``, that reads as the heredoc delimiter ``delim``, or None. A line
    reads as it once its trailing carriage returns are stripped, and, with
    ``strip_tabs`` (``<<-``), its leading tabs. The lines before it are the
    body."""
    while True:
        nl = text.find("\n", pos, end)
        line_end = end if nl < 0 else nl
        line = text[pos:line_end].rstrip("\r")
        if (line.lstrip("\t") if strip_tabs else line) == delim:
            return pos, line_end
        if nl < 0:
            return None
        pos = nl + 1


def word_text(node: UnifiedNode) -> str:
    """Logical (unquoted, unescaped) text of a word-like node."""
    return node.prop("text", node.literal or "")


# a `*`, `?` or `[` that no backslash escapes
_GLOB_CHAR_RE = re.compile(r"(?<!\\)(?:\\\\)*[*?[]")
_QUOTING_RE = re.compile(r"['\"\\$`]")


def read_word(source: str) -> tuple[str, bool]:
    """The logical text of ``source``, the source text of one shell word,
    and whether the shell expands it as a glob: whether a ``*``, ``?`` or
    ``[`` of it is outside quotes and not escaped."""
    if not _QUOTING_RE.search(source):  # one bare run: the text is the source
        return source, bool(_GLOB_CHAR_RE.search(source))
    tok = _Lexer(source, 0, len(source))._word()
    glob = any(
        seg.kind == "bare" and _GLOB_CHAR_RE.search(source, seg.start, seg.end)
        for seg in tok.segments
    )
    return tok.value, glob


def heredoc_delimiter(text: str, pos: int) -> tuple[str, int] | None:
    """The delimiter that the word at ``text[pos]``, right after a ``<<``
    or ``<<-``, names as the lexer reads it (``<<"E"OF`` names ``EOF``),
    and the offset past the word; None when no word starts there or a
    quote in it is unterminated."""
    try:
        tok = _Lexer(text, pos, len(text))._word()
    except ShellUnterminated:
        return None
    return (tok.value, tok.end) if tok.end > pos else None


_VAR_REF_RE = re.compile(r"^\$(?:\{([A-Za-z_][A-Za-z0-9_]*)[^}]*\}|([A-Za-z_][A-Za-z0-9_]*))")


def variable_reference(text: str) -> str | None:
    """Name of the variable when ``text`` is a pure variable reference.

    Accepts ``$V``, ``${V}``, and the same followed only by a ``/``-rooted
    suffix (e.g. ``$V/build`` or ``$V/*``), which is how cleanup commands
    usually address a captured directory.
    """
    m = _VAR_REF_RE.match(text)
    if not m:
        return None
    rest = text[m.end() :]
    if rest and not rest.startswith("/"):
        return None
    return m.group(1) or m.group(2)


def contains_variable(text: str) -> bool:
    """True when the word text still contains an unresolved expansion."""
    return "$" in text or "`" in text
