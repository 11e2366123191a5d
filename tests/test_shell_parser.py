"""Shell parser: structure, degradation policy, and byte-exact spans."""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from slimdock.model import NodeKind, span_text
from slimdock.shell import (
    ShellUnterminated,
    _Lexer,
    contains_variable,
    parse_shell,
    variable_reference,
    word_text,
)


def parse(text):
    warnings = []
    root = parse_shell(text, warnings=warnings)
    return root, warnings


def kinds(node):
    return [c.kind for c in node.children]


def reprint(root, src):
    # for an unmodified tree, spans alone must reconstruct the source
    return span_text(src, root.span)


class TestBasicShapes:
    def test_single_command_three_words(self):
        root, _ = parse("npm cache clean")
        (cmd,) = root.children
        assert cmd.kind is NodeKind.SC_SIMPLE_COMMAND
        words = [c for c in cmd.children if c.kind is NodeKind.SC_WORD]
        assert [word_text(w) for w in words] == ["npm", "cache", "clean"]

    def test_and_list(self):
        root, _ = parse("apt-get update && apt-get install -y wget")
        (node,) = root.children
        assert node.kind is NodeKind.SC_AND
        assert kinds(node) == [NodeKind.SC_SIMPLE_COMMAND] * 2

    def test_assignment_with_substitution(self):
        root, _ = parse("ACTUAL_URL=$(curl -Ls -o /dev/null $URL)")
        (cmd,) = root.children
        (assign,) = cmd.children
        assert assign.kind is NodeKind.SC_ASSIGNMENT
        assert assign.prop("name") == "ACTUAL_URL"
        assert assign.children[0].kind is NodeKind.SC_COMMAND_SUBSTITUTION

    def test_compound_contains_nested_statements(self):
        root, _ = parse("if [ -f x ]; then rm x; fi")
        (compound,) = root.children
        assert compound.kind is NodeKind.SC_COMPOUND
        inner = [c.kind for c in compound.children]
        assert inner == [NodeKind.SC_SIMPLE_COMMAND, NodeKind.SC_SIMPLE_COMMAND]

    def test_and_list_is_flat_and_ordered(self):
        root, _ = parse("a && b && c")
        (node,) = root.children
        assert node.kind is NodeKind.SC_AND
        names = [word_text(c.children[0]) for c in node.children]
        assert names == ["a", "b", "c"]

    def test_mixed_and_or_nests_left(self):
        root, _ = parse("a && b || c")
        (node,) = root.children
        assert node.kind is NodeKind.SC_OR
        assert node.children[0].kind is NodeKind.SC_AND

    def test_pipeline(self):
        root, _ = parse("cat /etc/passwd | grep root | wc -l")
        (pipe,) = root.children
        assert pipe.kind is NodeKind.SC_PIPELINE
        assert len(pipe.children) == 3

    def test_sequence_order_matches_text(self):
        root, _ = parse("one; two\nthree & four")
        (seq,) = root.children
        assert seq.kind is NodeKind.SC_SEQ
        names = [word_text(c.children[0]) for c in seq.children]
        assert names == ["one", "two", "three", "four"]

    def test_subshell(self):
        root, _ = parse("(cd /tmp && make) && echo ok")
        (node,) = root.children
        assert node.children[0].kind is NodeKind.SC_SUBSHELL

    def test_redirection_with_target(self):
        root, _ = parse("echo 'gem: --no-document' >> /etc/gemrc")
        (cmd,) = root.children
        redir = cmd.children[-1]
        assert redir.kind is NodeKind.SC_REDIRECTION
        assert redir.prop("op") == ">>"
        assert word_text(redir.children[0]) == "/etc/gemrc"

    def test_fd_redirection_has_no_target_word(self):
        root, _ = parse("make install > /dev/null 2>&1")
        (cmd,) = root.children
        redirs = [c for c in cmd.children if c.kind is NodeKind.SC_REDIRECTION]
        assert len(redirs) == 2
        assert redirs[1].children == ()


class TestWords:
    def test_logical_text_strips_quotes(self):
        root, _ = parse("rm 'a file' \"b$X\" c\\ d")
        words = root.children[0].children
        assert word_text(words[1]) == "a file"
        assert word_text(words[2]) == "b$X"
        assert word_text(words[3]) == "c d"

    def test_variable_children(self):
        root, _ = parse("cp $SRC ${DST}/x")
        words = root.children[0].children
        assert [word_text(w) for w in words] == ["cp", "$SRC", "${DST}/x"]
        assert [w.children for w in words] == [(), (), ()]

    @pytest.mark.parametrize("text", ["echo $", "echo a$"])
    def test_dollar_at_end_is_bare(self, text):
        # the lexer must not read past the end of the payload for a name
        root, warnings = parse(text)
        word = root.children[0].children[1]
        assert (word_text(word), word.children, warnings) == (text[5:], (), [])
        assert word.span.end == len(text)

    def test_dollar_at_end_of_file(self):
        from slimdock.runner import analyze_text

        _, report = analyze_text("FROM d\nRUN echo $", "<test>")
        assert report.status == "ok"

    def test_backtick_normalized_to_substitution(self):
        root, _ = parse("V=`mktemp -d`")
        assign = root.children[0].children[0]
        sub = assign.children[0]
        assert sub.kind is NodeKind.SC_COMMAND_SUBSTITUTION
        assert sub.children[0].kind is NodeKind.SC_SIMPLE_COMMAND

    def test_arithmetic_stays_opaque(self):
        root, _ = parse("echo $((1 + 2))")
        words = root.children[0].children
        assert words[1].children == ()  # no substitution child


class TestWordLexing:
    """Words that mix bare runs with quoting, expansions and escapes lex to
    one token with the shell's logical text, and reprint byte-identically."""

    @pytest.mark.parametrize(
        "src, logical, segment_kinds",
        [
            ("a'b c'd", "ab cd", ["bare", "single", "bare"]),
            ('pre"x $V y"post', "prex $V ypost", ["bare", "double", "var", "double", "bare"]),
            ("x$V.tgz", "x$V.tgz", ["bare", "var", "bare"]),
            ("${V}/bin", "${V}/bin", ["var", "bare"]),
            ("a$(echo b)c", "a$(echo b)c", ["bare", "subst", "bare"]),
            ("a`date`b", "a`date`b", ["bare", "subst", "bare"]),
            ("a\\ b\\$c", "a b$c", ["bare"]),
            ("ab\\\ncd", "abcd", ["bare"]),
            ('"a\\"b\\\\c\\x"', 'a"b\\c\\x', ["double"]),
            ("'it'\\''s'", "it's", ["single", "bare", "single"]),
            ("x\\", "x\\", ["bare"]),
            ("--opt=\"$HOME/a b\"'c'd", "--opt=$HOME/a bcd", ["bare", "var", "double", "single", "bare"]),
            ('p"q\\\nr"s', "pqrs", ["bare", "double", "bare"]),
            ('""', "", ["double"]),  # an empty string is one segment
            ("a`b\\`c`d", "a`b\\`c`d", ["bare", "subst", "bare"]),  # an escaped backquote inside backquotes
        ],
    )
    def test_mixed_word(self, src, logical, segment_kinds):
        from slimdock.shell import _Lexer

        word, eof = _Lexer(src, 0, len(src)).tokens()
        assert (word.kind, word.start, word.end, eof.kind) == ("word", 0, len(src), "eof")
        assert word.value == logical
        assert [seg.kind for seg in word.segments] == segment_kinds
        root, warnings = parse(src)
        assert not warnings
        (node,) = root.children[0].children
        assert word_text(node) == logical
        assert (node.span.start, node.span.end, node.literal) == (0, len(src), src)


def lex(text, region=None):
    start, end = region or (0, len(text))
    return [(t.kind, t.start, t.end, t.value, t.fd) for t in _Lexer(text, start, end).tokens()]


class TestLexer:
    """The token streams of operator, redirection and trivia edge cases:
    (kind, start, end, value, fd) per token."""

    @pytest.mark.parametrize(
        "text, region, tokens",
        [
            ('make 2>&1', None, [('word', 0, 4, 'make', None), ('redir', 5, 9, '>&1', '2'), ('eof', 9, 9, '', None)]),
            ('exec >&-', None, [('word', 0, 4, 'exec', None), ('redir', 5, 8, '>&-', None), ('eof', 8, 8, '', None)]),
            ('cat <&3', None, [('word', 0, 3, 'cat', None), ('redir', 4, 7, '<&3', None), ('eof', 7, 7, '', None)]),
            ('cmd &>f', None, [('word', 0, 3, 'cmd', None), ('redir', 4, 6, '&>', None), ('word', 6, 7, 'f', None), ('eof', 7, 7, '', None)]),
            ('cmd &>>f', None, [('word', 0, 3, 'cmd', None), ('redir', 4, 7, '&>>', None), ('word', 7, 8, 'f', None), ('eof', 8, 8, '', None)]),
            ('cmd 2&>f', None, [('word', 0, 3, 'cmd', None), ('word', 4, 5, '2', None), ('redir', 5, 7, '&>', None), ('word', 7, 8, 'f', None), ('eof', 8, 8, '', None)]),
            ('12abc>f', None, [('word', 0, 5, '12abc', None), ('redir', 5, 6, '>', None), ('word', 6, 7, 'f', None), ('eof', 7, 7, '', None)]),
            ('a>b', None, [('word', 0, 1, 'a', None), ('redir', 1, 2, '>', None), ('word', 2, 3, 'b', None), ('eof', 3, 3, '', None)]),
            ('echo >|f', None, [('word', 0, 4, 'echo', None), ('redir', 5, 7, '>|', None), ('word', 7, 8, 'f', None), ('eof', 8, 8, '', None)]),
            ('cat <<<w', None, [('word', 0, 3, 'cat', None), ('redir', 4, 7, '<<<', None), ('word', 7, 8, 'w', None), ('eof', 8, 8, '', None)]),
            ('cat <<-EOF', None, [('word', 0, 3, 'cat', None), ('redir', 4, 7, '<<-', None), ('word', 7, 10, 'EOF', None), ('eof', 10, 10, '', None)]),
            ('2 x', None, [('word', 0, 1, '2', None), ('word', 2, 3, 'x', None), ('eof', 3, 3, '', None)]),
            ('a#b', None, [('word', 0, 3, 'a#b', None), ('eof', 3, 3, '', None)]),
            ('x # c', None, [('word', 0, 1, 'x', None), ('eof', 5, 5, '', None)]),
            ('a \\\n b', None, [('word', 0, 1, 'a', None), ('word', 5, 6, 'b', None), ('eof', 6, 6, '', None)]),
            ('a\\\nb', None, [('word', 0, 4, 'ab', None), ('eof', 4, 4, '', None)]),
            ('a;;b', None, [('word', 0, 1, 'a', None), ('op', 1, 3, ';;', None), ('word', 3, 4, 'b', None), ('eof', 4, 4, '', None)]),
            ('a |& b', None, [('word', 0, 1, 'a', None), ('op', 2, 4, '|&', None), ('word', 5, 6, 'b', None), ('eof', 6, 6, '', None)]),
            ('a & b', None, [('word', 0, 1, 'a', None), ('op', 2, 3, '&', None), ('word', 4, 5, 'b', None), ('eof', 5, 5, '', None)]),
            ('a\r\nb', None, [('word', 0, 1, 'a', None), ('op', 2, 3, '\n', None), ('word', 3, 4, 'b', None), ('eof', 4, 4, '', None)]),
            ('ab cd && e', (0, 4), [('word', 0, 2, 'ab', None), ('word', 3, 4, 'c', None), ('eof', 4, 4, '', None)]),
            ('ab 2>', (0, 4), [('word', 0, 2, 'ab', None), ('word', 3, 4, '2', None), ('eof', 4, 4, '', None)]),
        ],
    )
    def test_edge_case_tokens(self, text, region, tokens):
        assert lex(text, region) == tokens

    @pytest.mark.parametrize(
        "text, tokens",
        [
            # the bodies of `<<A` and `<<B` follow the line, in order
            ("cat <<A <<B\na\nA\nb\nB\nx", [
                ("word", 0, 3, "cat", None), ("redir", 4, 6, "<<", None), ("word", 6, 7, "A", None),
                ("redir", 8, 10, "<<", None), ("word", 10, 11, "B", None), ("op", 11, 12, "\n", None),
                ("op", 19, 20, "\n", None), ("word", 20, 21, "x", None), ("eof", 21, 21, "", None),
            ]),
            # a quote in a body is data; `<<-` strips the delimiter's tabs
            ("cat <<-E\ndon't\n\tE\r", [
                ("word", 0, 3, "cat", None), ("redir", 4, 7, "<<-", None), ("word", 7, 8, "E", None),
                ("op", 8, 9, "\n", None), ("eof", 18, 18, "", None),
            ]),
            # a quoted delimiter is its unquoted text
            ("cat <<'E' >f\n$x\nE", [
                ("word", 0, 3, "cat", None), ("redir", 4, 6, "<<", None), ("word", 6, 9, "E", None),
                ("redir", 10, 11, ">", None), ("word", 11, 12, "f", None), ("op", 12, 13, "\n", None),
                ("eof", 17, 17, "", None),
            ]),
        ],
    )
    def test_heredoc_bodies_are_no_tokens(self, text, tokens):
        assert lex(text) == tokens

    def test_no_token_reads_past_the_region(self):
        # the variable name stops at the region end, not at the text's
        assert lex("echo $ab", (0, 7)) == [
            ("word", 0, 4, "echo", None),
            ("word", 5, 7, "$a", None),
            ("eof", 7, 7, "", None),
        ]
        assert lex("a &&", (0, 3)) == [
            ("word", 0, 1, "a", None),
            ("op", 2, 3, "&", None),
            ("eof", 3, 3, "", None),
        ]

    _TRIVIA_RE = re.compile(r"(?:[ \t\r]|\\\n|#[^\n]*)*")

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.sampled_from(list(" \t\r\n&|;()<>'\"$`\\#{}=-12ax") + ["\\\n", "2>&1", "&>", "$(", "${"]),
            max_size=16,
        ).map("".join),
        st.integers(0, 16),
        st.integers(0, 16),
    )
    @example("a \\\n# c\n b 2>&1 |& c", 0, 0)
    @example("a <<a\n'x\na\n|b", 0, 0)
    def test_tokens_tile_the_region(self, text, cut_start, cut_end):
        """Token spans are in order and disjoint, inside the region, and
        the gaps between them hold only blanks, backslash-newlines and
        comments, or, after a newline, heredoc bodies through a delimiter
        line."""
        start = min(cut_start, len(text))
        end = max(start, len(text) - cut_end)
        try:
            toks = _Lexer(text, start, end).tokens()
        except ShellUnterminated:
            return
        assert toks[-1].kind == "eof" and toks[-1].start == toks[-1].end == end
        delims = {d.value for r, d in zip(toks, toks[1:]) if r.kind == "redir" and r.value in ("<<", "<<-")}
        pos = start
        for k, tok in enumerate(toks):
            assert pos <= tok.start <= tok.end <= end
            if not self._TRIVIA_RE.fullmatch(text, pos, tok.start):
                last_line = text[pos : tok.start].rsplit("\n", 1)[-1].rstrip("\r").lstrip("\t")
                assert k and toks[k - 1].value == "\n" and last_line in delims, (text, pos, tok)
            pos = tok.end


class TestDegradation:
    def test_warnings_are_optional(self):
        root = parse_shell("a &&")  # a dangling operator warns into no list
        assert kinds(root) == [NodeKind.SC_SIMPLE_COMMAND]

    def test_unterminated_quote_makes_whole_script_unparsed(self):
        src = "echo ok && echo 'oops"
        root, warnings = parse(src)
        assert kinds(root) == [NodeKind.SC_UNPARSED]
        assert warnings
        assert span_text(src, root.children[0].span) == src

    def test_heredoc_statement_unparsed_parsing_continues(self):
        src = "cat <<EOF > /x\nbody line\nEOF\necho after"
        root, warnings = parse(src)
        (seq,) = root.children
        assert seq.children[0].kind is NodeKind.SC_UNPARSED
        assert seq.children[1].kind is NodeKind.SC_SIMPLE_COMMAND
        assert word_text(seq.children[1].children[0]) == "echo"

    def test_heredoc_bodies_are_never_read_as_commands(self):
        src = "cat <<A <<B > /f && echo x\na\nA\napt-get install -y q\nB\necho after"
        root, warnings = parse(src)
        (seq,) = root.children
        first, second = seq.children
        assert first.kind is NodeKind.SC_AND
        assert [span_text(src, c.span) for c in first.children] == ["cat <<A <<B > /f", "echo x"]
        assert first.children[0].kind is NodeKind.SC_UNPARSED
        assert span_text(src, second.span) == "echo after"
        assert warnings == ["heredoc statement left unparsed"]

    def test_heredoc_with_no_body_in_the_region_degrades_its_statement(self):
        root, warnings = parse("cat << EOF && echo x")
        (node,) = root.children
        assert [c.kind for c in node.children] == [NodeKind.SC_UNPARSED, NodeKind.SC_SIMPLE_COMMAND]

    def test_unterminated_heredoc_makes_whole_script_unparsed(self):
        root, warnings = parse("cat <<EOF && echo x\nbody\n")
        assert kinds(root) == [NodeKind.SC_UNPARSED]
        assert "unterminated heredoc" in warnings[0]

    def test_process_substitution_degrades_statement(self):
        root, warnings = parse("diff <(sort a) <(sort b) && echo same")
        (node,) = root.children
        assert node.kind is NodeKind.SC_AND
        assert node.children[0].kind is NodeKind.SC_UNPARSED
        assert node.children[1].kind is NodeKind.SC_SIMPLE_COMMAND

    def test_array_assignment_degrades_statement(self):
        root, _ = parse("ARR=(a b c) && echo fine")
        (node,) = root.children
        assert node.children[0].kind is NodeKind.SC_UNPARSED

    def test_function_definition_degrades(self):
        root, _ = parse("greet() { echo hi; } && greet")
        (node,) = root.children
        assert node.children[0].kind is NodeKind.SC_UNPARSED

    def test_case_body_is_opaque(self):
        root, _ = parse("case $1 in a) echo a;; esac")
        (compound,) = root.children
        assert compound.kind is NodeKind.SC_COMPOUND
        assert [c.kind for c in compound.children] == [NodeKind.SC_UNPARSED]

    def test_for_header_is_opaque_body_parsed(self):
        root, _ = parse("for f in *.tgz; do tar xf $f; done")
        (compound,) = root.children
        assert compound.children[0].kind is NodeKind.SC_UNPARSED
        assert compound.children[1].kind is NodeKind.SC_SIMPLE_COMMAND

    def test_empty_script(self):
        root, warnings = parse("   ")
        assert root.children == ()
        assert not warnings


def shape(node, src):
    """``node`` as its kind and source text, then its children's shapes
    in brackets: ``SIMPLE-COMMAND'a'[WORD'a']``."""
    inner = " ".join(shape(c, src) for c in node.children)
    return f"{node.kind.value[3:]}{span_text(src, node.span)!r}" + (f"[{inner}]" if inner else "")


class TestParserPaths:
    """The tree and the warnings of each way a block, list, command or
    substitution can end early or hold the unexpected."""

    @pytest.mark.parametrize(
        "src, tree, warnings",
        [
            # a stop word that does not belong to its block is skipped
            ("if a; do b; fi", "COMPOUND'if a; do b; fi'[SIMPLE-COMMAND'a'[WORD'a'] SIMPLE-COMMAND'b'[WORD'b']]",
             ["skipping 'do' in 'if' block"]),
            ("while a; then b; done", "COMPOUND'while a; then b; done'[SIMPLE-COMMAND'a'[WORD'a'] SIMPLE-COMMAND'b'[WORD'b']]",
             ["skipping 'then' in 'while' block"]),
            # middle words and closers after a newline
            ("if a\nthen b\nelse c\nfi",
             r"COMPOUND'if a\nthen b\nelse c\nfi'[SIMPLE-COMMAND'a'[WORD'a'] SIMPLE-COMMAND'b'[WORD'b'] SIMPLE-COMMAND'c'[WORD'c']]",
             []),
            ("while a\ndo b\ndone", r"COMPOUND'while a\ndo b\ndone'[SIMPLE-COMMAND'a'[WORD'a'] SIMPLE-COMMAND'b'[WORD'b']]", []),
            # unterminated blocks run to the last token
            ("if a; then b", "COMPOUND'if a; then b'[SIMPLE-COMMAND'a'[WORD'a'] SIMPLE-COMMAND'b'[WORD'b']]",
             ["unterminated 'if' block"]),
            ("while a; do b", "COMPOUND'while a; do b'[SIMPLE-COMMAND'a'[WORD'a'] SIMPLE-COMMAND'b'[WORD'b']]",
             ["unterminated 'while' block"]),
            ("{ a", "COMPOUND'{ a'[SIMPLE-COMMAND'a'[WORD'a']]", ["unterminated '{' block"]),
            ("for x in a b", "COMPOUND'for x in a b'[UNPARSED'x in a b']",
             ["unterminated 'for' header", "unterminated 'for' block"]),
            ("for; do a; done", "COMPOUND'for; do a; done'[SIMPLE-COMMAND'a'[WORD'a']]", []),
            # dangling operators
            ("a &&", "SIMPLE-COMMAND'a'[WORD'a']", ["dangling '&&' in shell payload"]),
            ("a ||", "SIMPLE-COMMAND'a'[WORD'a']", ["dangling '||' in shell payload"]),
            ("a |", "PIPELINE'a'[SIMPLE-COMMAND'a'[WORD'a']]", ["dangling '|' in shell payload"]),
            ("a && b ||", "AND'a && b'[SIMPLE-COMMAND'a'[WORD'a'] SIMPLE-COMMAND'b'[WORD'b']]",
             ["dangling '||' in shell payload"]),
            ("a | b |", "PIPELINE'a | b'[SIMPLE-COMMAND'a'[WORD'a'] SIMPLE-COMMAND'b'[WORD'b']]",
             ["dangling '|' in shell payload"]),
            # a list is read left to right, one n-ary node per run of one operator
            ("a && b || c && d",
             "AND'a && b || c && d'[OR'a && b || c'[AND'a && b'[SIMPLE-COMMAND'a'[WORD'a'] SIMPLE-COMMAND'b'[WORD'b']]"
             " SIMPLE-COMMAND'c'[WORD'c']] SIMPLE-COMMAND'd'[WORD'd']]",
             []),
            # a newline after an operator does not end the list
            ("a |\nb", r"PIPELINE'a |\nb'[SIMPLE-COMMAND'a'[WORD'a'] SIMPLE-COMMAND'b'[WORD'b']]", []),
            ("a &&\nb", r"AND'a &&\nb'[SIMPLE-COMMAND'a'[WORD'a'] SIMPLE-COMMAND'b'[WORD'b']]", []),
            ("(a", "SUBSHELL'(a'[SIMPLE-COMMAND'a'[WORD'a']]", ["unterminated subshell"]),
            # an operator that starts a command is one unparsed token
            (") a", "SEQ') a'[UNPARSED')' SIMPLE-COMMAND'a'[WORD'a']]", ["unparsed token ')'"]),
            ("| a", "SEQ'| a'[UNPARSED'|' SIMPLE-COMMAND'a'[WORD'a']]", ["unparsed token '|'"]),
            # an array assignment is unparsed to the `)` that closes its subshell
            ("(a=(1 2))", "SUBSHELL'(a=(1 2))'[UNPARSED'a=(1 2)']", ["statement outside supported shell subset"]),
            ("echo >", "SIMPLE-COMMAND'echo >'[WORD'echo' REDIRECTION'>']", ["redirection '>' without target"]),
            # case bodies are opaque; an unterminated one degrades the script
            ("case x in a) b;;", "UNPARSED'case x in a) b;;'",
             ["shell parse degraded to opaque text: unterminated case statement at offset 0"]),
            ("case a in x) case b in y) c;; esac;; esac; d",
             "SEQ'case a in x) case b in y) c;; esac;; esac; d'[COMPOUND'case a in x) case b in y) c;; esac;; esac'"
             "[UNPARSED'a in x) case b in y) c;; esac;;'] SIMPLE-COMMAND'd'[WORD'd']]",
             []),
            # function definitions
            ("f() { a; }; b", "SEQ'f() { a; }; b'[UNPARSED'f() { a; }' SIMPLE-COMMAND'b'[WORD'b']]", []),
            ("f() { a", "UNPARSED'f() { a'", ["unterminated function body"]),
            ("f() a; b", "SEQ'f() a; b'[UNPARSED'f() a' SIMPLE-COMMAND'b'[WORD'b']]", []),
            # backquotes
            ('echo "`date`"',
             """SIMPLE-COMMAND'echo "`date`"'[WORD'echo' WORD'"`date`"'[COMMAND-SUBSTITUTION'`date`'[SIMPLE-COMMAND'date'[WORD'date']]]]""",
             []),
            (r"echo \`x\`", r"SIMPLE-COMMAND'echo \\`x\\`'[WORD'echo' WORD'\\`x\\`']", []),
            # a `)` escaped or quoted inside $(...) does not close it
            (r"echo $(echo \))",
             r"SIMPLE-COMMAND'echo $(echo \\))'[WORD'echo' WORD'$(echo \\))'[COMMAND-SUBSTITUTION'$(echo \\))'"
             r"[SIMPLE-COMMAND'echo \\)'[WORD'echo' WORD'\\)']]]]",
             []),
            ("echo $(echo ')')",
             """SIMPLE-COMMAND"echo $(echo ')')"[WORD'echo' WORD"$(echo ')')"[COMMAND-SUBSTITUTION"$(echo ')')\""""
             """[SIMPLE-COMMAND"echo ')'"[WORD'echo' WORD"')'"]]]]""",
             []),
            (r'echo $(echo "a\"b")',
             r"""SIMPLE-COMMAND'echo $(echo "a\\"b")'[WORD'echo' WORD'$(echo "a\\"b")'"""
             r"""[COMMAND-SUBSTITUTION'$(echo "a\\"b")'[SIMPLE-COMMAND'echo "a\\"b"'[WORD'echo' WORD'"a\\"b"']]]]""",
             []),
            ("echo $(echo 'x)", """UNPARSED"echo $(echo 'x)\"""",
             ["shell parse degraded to opaque text: unterminated single quote at offset 12"]),
            # an unterminated double quote is named at the quote
            ('echo $(echo ") && b', """UNPARSED'echo $(echo ") && b'""",
             ["shell parse degraded to opaque text: unterminated double quote at offset 12"]),
            # a substitution that does not lex or parse degrades alone
            ("x=$(echo `) && b",
             "AND'x=$(echo `) && b'[SIMPLE-COMMAND'x=$(echo `)'[ASSIGNMENT'x=$(echo `)'"
             "[COMMAND-SUBSTITUTION'$(echo `)'[UNPARSED'echo `']]] SIMPLE-COMMAND'b'[WORD'b']]",
             ["substitution parse degraded: unterminated backquote at offset 9"]),
            ("x=$(case x in) && b",
             "AND'x=$(case x in) && b'[SIMPLE-COMMAND'x=$(case x in)'[ASSIGNMENT'x=$(case x in)'"
             "[COMMAND-SUBSTITUTION'$(case x in)'[UNPARSED'case x in']]] SIMPLE-COMMAND'b'[WORD'b']]",
             ["substitution parse degraded: unterminated case statement at offset 4"]),
            # arithmetic expansion is one opaque word, read as $(...) is
            ("echo $((1+2", "UNPARSED'echo $((1+2'",
             ["shell parse degraded to opaque text: unterminated '(' at offset 6"]),
            ("echo $(( ')' ))", """SIMPLE-COMMAND"echo $(( ')' ))"[WORD'echo' WORD"$(( ')' ))"]""", []),
        ],
    )
    def test_tree_and_warnings(self, src, tree, warnings):
        root, found = parse(src)
        assert (" ".join(shape(c, src) for c in root.children), found) == (tree, warnings)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "src",
        [
            "npm cache clean",
            "a && b || c; d | e",
            "echo \"x $V y\" 'lit' >> /log 2>&1",
            "apt-get update \\\n && apt-get install -y wget",
            "if true; then echo a; else echo b; fi",
            "for i in 1 2; do echo $i; done",
            "case $x in a) true;; esac",
            "V=`date` && echo $V",
            "diff <(a) <(b)",
            "cat <<EOF\nbody\nEOF\necho done",
            "cmd --opt='a b' #trailing comment",
        ],
    )
    def test_script_span_covers_source(self, src):
        root, _ = parse(src)
        assert reprint(root, src) == src

    def test_statement_spans_tile_in_order(self):
        src = "one && two ; three"
        root, _ = parse(src)
        spans = [n.span for n in root.walk() if n.kind is NodeKind.SC_SIMPLE_COMMAND]
        starts = [s.start for s in spans]
        assert starts == sorted(starts)
        texts = [span_text(src, s) for s in spans]
        assert texts == ["one", "two", "three"]


class TestHelpers:
    def test_variable_reference_forms(self):
        assert variable_reference("$TMP") == "TMP"
        assert variable_reference("${TMP}") == "TMP"
        assert variable_reference("${TMP:-x}") == "TMP"
        assert variable_reference("$TMP/build") == "TMP"
        assert variable_reference("$TMP/*") == "TMP"
        assert variable_reference("$TMP.x") is None  # a suffix that is not a path
        assert variable_reference("pre$TMP") is None
        assert variable_reference("plain") is None

    def test_contains_variable(self):
        assert contains_variable("$X")
        assert contains_variable("a${X}b")
        assert contains_variable("`date`")
        assert not contains_variable("plain/path")


class TestUnterminatedAtEof:
    """An unterminated compound at the end of a Dockerfile: its span is
    built from payload offsets, so it stays inside the file."""

    @pytest.mark.parametrize(
        "text",
        [
            "RUN { cd /tmp",
            "RUN if true; then echo",
            "FROM x\nRUN { cd /tmp\n",
            "FROM x\nRUN for x in a b; do pip install $x",
            "FROM x\nRUN while true; do apt-get install -y x && tar -xzf a.tgz",
        ],
    )
    def test_no_raise_and_byte_identical_reprint(self, text):
        from slimdock.enrich import parse_and_enrich
        from slimdock.model import validate_tree
        from slimdock.printer import print_minimal
        from slimdock.runner import analyze_text, fix_text

        analyze_text(text, "<t>")
        ast = parse_and_enrich(text)
        validate_tree(ast.root)
        assert print_minimal(ast, text) == text
        again = fix_text(fix_text(text, "<t>").fixed, "<t>")
        assert again.fixed == fix_text(text, "<t>").fixed

    @pytest.mark.parametrize("tail", ["", "\n", " \\\n", "\n\n# c\n"])
    def test_flag_repair_inside_keeps_the_tail(self, tail):
        from slimdock.runner import fix_text

        text = "FROM x\nRUN if true; then pip install x" + tail
        assert fix_text(text, "<t>").fixed == (
            "FROM x\nRUN if true; then pip install --no-cache-dir x" + tail
        )
