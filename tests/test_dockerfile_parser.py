"""Dockerfile parser: instruction model, continuations, directives, forms."""

import pytest

from slimdock.dockerfile import parse_dockerfile
from slimdock.enrich import build_unified_ast
from slimdock.model import NodeKind, span_text, validate_tree
from slimdock.runner import analyze_text, fix_text


def instruction_kinds(ast):
    return [n.kind for n in ast.root.children]


class TestBasicParsing:
    def test_two_instruction_file(self):
        ast = parse_dockerfile("FROM alpine\nRUN apk add curl")
        assert instruction_kinds(ast) == [NodeKind.DOCKER_FROM, NodeKind.DOCKER_RUN]

    def test_empty_input_warns(self):
        ast = parse_dockerfile("")
        assert ast.root.children == ()
        assert any("no instructions" in w for w in ast.warnings)

    def test_continuation_folds_into_one_instruction(self):
        src = "RUN apt-get update \\\n && apt-get install -y wget"
        ast = parse_dockerfile(src)
        (run,) = ast.root.children
        assert run.kind is NodeKind.DOCKER_RUN
        assert span_text(src, run.span) == src
        assert run.prop("_script_src").clean == "apt-get update  && apt-get install -y wget"

    def test_exec_form_flagged_with_elements(self):
        src = 'RUN ["sh", "-c", "npm install"]'
        ast = parse_dockerfile(src)
        (run,) = ast.root.children
        assert run.prop("run_form") == "exec-shell"

    def test_exec_array_non_shell(self):
        ast = parse_dockerfile('RUN ["./entrypoint", "--serve"]')
        (run,) = ast.root.children
        assert run.prop("run_form") == "exec-array"

    @pytest.mark.parametrize(
        "array, elements",
        [
            (r'["echo", "\u0041\/"]', ["echo", "A/"]),
            ('["echo", "a\tb"]', ["echo", "a\tb"]),  # a raw tab is taken
            (r'["echo", "\ud83d\ude00"]', ["echo", "\U0001F600"]),  # one character
            (r'["echo", "\u 041"]', None),  # \u takes four hex digits
            (r'["echo", "\u+041"]', None),
            (r'["echo", "\q"]', None),
            ('["echo", "a]', None),
            ('["echo" "a"]', None),  # no `,` between the strings
        ],
    )
    def test_exec_array_strings_read_as_json(self, array, elements):
        (run,) = parse_dockerfile("RUN " + array).root.children
        if elements is None:
            assert run.prop("run_form") == "shell"
        else:
            (cmd,) = run.children
            assert [w.prop("text") for w in cmd.children] == elements

    def test_parser_builds_the_exec_array_command(self):
        src = 'RUN --network=none ["pip", "install", "x"]\n'
        ast = parse_dockerfile(src)
        (run,) = ast.runs()
        (cmd,) = run.children
        assert cmd.kind is NodeKind.SC_SIMPLE_COMMAND and cmd.prop("exec_array")
        assert span_text(src, cmd.span) == '"pip", "install", "x"'
        assert [(w.literal, w.prop("text")) for w in cmd.children] == [
            ('"pip"', "pip"), ('"install"', "install"), ('"x"', "x")
        ]
        assert set(run.props) == {"run_form"}
        assert build_unified_ast(ast).runs()[0].children == (cmd,)

    def test_parser_leaves_an_escaped_sh_c_string_opaque(self):
        # `\t` stands for a character other than the one it escapes
        src = 'FROM x\nRUN ["sh", "-c", "echo \\"a\\tb\\""]\n'
        ast = parse_dockerfile(src)
        (run,) = ast.runs()
        (script,) = run.children
        assert script.kind is NodeKind.SC_SCRIPT
        assert [c.kind for c in script.children] == [NodeKind.SC_UNPARSED]
        assert span_text(src, script.span) == 'echo \\"a\\tb\\"'
        assert ast.warnings == ["<memory>:2: exec-form payload with escapes left unparsed"]
        assert set(run.props) == {"run_form"}
        build_unified_ast(ast)
        assert run.children == (script,)
        assert len(ast.warnings) == 1

    def test_sh_c_string_with_quote_and_backslash_escapes_is_parsed(self):
        # `\"`, `\\` and `\/` each stand for the character they escape
        src = 'FROM x\nRUN ["sh", "-c", "echo \\"a b\\" c\\\\ d \\/e"]\n'
        ast = build_unified_ast(parse_dockerfile(src))
        assert ast.warnings == []
        (run,) = ast.runs()
        assert run.prop("_script_src").clean == 'echo "a b" c\\ d /e'
        (script,) = run.children
        assert span_text(src, script.span) == 'echo \\"a b\\" c\\\\ d \\/e'
        words = [w for w in run.walk() if w.kind is NodeKind.SC_WORD]
        assert [(w.literal, w.prop("text")) for w in words] == [
            ("echo", "echo"), ('"a b"', "a b"), ("c\\ d", "c d"), ("/e", "/e")
        ]
        validate_tree(run)

    def test_invalid_json_array_falls_back_to_shell(self):
        ast = parse_dockerfile("RUN [ -f /x ] && echo present")
        (run,) = ast.root.children
        assert run.prop("run_form") == "shell"

    def test_unknown_keyword_becomes_unknown_node(self):
        ast = parse_dockerfile("BOGUS something\nFROM x")
        assert instruction_kinds(ast) == [NodeKind.DOCKER_UNKNOWN, NodeKind.DOCKER_FROM]
        assert any("unknown instruction" in w for w in ast.warnings)

    def test_keywords_case_insensitive_preserving_case(self):
        src = "from Alpine\nRuN echo hi"
        ast = parse_dockerfile(src)
        assert instruction_kinds(ast) == [NodeKind.DOCKER_FROM, NodeKind.DOCKER_RUN]
        assert span_text(src, ast.root.children[1].span).startswith("RuN")

    def test_comments_are_nodes(self):
        ast = parse_dockerfile("# header\nFROM x\n# trailing")
        assert instruction_kinds(ast) == [
            NodeKind.DOCKER_COMMENT,
            NodeKind.DOCKER_FROM,
            NodeKind.DOCKER_COMMENT,
        ]


class TestDirectives:
    def test_escape_directive_switches_continuation(self):
        src = "# escape=`\nFROM w\nRUN echo a `\n  b"
        ast = parse_dockerfile(src)
        assert ast.escape_char == "`"
        run = ast.root.children[-1]
        assert span_text(src, run.span) == "RUN echo a `\n  b"

    def test_directive_window_closes_after_comment(self):
        src = "# a normal comment\n# escape=`\nFROM x\nRUN echo \\\n more"
        ast = parse_dockerfile(src)
        assert ast.escape_char == "\\"

    def test_invalid_escape_ignored_with_warning(self):
        ast = parse_dockerfile("# escape=@\nFROM x")
        assert ast.escape_char == "\\"
        assert any("escape" in w for w in ast.warnings)


class TestContinuations:
    def test_comment_lines_inside_continuation_elided(self):
        src = "RUN apt-get update && \\\n  # install\n  apt-get install -y x"
        ast = parse_dockerfile(src)
        (run,) = ast.root.children
        assert run.prop("_script_src").clean == "apt-get update &&   apt-get install -y x"

    def test_crlf_continuation(self):
        src = "RUN echo a \\\r\n  b\r\n"
        ast = parse_dockerfile(src)
        (run,) = ast.root.children
        assert run.prop("_script_src").clean == "echo a   b"

    def test_every_noncomment_line_in_some_instruction(self):
        src = "FROM x\nRUN a \\\n  b \\\n  c\nENV K=v\n"
        ast = parse_dockerfile(src)
        covered = set()
        for node in ast.root.children:
            text = span_text(src, node.span)
            first = src[: node.span.start].count("\n") + 1
            covered.update(range(first, first + text.count("\n") + 1))
        expected = {
            i + 1
            for i, line in enumerate(src.splitlines())
            if line.strip() and not line.lstrip().startswith("#")
        }
        assert expected <= covered


class TestHeredocs:
    def test_leading_heredoc_body_is_shell_payload(self):
        src = "RUN <<EOF\napk add git\necho done\nEOF\nCMD [\"x\"]\n"
        ast = build_unified_ast(parse_dockerfile(src))
        run = ast.root.children[0]
        assert span_text(src, run.span).endswith("EOF")
        script = run.children[0]
        assert script.kind is NodeKind.SC_SCRIPT
        stmts = [n for n in script.walk() if n.kind is NodeKind.SC_SIMPLE_COMMAND]
        assert len(stmts) == 2

    def test_mid_command_heredoc_spans_body_left_opaque(self):
        src = "RUN cat <<EOF > /x\nhello\nEOF\nRUN echo after\n"
        ast = build_unified_ast(parse_dockerfile(src))
        first, second = ast.runs()
        assert span_text(src, first.span).endswith("EOF")
        assert [c.kind for c in first.children[0].children] == [NodeKind.SC_UNPARSED]
        assert second.children[0].children[0].kind is NodeKind.SC_SIMPLE_COMMAND

    def test_multi_heredoc_run_keeps_its_span_and_script_text(self):
        src = "RUN cat <<A <<-B > /f\na\nA\n\tb\n\tB\nRUN echo after\n"
        first, second = parse_dockerfile(src).runs()
        assert span_text(src, first.span) == "RUN cat <<A <<-B > /f\na\nA\n\tb\n\tB"
        assert first.prop("_script_src").clean == "cat <<A <<-B > /f\na\nA\n\tb\n\tB"
        assert span_text(src, second.span) == "RUN echo after"

    @pytest.mark.parametrize(
        "src",
        [
            "RUN cat <<EOF > /f\nx\nEOF\n",
            "FROM debian\r\nRUN cat <<EOF > /f\r\nx\r\nEOF\r\nRUN true\r\n",
            "RUN cat <<A <<-B > /f\na\nA\n\tb\n\tB\nRUN echo after\n",
            "RUN a \\\n  && cat <<EOF > /f\nx\nEOF\n",
            "RUN cat <<EOF > /f\nx\nEOF",
        ],
    )
    def test_a_heredoc_after_the_command_ends_the_script_with_the_run(self, src):
        """The script ends where its RUN does, at the end of the last
        delimiter line, not past its newline."""
        run = build_unified_ast(parse_dockerfile(src)).runs()[0]
        validate_tree(run)
        assert span_text(src, run.span).endswith(("EOF", "EOF\r", "\tB"))
        assert run.children[0].span.end == run.span.end

    def test_unterminated_heredoc_warns(self):
        ast = parse_dockerfile("RUN <<EOF\nno closing marker\n")
        assert any("heredoc" in w for w in ast.warnings)

    @pytest.mark.parametrize(
        "payload",
        [
            # a `<<` inside a word starts no heredoc word
            "echo $((1<<2))",
            "echo $((a<<EOF))",
            # nor does a quoted or escaped one
            "echo '<<EOF'",
            'echo "<<EOF"',
            "echo \\<<EOF",
            'echo "a\\"<<EOF"',
        ],
    )
    def test_a_heredoc_opens_only_at_the_start_of_a_word(self, payload):
        ast = parse_dockerfile(f"RUN {payload}\nRUN true\nEOF\n")
        assert instruction_kinds(ast) == [NodeKind.DOCKER_RUN, NodeKind.DOCKER_RUN, NodeKind.DOCKER_UNKNOWN]
        assert ast.warnings == ["<memory>:3: unknown instruction 'EOF'"]

    def test_a_heredoc_word_may_name_an_fd(self):
        ast = parse_dockerfile("RUN cat 2<<EOF > /f\nRUN true\nEOF\n")
        assert instruction_kinds(ast) == [NodeKind.DOCKER_RUN]
        assert ast.warnings == []

    def test_a_heredoc_word_with_an_unterminated_quote_opens_none(self):
        src = 'FROM x\nRUN cat <<"EOF > /f && pip install y\nRUN true\n'
        ast, report = analyze_text(src, "Dockerfile")
        assert instruction_kinds(ast) == [NodeKind.DOCKER_FROM, NodeKind.DOCKER_RUN, NodeKind.DOCKER_RUN]
        assert report.status == "partial"
        assert report.warnings == [
            "Dockerfile:2: shell parse degraded to opaque text: unterminated double quote at offset 6"
        ]
        assert report.diagnostics == []


class TestEmptyPayloads:
    """A RUN with no command, or with only flags, has an empty script."""

    @pytest.mark.parametrize("src", [
        "RUN",
        "RUN\n",
        "RUN --mount=type=cache,target=/c",
        # the flags end in a blank: the script starts past the payload's end
        "RUN --mount=type=cache,target=/c ",
        "FROM x\nRUN \\",
        "RUN <<EOF\nEOF\n",
        "RUN []",  # an exec array of no elements
    ])
    def test_lints_clean_and_fixes_to_itself(self, src):
        _, report = analyze_text(src, "Dockerfile")
        assert (report.status, report.warnings, report.diagnostics) == ("ok", [], [])
        assert fix_text(src, "Dockerfile").fixed == src

    @pytest.mark.parametrize("src", [
        "RUN --mount=type=cache,target=/c",
        # a flag ends at blanks or at the end of the payload alike
        "RUN --mount=type=cache,target=/c ",
    ])
    def test_flags_alone_read_an_empty_script(self, src):
        (run,) = analyze_text(src, "Dockerfile")[0].runs()
        (script,) = run.children
        assert (script.kind, script.children) == (NodeKind.SC_SCRIPT, ())
        assert (script.span.start, script.span.end) == (len(src), len(src))


class TestRoundTripInvariant:
    @pytest.mark.parametrize(
        "src",
        [
            "FROM a\n\n\nRUN b\n",
            "FROM a\r\nRUN echo x\r\n",
            "  FROM indented\n",
            "FROM x\nRUN echo no trailing newline",
            "FROM x\nRUN echo 'kept \\n literal'\n# end\n",
        ],
    )
    def test_rerendering_unmodified_ast(self, src):
        from slimdock.printer import print_minimal

        ast = build_unified_ast(parse_dockerfile(src))
        assert print_minimal(ast, src) == src
