"""Property tests: round-trip identity, fix idempotence, that every
repair reported applied is gone when the fixed file is parsed again, and
that the residual of a fix is what a lint of the fixed file reports."""

import json
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings, strategies as st

from slimdock.dockerfile import parse_dockerfile
from slimdock.enrich import embed_run, enrich_node, parse_and_enrich
from slimdock.model import NodeKind, validate_tree
from slimdock.printer import print_minimal
from slimdock.rules import RuleId, repair
from slimdock.runner import PARSE_FAILED, _reanalyze, _reread, _Shift, analyze_text, fix_text
from conftest import read_text
from test_scaling import chain

# -- generators ---------------------------------------------------------------

_images = st.sampled_from(
    ["alpine:3.18", "debian:bookworm", "ubuntu:22.04", "python:3.11", "node:18"]
)
_words = st.sampled_from(
    ["curl", "git", "wget", "-y", "--quiet", "a/b", "$VAR", "'sp ace'", '"d q"', "*.tgz"]
)
_payload = st.lists(_words, min_size=1, max_size=5).map(" ".join)
_operators = st.sampled_from([" && ", " || ", "; ", " | "])


@st.composite
def shell_payloads(draw):
    parts = draw(st.lists(_payload, min_size=1, max_size=4))
    ops = [draw(_operators) for _ in range(len(parts) - 1)]
    out = parts[0]
    for op, part in zip(ops, parts[1:]):
        out += op + "echo " + part
    return "cmd " + out


@st.composite
def instructions(draw):
    kind = draw(st.sampled_from(["RUN", "ENV", "COPY", "COMMENT", "LABEL", "EXPOSE"]))
    if kind == "RUN":
        body = draw(shell_payloads())
        if draw(st.booleans()):
            body = body.replace(" && ", " \\\n    && ", 1)
        return f"RUN {body}"
    if kind == "ENV":
        return "ENV KEY=" + draw(st.sampled_from(["v", "'a b'", "$HOME/x"]))
    if kind == "COPY":
        return "COPY . /app"
    if kind == "COMMENT":
        return "# " + draw(st.sampled_from(["note", "todo: refactor", "été ✓"]))
    if kind == "LABEL":
        return 'LABEL k="v v"'
    return "EXPOSE 8080"


@st.composite
def dockerfiles(draw):
    image = draw(_images)
    body = draw(st.lists(instructions(), min_size=0, max_size=6))
    blanks = draw(st.integers(min_value=0, max_value=2))
    sep = "\n" * (1 + blanks)
    text = f"FROM {image}" + sep + sep.join(body)
    if draw(st.booleans()):
        text += "\n"
    return text


# Files whose RUNs hold the rule anchors, with operands that are quoted,
# globbed, hold a `;` or a NUL or end in a backslash, in shell form or exec
# form, after a `--mount` flag or not, under either escape character, with
# LF or CRLF line endings, with or without a leading BOM and a final newline.
_operands = st.sampled_from(
    ["a.tgz", "'my file.tgz'", '"x y.tgz"', "*.tgz", "'a;b.tgz'", "a\\", "'a\\'",
     "a\\ b", "\\ \\", '"q\\"', "$V", "a\x00b.tgz"]
)
_exec_commands = st.sampled_from([
    ["pip", "install", "flask"], ["pip", "install"], ["npm", "cache", "clean"],
    ["apk", "add", "curl"], ["apt-get", "install", "-y", "x"], ["yarn", "install"],
])


@st.composite
def anchored_commands(draw, nested=False):
    if not nested and draw(st.integers(0, 5)) == 0:
        inner = draw(st.lists(anchored_commands(nested=True), min_size=1, max_size=2))
        return "{ " + "; ".join(inner) + "; }"
    template = draw(st.sampled_from([
        "apt-get install -y {}", "tar -xzf {}", "gpg --verify {}.asc",
        "mkdir -p /usr/src/{}", "npm install", "gem update --system",
        "pip install {}", "cd {}", "make", "rm -rf {}",
        "tar xCf /opt {}", "tar -xCf /opt {}", "tar -x -- -f{}",
    ]))
    return template.format(draw(_operands))


@st.composite
def exec_payloads(draw):
    """``["pip", "install", ...]`` or ``["sh", "-c", "<anchored commands>"]``."""
    if draw(st.booleans()):
        words = draw(_exec_commands)
    else:
        commands = draw(st.lists(anchored_commands(nested=True), min_size=1, max_size=3))
        words = ["sh", "-c", " && ".join(commands)]
    return "[" + ", ".join(json.dumps(word) for word in words) + "]"


@st.composite
def anchored_dockerfiles(draw):
    escape = draw(st.sampled_from(["\\", "`"]))
    lines = ["# escape=`"] if escape == "`" else []
    lines.append("FROM debian")
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["ENV X=1", "# note", "COPY . /app", "# \x00"])))
            continue
        mount = draw(st.sampled_from(["", "", "--mount=type=cache,target=/var/cache/apt "]))
        if draw(st.integers(0, 3)) == 0:
            lines.append("RUN " + mount + draw(exec_payloads()))
            continue
        commands = draw(st.lists(anchored_commands(), min_size=1, max_size=4))
        body = commands[0]
        for command in commands[1:]:
            body += draw(st.sampled_from([" && ", " && ", " || ", "; ", f" {escape}\n    && "]))
            body += command
        lines.append("RUN " + mount + body)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = "\n".join(lines).replace("\n", newline)
    if draw(st.integers(0, 4)) == 0:
        text = "\ufeff" + text
    return text + newline if draw(st.booleans()) else text


def smell(diagnostic, run_starts):
    """RUN ordinal, rule, anchor label, and the anchor's ordinal among the
    RUN's nodes with that label: one smell, before and after a reprint.
    ``run_starts`` are the start offsets of the RUNs of the text that the
    diagnostic's span is in."""
    run, label = diagnostic.run, diagnostic.anchor.label
    ordinal = bisect_right(run_starts, diagnostic.span.start) - 1
    same = [n for n in run.walk() if label in n.annotations]
    return ordinal, diagnostic.rule, label, same.index(diagnostic.anchor.node)


def run_starts(text):
    return [run.span.start for run in parse_dockerfile(text, "<gen>").runs()]


# -- properties ----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(dockerfiles())
def test_roundtrip_identity(text):
    from slimdock.model import validate_tree

    ast = parse_and_enrich(text)
    validate_tree(ast.root)
    assert print_minimal(ast, text) == text


@settings(max_examples=60, deadline=None)
@given(st.one_of(dockerfiles(), anchored_dockerfiles()))
def test_fix_is_idempotent(text):
    report = fix_text(text, "<gen>")
    again = fix_text(report.fixed, "<gen>")
    assert again.fixed == report.fixed


@settings(max_examples=200, deadline=None)
@given(anchored_dockerfiles())
def test_applied_repairs_are_gone_on_reparse(text):
    assert print_minimal(parse_and_enrich(text), text) == text
    report = fix_text(text, "<gen>")
    before, after = run_starts(text), run_starts(report.fixed)
    left = {smell(d, after) for d in report.residual}
    applied = [o for o in report.repairs if o.status == "applied"]
    assert [o.diagnostic.rule for o in applied if smell(o.diagnostic, before) in left] == []
    if not applied:
        assert report.fixed == text
    assert fix_text(report.fixed, "<gen>").fixed == report.fixed


def seen(diagnostics):
    """What a report shows of each diagnostic: rule, position, fixability,
    message, and the span's offsets and line/column positions."""
    return [(d.rule, d.line, d.column, d.fixable, d.message, d.span) for d in diagnostics]


def assert_residual_is_lint_of_fixed(text):
    """``fix_text`` re-analyses only the RUNs its repairs changed; its
    residual must still be what a fresh lint of the fixed text reports."""
    report = fix_text(text, "<gen>")
    assert seen(report.residual) == seen(analyze_text(report.fixed, "<gen>")[1].diagnostics)


def test_residual_is_lint_of_fixed_on_data(roundtrip_paths):
    for path in roundtrip_paths:
        assert_residual_is_lint_of_fixed(read_text(path))


@settings(max_examples=300, deadline=None)
@given(st.one_of(dockerfiles(), anchored_dockerfiles()))
# an unedited RUN after an insertion, and one whose smell the gemrc line
# inserted into another RUN removes
@example("FROM debian\nRUN apt-get install -y x\nRUN yarn install || true\n")
@example("FROM ruby\nRUN gem update --system\nRUN gem update --system; true\n")
def test_residual_is_lint_of_fixed(text):
    assert_residual_is_lint_of_fixed(text)


def test_a_gemrc_flip_keeps_the_unedited_runs_other_smells():
    """The gemrc line inserted into the third line configures gem: the
    second line's gemUpdateNoDocument drops out, its other smell stays."""
    text = "FROM ruby\nRUN gem update --system || true\nRUN gem update --system\n"
    report = fix_text(text, "<gen>")
    assert [(d.rule, d.line) for d in report.residual] == [(RuleId.gemUpdateSystemRmRootGem, 2)]
    assert_residual_is_lint_of_fixed(text)


def reanalyze(text, offset, inserted):
    """``_reanalyze`` of ``text`` with one crafted insertion; and the
    printed text."""
    ast, lint = analyze_text(text, "<gen>")
    ast.insertions = [(offset, 0, 0, inserted)]
    fixed = print_minimal(ast, text)
    return _reanalyze(ast, lint.diagnostics, fixed, None), fixed


def test_a_garbled_gemrc_line_brings_back_an_unedited_runs_smell():
    text = (
        "FROM ruby\nRUN echo 'gem: --no-document' > /etc/gemrc && make\n"
        "RUN gem update --system\n"
    )
    (read_as, residual, _), fixed = reanalyze(text, text.index(" && make"), "x")
    assert "/etc/gemrcx" in fixed and read_as is not None
    assert (RuleId.gemUpdateNoDocument, 3) in [(d.rule, d.line) for d in residual]
    assert seen(residual) == seen(analyze_text(fixed, "<gen>")[1].diagnostics)


@pytest.mark.parametrize("text, at, inserted", [
    # outside every RUN: a comment line before the first instruction
    ("FROM debian\nRUN make\n", "FROM", "# note\n"),
    # the RUN line now ends in the escape character: the next RUN joins it
    ("FROM debian\nRUN make\nRUN echo hi\n", "\nRUN echo", " \\"),
    # a heredoc opens, and takes the next lines up to its delimiter
    ("FROM debian\nRUN make\nRUN echo hi \\\nEOF\n", "\nRUN echo", " <<EOF"),
])
def test_an_insertion_that_changes_the_instructions_fails_every_repair(text, at, inserted):
    (read_as, residual, windows), _ = reanalyze(text, text.index(at), inserted)
    assert (read_as, residual, windows) == (None, [], {})


@settings(max_examples=60, deadline=None)
@given(dockerfiles())
def test_enrichment_idempotent(text):
    from slimdock.enrich import enrich

    ast = parse_and_enrich(text)
    snapshot = [(id(n), frozenset(n.annotations)) for n in ast.root.walk()]
    enrich(ast)
    assert snapshot == [(id(n), frozenset(n.annotations)) for n in ast.root.walk()]


@settings(max_examples=60, deadline=None)
@given(dockerfiles())
def test_unparsed_regions_never_produce_diagnostics(text):
    from slimdock.rules import detect

    ast = parse_and_enrich(text)
    unparsed = [n for n in ast.root.walk() if n.kind is NodeKind.SC_UNPARSED]
    for diagnostic in detect(ast):
        for region in unparsed:
            if region.span and diagnostic.anchor.node.span:
                inside = (
                    region.span.start <= diagnostic.anchor.node.span.start
                    and diagnostic.anchor.node.span.end <= region.span.end
                )
                assert not inside


def reread_runs(text):
    """Per RUN that the first repair round edits: the tree ``fix_text``
    reads it as, a fresh parse and enrichment of the same RUN of the
    printed text, and whether only windows of it were parsed again."""
    ast, lint = analyze_text(text, "<gen>")
    if lint.status == PARSE_FAILED:
        return []
    for diagnostic in lint.diagnostics:
        repair(ast, diagnostic)
    fixed = print_minimal(ast, text)
    read_as, _, windows = _reanalyze(ast, lint.diagnostics, fixed, None)
    if read_as is None:
        return []
    fresh = parse_dockerfile(fixed, "<gen>")
    found = []
    for i, pairs in windows.items():
        new = fresh.runs()[i]
        embed_run(new, "<gen>")
        enrich_node(new)
        found.append((read_as[i], new, pairs[0][0] != [ast.runs()[i]]))
    return found


def shell_nodes(run):
    """What a RUN's shell tree holds, in pre-order: kind, span, literal,
    props, annotations and child count."""
    return [
        (n.kind, n.span, n.literal, n.props, n.annotations, len(n.children))
        for child in run.children
        for n in child.walk()
    ]


def run_node(run):
    """What the DOCKER-RUN node itself holds: span, form and script text."""
    src = run.prop("_script_src")
    return run.span, run.prop("run_form"), run.prop("_script_region"), src and src.clean


def assert_reread_is_fresh(text, spliced=False):
    runs = reread_runs(text)
    for read, fresh, windowed in runs:
        validate_tree(read)
        assert run_node(read) == run_node(fresh)
        assert shell_nodes(read) == shell_nodes(fresh)
    if spliced:
        assert runs and all(windowed for _, _, windowed in runs)


def test_reread_is_fresh_parse_on_data(roundtrip_paths):
    for path in roundtrip_paths:
        assert_reread_is_fresh(read_text(path))


def test_reread_is_fresh_parse_of_a_long_chain():
    assert_reread_is_fresh(chain(50), spliced=True)


@pytest.mark.parametrize("text", [
    # a config statement inserted before element 0, a cleanup appended
    "FROM ruby\nRUN gem update --system && cd /src && make && echo done\n",
    # a flag inserted into a middle element
    "FROM python\nRUN cd /src && pip install flask && make && echo ok\n",
    # a cleanup inserted right before an untouched element
    "FROM debian\nRUN tar -xzf a.tgz && make && echo ok\n",
    # the inserted operand ends in an escaped blank, and the gap has none
    "# escape=`\nFROM debian\nRUN tar -xzf a\\ && make && echo ok\n",
    # an exec-form `sh -c` chain
    'FROM debian\nRUN ["sh", "-c", "cd /src && apt-get install -y x && make"]\n',
    "FROM debian\nRUN apt-get install -y x \\\n    && cd /src \\\n    && make\n",
    # a `#` inside a quoted word starts no comment, in an untouched element
    # and in a touched one
    "FROM debian\nRUN apt-get install -y x && sed -i 's/^#\\s*en_US/en_US/' /etc/locale.gen && make\n",
    "FROM debian\nRUN apt-get install -y x && sed -i 's/^#\\s*en_US/en_US/' /etc/locale.gen\n",
    "FROM debian\nRUN apt-get install -y x && echo a#b > f\n",
])
def test_reread_parses_only_windows(text):
    assert_reread_is_fresh(text, spliced=True)


@pytest.mark.parametrize("text", [
    "FROM debian\nRUN apt-get install -y x && make # note\n",
    "FROM python\nRUN pip install flask # note\n",
])
def test_reread_of_a_window_with_a_comment_falls_back(text):
    """A comment in a window would run past its end: the whole payload
    is parsed again."""
    runs = reread_runs(text)
    assert runs and not any(windowed for _, _, windowed in runs)
    assert_reread_is_fresh(text)


def test_reread_declines_an_escaped_sh_c_string():
    """The parser leaves an `sh -c` string with JSON escapes opaque: a
    printed RUN that gains one keeps that tree, and is read as a whole."""
    text = 'RUN ["sh", "-c", "a && b"]\n'
    ast, _ = analyze_text(text, "<t>")
    (run,) = ast.runs()
    (new,) = parse_dockerfile('RUN ["sh", "-c", "a && b \\"c\\""]\n').runs()
    opaque = list(new.children)
    shift = _Shift([(text.index('b"') + 1, 0, 0, ' \\"c\\"')])
    assert _reread(run, new, shift) is None
    assert new.children == opaque and opaque[0].children[0].kind is NodeKind.SC_UNPARSED


@settings(max_examples=300, deadline=None)
@given(st.one_of(dockerfiles(), anchored_dockerfiles()))
@example("FROM ruby\nRUN gem update --system && cd /src && make && echo done\n")
@example("FROM python\nRUN cd /src && pip install flask && make && echo ok\n")
@example("FROM debian\nRUN tar -xzf a.tgz && make && echo ok\n")
@example("# escape=`\nFROM debian\nRUN apt-get install -y x && tar -xzf a\\\n")
@example("# escape=`\nFROM debian\nRUN tar -xzf a\\ && make && echo ok\n")
# the touched element holds a `#` inside a word, which starts no comment
@example("FROM debian\nRUN apt-get install -y curl && curl -o f http://x/#frag\n")
@example('FROM debian\nRUN ["sh", "-c", "apt-get install -y x && make"]\n')
def test_reread_is_fresh_parse(text):
    assert_reread_is_fresh(text)
