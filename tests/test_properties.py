"""Property tests: round-trip identity, fix idempotence, that every
repair reported applied is gone when the fixed file is parsed again, and
that the residual of a fix is what a lint of the fixed file reports."""

import json
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings, strategies as st

from slimdock import runner
from slimdock.dockerfile import parse_dockerfile
from slimdock.enrich import embed_run, enrich_node, parse_and_enrich
from slimdock.model import NodeKind, validate_tree
from slimdock.printer import print_minimal
from slimdock.rules import RuleId, repair
from slimdock.runner import (
    PARSE_FAILED, _reanalyze, _reread, _Shift, analyze_text, fix_text,
)
from slimdock.shell import parse_shell
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
        if draw(st.integers(0, 3)) == 0:  # a heredoc after the command
            return f"RUN {body} <<EOF\n{draw(_payload)}\nEOF"
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
# globbed, hold a `;` or a NUL or end in a backslash, in shell form, exec
# form or a heredoc (leading, or after the chain), after a `--mount` flag or
# not, with `&&` gaps with and without blanks, under either escape
# character, with LF or CRLF line endings, with or without a leading BOM and
# a final newline.
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
        heredoc = draw(st.sampled_from(["", "", "leading", "after"]))
        continued = "\\" if heredoc == "leading" else escape  # the shell reads the body
        body = commands[0]
        for command in commands[1:]:
            body += draw(st.sampled_from(
                [" && ", " && ", "&&", " &&", "&& ", " || ", "; ", f" {continued}\n    && "]
            ))
            body += command
        if heredoc == "leading":
            lines.append("RUN " + mount + "<<EOF\n" + body + "\nEOF")
        elif heredoc == "after":
            lines.append("RUN " + mount + body + " && cat <<EOF > /f\n" + commands[0] + "\nEOF")
        else:
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
# the appended `rm` could stand in for the garbled `/usr/src/a\` it repeats
@example("# escape=`\nFROM debian\nRUN mkdir -p /usr/src/'a\\' && mkdir -p /usr/src/a\\\n")
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
    (read_as, residual, garbled), _ = reanalyze(text, text.index(at), inserted)
    assert (read_as, residual, garbled) == (None, [], set())


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
    read_as, _, _ = _reanalyze(ast, lint.diagnostics, fixed, None)
    if read_as is None:
        return []
    fresh, printed = parse_dockerfile(fixed, "<gen>"), parse_dockerfile(fixed, "<gen>")
    found = []
    for i, run in enumerate(ast.runs()):
        if read_as[i] is run:
            continue
        new = fresh.runs()[i]
        embed_run(new, "<gen>")
        enrich_node(new)
        windowed = _reread(run, printed.runs()[i], _Shift(ast.insertions)) is not None
        found.append((read_as[i], new, windowed))
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
    return runs


def test_reread_is_fresh_parse_on_data(roundtrip_paths):
    for path in roundtrip_paths:
        assert_reread_is_fresh(read_text(path))


def test_reread_is_fresh_parse_on_the_workloads(workload_texts):
    """Every RUN that the benchmark's inputs have edited reads as a fresh
    parse: 845 RUNs at the seed the tests read, most of them spliced."""
    runs = [run for text in workload_texts for run in assert_reread_is_fresh(text)]
    assert len(runs) > 800 and sum(windowed for _, _, windowed in runs) > len(runs) // 2


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
    # a comment that ends inside a window reads as in the whole payload
    "FROM python\nRUN <<EOF\npip install x && # note\n  pip install y && make\nEOF\n",
    # the last element of a leading heredoc's script, which ends in line
    # ends: a newline, a blank line, CRLF, and a `<<-` body's tab
    "FROM debian\nRUN <<EOF\ncd /src && pip install x\nEOF\n",
    "FROM debian\nRUN <<EOF\ncd /src && pip install x\n\nEOF\n",
    "FROM debian\r\nRUN <<EOF\r\ncd /src && pip install x\r\nEOF\r\n",
    "FROM debian\nRUN <<-EOF\n\tcd /src && pip install x\n\tEOF\n",
    # the element insertions of ``test_reread_windows_hold_what_changed``
    "FROM debian\nRUN apt-get install --no-install-recommends -y x && make\n",
    "FROM debian\nRUN tar -xzf a.tgz && cd /src && make\n",
    "FROM ruby\nRUN gem update --system && rm -rf /root/.gem\n",
    "FROM debian\nRUN cd /src && apt-get install -y x\n",
    "FROM debian\nRUN cd /src \\\n    && tar -xzf a.tgz \\\n    && make\n",
    "FROM debian\nRUN <<EOF\ngem update --system && rm -rf /root/.gem\nEOF\n",
    "FROM debian\nRUN tar -xzf a.tgz&&make\n",
    "FROM ruby\nRUN gem update --system&&apk add curl&&gpg --verify a.asc a\n",
    "FROM python\nRUN tar -xzf a.tgz && pip install x && make\n",
    "# escape=`\nFROM debian\nRUN <<EOF\napk add x &&\n  apt-get install -y a.tgz && \\\n  make\nEOF\n",
    "FROM debian\nRUN <<EOF\napt-get install -y x \\\n  && make\nEOF\n",
])
def test_reread_parses_only_windows(text):
    assert_reread_is_fresh(text, spliced=True)


def parsed_windows(text, monkeypatch):
    """The text of each window that ``_reanalyze`` parses again after the
    first repair round of ``text``, in order."""
    ast, lint = analyze_text(text, "<gen>")
    for diagnostic in lint.diagnostics:
        repair(ast, diagnostic)
    fixed = print_minimal(ast, text)
    parsed = []

    def recording(clean, **kwargs):
        parsed.append(clean[slice(*kwargs["region"])])
        return parse_shell(clean, **kwargs)

    monkeypatch.setattr(runner, "parse_shell", recording)
    _reanalyze(ast, lint.diagnostics, fixed, None)
    return parsed


@pytest.mark.parametrize("text, windows", [
    # a cleanup appended after an untouched element
    ("FROM debian\nRUN apt-get install --no-install-recommends -y x && make\n",
     ["rm -rf /var/lib/apt/lists/*"]),
    # an adjacent cleanup in mid-chain, up to the original `&&`
    ("FROM debian\nRUN tar -xzf a.tgz && cd /src && make\n", ["rm a.tgz "]),
    # ... and across continued lines
    ("FROM debian\nRUN cd /src \\\n    && tar -xzf a.tgz \\\n    && make\n",
     ["rm a.tgz     "]),
    # a config statement inserted before element 0, up to its own `&&`
    ("FROM ruby\nRUN gem update --system && rm -rf /root/.gem\n",
     ["echo 'gem: --no-document' >> /etc/gemrc "]),
    ("FROM debian\nRUN <<EOF\ngem update --system && rm -rf /root/.gem\nEOF\n",
     ["echo 'gem: --no-document' >> /etc/gemrc "]),
    # a flag and an append on one element are one window
    ("FROM debian\nRUN cd /src && apt-get install -y x\n",
     ["apt-get install --no-install-recommends -y x && rm -rf /var/lib/apt/lists/*"]),
    # the operand ends in an escaped blank, and the gap has none
    ("# escape=`\nFROM debian\nRUN tar -xzf a\\ && make && echo ok\n", ["rm a\\ "]),
    # the `\` that ends `a\` would escape the inserted blank, so its element
    # is read again (the repair rolls back as `words`: see
    # test_rules_repair.py, TestReparseVerification)
    ("# escape=`\nFROM debian\nRUN tar -xzf a\\\n", ["tar -xzf a\\ && rm a\\"]),
    # a window may end at an `&&` with no blank before it
    ("FROM debian\nRUN tar -xzf a.tgz&&make\n", ["rm a.tgz"]),
    ("FROM ruby\nRUN gem update --system&&apk add curl&&gpg --verify a.asc a\n",
     ["echo 'gem: --no-document' >> /etc/gemrc ", "apk add --no-cache curl",
      "rm a.asc && rm -rf /root/.gem"]),
    # an adjacent cleanup and the flagged element after it are one row
    ("FROM python\nRUN tar -xzf a.tgz && pip install x && make\n",
     ["rm a.tgz && pip install --no-cache-dir x "]),
    # a window may end at a leading `&&` after a backslash-newline
    ("FROM debian\nRUN <<EOF\napt-get install -y x \\\n  && make\nEOF\n",
     ["apt-get install --no-install-recommends -y x \\\n  ", "rm -rf /var/lib/apt/lists/*\n"]),
])
def test_reread_windows_hold_what_changed(text, windows, monkeypatch):
    assert parsed_windows(text, monkeypatch) == windows


@pytest.mark.parametrize("text", [
    "FROM debian\nRUN apt-get install -y x && make # note\n",
    "FROM python\nRUN pip install flask # note\n",
    "FROM debian\nRUN <<EOF\napt-get install -y x &&\n  make # note\nEOF\n",
    # the window ends at the last `&&` before `make`, the one in the comment
    "FROM python\nRUN <<EOF\npip install x && # a && b\n  make\nEOF\n",
])
def test_reread_of_a_window_with_a_comment_falls_back(text):
    """A comment in a window would run past its end, or it holds the
    ``&&`` the window ends at: the whole payload is parsed again."""
    runs = reread_runs(text)
    assert runs and not any(windowed for _, _, windowed in runs)
    assert_reread_is_fresh(text)


def test_reread_refuses_a_window_that_ends_in_a_backslash():
    """The whole parse reads `\\&` as an escaped `&`: a window that ends
    in `\\` before an original `&&` is refused."""
    text = "FROM debian\nRUN tar -xzf a.tgz&&make\n"
    (read_as, _, _), fixed = reanalyze(text, text.index("&&"), " && rm x\\")
    assert "rm x\\&&make" in fixed
    fresh = parse_and_enrich(fixed).runs()[0]
    assert shell_nodes(read_as[0]) == shell_nodes(fresh)
    ast = parse_and_enrich(text)
    ast.insertions = [(text.index("&&"), 0, 0, " && rm x\\")]
    (run,), (new,) = ast.runs(), parse_dockerfile(fixed).runs()
    assert _reread(run, new, _Shift(ast.insertions)) is None


@pytest.mark.parametrize("text, at, inserted", [
    # between two elements
    ("FROM debian\nRUN apt-get install -y x &&  make\n", "&&  make", "&& true "),
    # at an element's end, but no `&&` starts a new element there
    ("FROM debian\nRUN apt-get install -y x && make\n", " && make", " -q"),
])
def test_reread_declines_an_insertion_that_no_window_holds(text, at, inserted):
    """No repair inserts such text, but where it is inserted, the whole
    payload is read again, not a window."""
    ast, lint = analyze_text(text, "<gen>")
    ast.insertions = [(text.index(at), 2, 0, inserted)]
    fixed = print_minimal(ast, text)
    read_as, _, _ = _reanalyze(ast, lint.diagnostics, fixed, None)
    assert shell_nodes(read_as[0]) == shell_nodes(parse_and_enrich(fixed).runs()[0])
    (run,), (new,) = ast.runs(), parse_dockerfile(fixed).runs()
    assert _reread(run, new, _Shift(ast.insertions)) is None


def test_reread_declines_an_escaped_sh_c_string():
    """The parser leaves an `sh -c` string with a JSON escape such as `\\t`
    opaque: a printed RUN that gains one keeps that tree, and is read as a
    whole."""
    text = 'RUN ["sh", "-c", "a && b"]\n'
    ast, _ = analyze_text(text, "<t>")
    (run,) = ast.runs()
    (new,) = parse_dockerfile('RUN ["sh", "-c", "a && b \\tc"]\n').runs()
    opaque = new.children
    shift = _Shift([(text.index('b"') + 1, 0, 0, ' \\tc')])
    assert _reread(run, new, shift) is None
    assert new.children is opaque and opaque[0].children[0].kind is NodeKind.SC_UNPARSED


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
