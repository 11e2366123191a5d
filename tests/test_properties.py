"""Property tests: round-trip identity, fix idempotence, that every
repair reported applied is gone when the fixed file is parsed again, and
that the residual of a fix is what a lint of the fixed file reports."""

import json

from hypothesis import example, given, settings, strategies as st

from slimdock.enrich import parse_and_enrich
from slimdock.model import NodeKind
from slimdock.printer import print_minimal
from slimdock.runner import analyze_text, fix_text
from conftest import read_text

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


def smell(diagnostic):
    """RUN ordinal, rule, anchor label, and the anchor's ordinal among the
    RUN's nodes with that label: one smell, before and after a reprint."""
    run, label = diagnostic.run, diagnostic.anchor.label
    runs = [n for n in run.parent.children if n.kind is NodeKind.DOCKER_RUN]
    same = [n for n in run.walk() if label in n.annotations]
    return runs.index(run), diagnostic.rule, label, same.index(diagnostic.anchor.node)


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
    left = {smell(d) for d in report.residual}
    applied = [o for o in report.repairs if o.status == "applied"]
    assert [o.diagnostic.rule for o in applied if smell(o.diagnostic) in left] == []
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
