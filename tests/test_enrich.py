"""Unified AST construction and command/flag/argument annotation."""

import importlib.util
import inspect
import os
import re

import pytest

import slimdock.query as query_mod
import slimdock.rules as rules_mod
from slimdock.dockerfile import parse_dockerfile
from slimdock.enrich import (
    build_unified_ast,
    command_words,
    enrich,
    parse_and_enrich,
)
from slimdock.model import NodeKind
from slimdock.printer import print_minimal
from slimdock.rules import RuleId
from slimdock.runner import analyze_text, fix_text
from slimdock.schemas import LABELS, SCHEMAS
from slimdock.shell import word_text

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def digest_inputs(seeds):
    """(name, text) of every input ``scripts/output_digest.py`` reads:
    ``tests/data`` and the benchmark workloads generated at ``seeds``."""
    path = os.path.join(ROOT, "scripts", "output_digest.py")
    spec = importlib.util.spec_from_file_location("output_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.inputs(seeds)


def first_command(text):
    ast = parse_and_enrich(text)
    run = ast.runs()[0]
    for node in run.walk():
        if node.kind is NodeKind.SC_SIMPLE_COMMAND:
            return node
    raise AssertionError("no command parsed")


def labels_of(text):
    cmd = first_command(text)
    out = {}
    for word in command_words(cmd):
        for label in word.annotations:
            out.setdefault(label, word_text(word))
    return out


class TestBuildUnifiedAst:
    def test_shell_run_gains_script(self):
        ast = build_unified_ast(parse_dockerfile("RUN apk add curl"))
        run = ast.runs()[0]
        assert [c.kind for c in run.children] == [NodeKind.SC_SCRIPT]
        cmd = run.children[0].children[0]
        assert cmd.kind is NodeKind.SC_SIMPLE_COMMAND

    def test_exec_shell_parses_payload(self):
        ast = build_unified_ast(parse_dockerfile('RUN ["sh","-c","pip install flask"]'))
        run = ast.runs()[0]
        script = run.children[0]
        assert script.kind is NodeKind.SC_SCRIPT
        words = [word_text(w) for w in command_words(script.children[0])]
        assert words == ["pip", "install", "flask"]

    def test_exec_array_becomes_single_command(self):
        ast = build_unified_ast(parse_dockerfile('RUN ["./entrypoint","--serve"]'))
        run = ast.runs()[0]
        (cmd,) = run.children
        assert cmd.kind is NodeKind.SC_SIMPLE_COMMAND
        assert [word_text(w) for w in cmd.children] == ["./entrypoint", "--serve"]

    def test_spans_rebased_to_file_coordinates(self):
        src = "FROM x\nRUN apt-get update \\\n && apt-get install -y wget\n"
        ast = build_unified_ast(parse_dockerfile(src))
        run = ast.runs()[0]
        for node in run.walk():
            if node.kind is NodeKind.SC_WORD and word_text(node) == "wget":
                assert src[node.span.start : node.span.end] == "wget"
                assert node.span.start_line == 3
                return
        raise AssertionError("wget word not found")

    def test_shell_warning_names_the_keyword_line(self):
        # after a continued instruction, a heredoc and CRLF lines; the RUN
        # is continued too, and its open quote is on its second line
        src = (
            "FROM x\nRUN a \\\n  b\nRUN <<EOF\necho\nEOF\r\nRUN x\r\n"
            "RUN echo ok && \\\n  echo 'open\n"
        )
        ast = build_unified_ast(parse_dockerfile(src, "D"))
        (warning,) = ast.warnings
        assert warning.startswith("D:8: shell parse degraded to opaque text:")

    def test_idempotent(self):
        ast = build_unified_ast(parse_dockerfile("RUN echo hi"))
        before = len(ast.runs()[0].children)
        build_unified_ast(ast)
        assert len(ast.runs()[0].children) == before


class TestEnrichment:
    def test_apt_get_install_labels(self):
        labels = labels_of("RUN apt-get install wget")
        assert labels["SC-APT-GET"] == "apt-get"
        assert labels["SC-APT-GET-INSTALL"] == "install"

    def test_sudo_wrapped_command_enriched(self):
        labels = labels_of("RUN sudo apt-get update")
        assert not command_words(first_command("RUN sudo apt-get update"))[0].annotations
        assert labels["SC-APT-GET"] == "apt-get"
        assert labels["SC-APT-GET-UPDATE"] == "update"

    def test_unknown_command_gets_nothing(self):
        cmd = first_command("RUN mycustomtool run all")
        assert all(not w.annotations for w in command_words(cmd))

    def test_pip3_flags(self):
        labels = labels_of("RUN pip3 install --no-cache-dir flask")
        assert labels["SC-PIP"] == "pip3"
        assert labels["SC-PIP-INSTALL"] == "install"
        assert labels["SC-PIP-F-NO-CACHE-DIR"] == "--no-cache-dir"

    def test_combined_short_flags_for_tar(self):
        labels = labels_of("RUN tar -xzf app.tgz")
        assert labels["SC-TAR-F-EXTRACT"] == "-xzf"
        assert labels["SC-TAR-F-FILE"] == "-xzf"
        assert labels["SC-TAR-EXTRACT"] == "tar"
        assert labels["SC-TAR-ARCHIVE"] == "app.tgz"

    # Each row read as GNU tar 1.34 reads it (`t` in place of `x`): the
    # archive it names, or None when it names none of these words.
    @pytest.mark.parametrize("command, archive", [
        ("tar xzf app.tgz -C /opt", "app.tgz"),
        ("tar xCf /opt a.tgz", "a.tgz"),  # old-style values go in letter order
        ("tar xfC a.tgz /opt", "a.tgz"),
        ("tar -xCf /opt a.tgz", None),  # -C takes the rest, `f`
        ("tar -xCfa.tgz", None),
        ("tar -xTf list.txt a.tgz", None),  # -T f: an unknown letter ends the cluster
        ("tar -xXf ex.txt a.tgz", None),
        ("tar -xTfiles.txt a.tgz", None),
        ("tar -x -T list.txt -f a.tgz", "a.tgz"),
        ("tar -C /opt -xf a.tgz", "a.tgz"),
        ("tar -x --file=app.tgz", "app.tgz"),
        ("tar -xfapp.tgz", "app.tgz"),
        ("tar -xzfapp.tgz -C /opt", "app.tgz"),
        ("tar -x -- -fb.tgz", None),  # after `--`, a member name
        ("tar -x -- --file=b.tgz", None),
    ])
    def test_tar_reading(self, command, archive):
        words = command_words(first_command(f"RUN {command}"))
        named = [w.prop("value", word_text(w)) for w in words if "SC-TAR-ARCHIVE" in w.annotations]
        assert named == ([archive] if archive else [])
        # a word that carries the archive itself is the -f/--file word
        assert all("SC-TAR-F-FILE" in w.annotations for w in words if w.prop("value"))

    @pytest.mark.parametrize("command, path", [
        ("mkdir -p -- /usr/src/app", "/usr/src/app"),
        ("mkdir -pm 0755 /usr/src/app", "/usr/src/app"),
    ])
    def test_mkdir_path_read(self, command, path):
        cmd = first_command(f"RUN {command}")
        paths = [word_text(w) for w in command_words(cmd) if "SC-MKDIR-PATH" in w.annotations]
        assert paths[-1] == path and "--" not in paths

    @pytest.mark.parametrize("word", ["-fr", "-vr", "-dR", "-Ir", "-ir"])
    def test_rm_letters_before_r(self, word):
        # a letter the schema does not know would end the cluster first
        assert "SC-RM-F-RECURSIVE" in labels_of(f"RUN rm {word} /tmp/x")

    def test_long_flags_match_whole_word_only(self):
        labels = labels_of("RUN pip install --no-cache-dir-ish pkg")
        assert "SC-PIP-F-NO-CACHE-DIR" not in labels

    def test_flag_value_not_mistaken_for_positional(self):
        labels = labels_of("RUN mkdir -m 0755 /usr/src/app")
        assert labels.get("SC-MKDIR-PATH") == "/usr/src/app"

    def test_variable_command_never_enriched(self):
        cmd = first_command("RUN $CMD install x")
        assert all(not w.annotations for w in command_words(cmd))

    def test_path_prefixed_command_uses_basename(self):
        labels = labels_of("RUN /usr/local/bin/pip install x")
        assert labels["SC-PIP"] == "/usr/local/bin/pip"

    def test_bare_yarn_is_implicit_install(self):
        labels = labels_of("RUN yarn --frozen-lockfile")
        assert labels["SC-YARN-INSTALL"] == "yarn"

    def test_yarn_version_not_install(self):
        labels = labels_of("RUN yarn --version")
        assert "SC-YARN-INSTALL" not in labels

    def test_npx_not_enriched(self):
        cmd = first_command("RUN npx create-react-app my-app")
        assert all(not w.annotations for w in command_words(cmd))

    def test_enrichment_inside_substitution(self):
        labels = {}
        ast = parse_and_enrich("RUN V=$(mktemp -d) && echo $V")
        for node in ast.runs()[0].walk():
            for label in node.annotations:
                labels[label] = word_text(node)
        assert labels["SC-MKTEMP"] == "mktemp"
        assert labels["SC-MKTEMP-F-D"] == "-d"

    def test_idempotent(self):
        ast = parse_and_enrich("RUN apt-get install -y wget && pip install x")
        snapshot = {
            id(n): frozenset(n.annotations) for n in ast.root.walk()
        }
        enrich(ast)
        assert snapshot == {id(n): frozenset(n.annotations) for n in ast.root.walk()}

    def test_never_mutates_text_or_flags(self):
        src = "RUN apt-get install -y wget\n"
        ast = parse_and_enrich(src)
        assert ast.insertions == []
        assert print_minimal(ast, src) == src

    def test_coverage_stats_reported(self):
        ast = parse_and_enrich("RUN apt-get update && unknowncmd foo")
        matched, total = ast.root.prop("enrich_stats")
        assert (matched, total) == (1, 2)


COMMAND_LABELS = {schema.command_label() for schema in SCHEMAS}


class TestWrappers:
    @pytest.mark.parametrize("payload, index", [
        ("sudo apt-get install x", 1),
        ("env A=1 pip install x", 2),
        ("ls", None),  # no schema
        ("tar -xzf a.tgz", 0),
        ("sudo -E", None),
        ("sudo -u admin apt-get update", 3),
        ("sudo env A=1 nice -n 10 tar -xzf a.tgz", 6),
        ("/usr/bin/sudo pip install x", 1),
        ("sudo -- env A=1 pip install x", 4),
        # command -v/-V only looks its operand up
        ("command -v yarn", None),
        ("command -V yarn", None),
        ("sudo command -v yarn", None),
        ("command -pv yarn", None),
        ("command yarn install", 1),
        ("command -p yarn install", 2),
        # clusters and attached values
        ("sudo -Eu app pip install x", 3),
        ("sudo -uapp pip install x", 2),
        ("sudo -nE pip install x", 2),
        ("env -uX pip install x", 2),
        ("nice -n10 pip install x", 2),
        # `--` ends any wrapper's options; env's options end at its first operand
        ("nice -- pip install x", 2),
        ("env -- A=1 pip install x", 3),
        ("env A=1 -i pip install x", None),
        ("nice A=1 pip install x", None),  # only env and sudo skip assignments
        ("sudo A=1 pip install x", 2),
        ("sudo -E A=1 pip install x", 3),
        ("sudo A=1 -u x pip install y", None),  # options end at the first assignment
        ("! pip install x", 1),
        ("! -- pip install x", None),  # `!` takes no options: `--` is the command
        # an option the wrapper's table does not know, or a missing value
        ("sudo -Ex pip install y", None),
        ("sudo --bogus pip install x", None),
        ("sudo -u", None),
        ("env --null=x pip install x", None),  # a value for a flag that takes none
    ])
    def test_command_word(self, payload, index):
        words = command_words(first_command(f"RUN {payload}"))
        labelled = [k for k, word in enumerate(words) if COMMAND_LABELS & word.annotations]
        assert labelled == ([] if index is None else [index])
        assert not any(word.annotations for word in words[:index])  # wrapper words

    @pytest.mark.parametrize("run", [
        "RUN /usr/bin/sudo pip install flask",
        'RUN ["/usr/bin/env", "pip", "install", "flask"]',
        "RUN sudo -- /usr/bin/env pip install flask",
    ])
    def test_wrapped_command_detected(self, run):
        _, report = analyze_text(run + "\n", "<test>")
        assert [d.rule for d in report.diagnostics] == [RuleId.pipUseNoCacheDir]
        assert (report.enriched_commands, report.total_commands) == (1, 1)

    def test_wrapper_alone_is_not_enriched(self):
        _, report = analyze_text('RUN ["/usr/bin/env", "true"]\n', "<test>")
        assert (report.enriched_commands, report.total_commands) == (0, 1)


class TestVocabulary:
    """A schema lists the labels a rule reads, plus the flags the walk
    needs to read them right (see ``slimdock.schemas``)."""

    def test_every_label_is_read_or_needed(self):
        read = set()
        for module in (rules_mod, query_mod):
            read.update(re.findall(r'"(SC-[A-Z0-9-]+)"', inspect.getsource(module)))
        needed = set(read)
        for schema in SCHEMAS:
            needed.add(schema.command_label())
            subs = list(schema.subcommands.values())
            while subs:
                sub = subs.pop()
                needed.add(schema.sub_label(sub.canon))
                subs.extend(sub.children.values())
            for flag in schema.flags:
                if (
                    flag.takes_value
                    or flag.semantic
                    or (schema.label in ("TAR", "RM") and any(len(n) == 2 for n in flag.names))
                    or (schema.label == "YARN" and flag.canon in ("HELP", "VERSION"))
                ):
                    needed.add(schema.flag_label(flag.canon))
                if flag.semantic:
                    needed.add(flag.semantic)
        # everything else, roles included, must be read by a rule or query
        assert sorted(LABELS - needed) == []

    def test_every_annotation_is_declared(self):
        # enrichment adds labels unchecked: one built outside the schema
        # tables would show here
        seen = set()
        for name, text in digest_inputs([9]):
            for node in parse_and_enrich(text, name).root.walk():
                seen |= node.annotations
        assert seen and sorted(seen - LABELS) == []

    def test_old_style_tar_needs_every_short_letter(self):
        text = "RUN tar xzvpf a.tgz\n"
        _, report = analyze_text(text, "<test>")
        assert [d.rule for d in report.diagnostics] == [RuleId.tarSomethingRmTheSomething]
        assert fix_text(text, "<test>").fixed == "RUN tar xzvpf a.tgz && rm a.tgz\n"

    def test_wrapper_flag_value_is_not_the_command(self):
        _, report = analyze_text("RUN sudo -u app pip install x\n", "<test>")
        (diagnostic,) = report.diagnostics
        assert diagnostic.rule is RuleId.pipUseNoCacheDir
        assert word_text(diagnostic.anchor.node) == "install"
