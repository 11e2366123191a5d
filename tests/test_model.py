import gc

import pytest

from conftest import read_text
from slimdock.dockerfile import SegmentedText
from slimdock.model import (
    NodeKind,
    SourceMap,
    SourceSpan,
    SpanError,
    UnifiedNode,
    span_text,
    validate_tree,
)
from slimdock.runner import analyze_text, fix_text, process_files


class TestSpanText:
    def test_keyword_slice(self):
        assert span_text("FROM alpine", SourceSpan(0, 4)) == "FROM"

    def test_payload_slice(self):
        assert span_text("RUN ls", SourceSpan(4, 6)) == "ls"

    def test_empty_span(self):
        assert span_text("abc", SourceSpan(1, 1)) == ""

    def test_out_of_bounds_is_parser_bug(self):
        with pytest.raises(SpanError):
            span_text("abc", SourceSpan(1, 9))

    def test_inverted_span_rejected(self):
        with pytest.raises(SpanError):
            SourceSpan(5, 2)


class TestSourceMap:
    def test_positions_are_one_based(self):
        sm = SourceMap("ab\ncd\n")
        assert sm.position(0) == (1, 1)
        assert sm.position(3) == (2, 1)
        assert sm.position(4) == (2, 2)

    def test_span_carries_derived_positions(self):
        sm = SourceMap("FROM x\nRUN y\n")
        span = sm.span(7, 12)
        assert (span.start_line, span.start_col) == (2, 1)
        assert span_text("FROM x\nRUN y\n", span) == "RUN y"

    def test_offsets_authoritative_for_multibyte(self):
        text = "RUN echo café done"
        sm = SourceMap(text)
        span = sm.span(9, 13)
        assert span_text(text, span) == "café"

    @pytest.mark.parametrize("start, end", [(1, 9), (4, 4), (2, 1), (-1, 1)])
    def test_bad_span_raises_when_built(self, start, end):
        with pytest.raises(SpanError):
            SourceMap("abc").span(start, end)


class TestLazyPositions:
    def test_every_node_position_matches_source_map(self, roundtrip_paths):
        """Line/column read from a parsed, unified and enriched tree equal
        SourceMap.position of the node's offsets, over every data file;
        those cover CRLF, continuations, heredocs and `# escape=`."""
        from conftest import read_text
        from slimdock.enrich import parse_and_enrich

        texts = [read_text(path) for path in roundtrip_paths]
        for feature in ("\r\n", "\\\n", "<<EOF", "# escape=`"):
            assert any(feature in text for text in texts), feature
        for path, text in zip(roundtrip_paths, texts):
            sm = SourceMap(text)
            for node in parse_and_enrich(text, path).root.walk():
                span = node.span
                assert (span.start_line, span.start_col) == sm.position(span.start), path
                assert (span.end_line, span.end_col) == sm.position(span.end), path

    def test_span_without_map_reports_first_line(self):
        span = SourceSpan(3, 5)
        assert (span.start_line, span.start_col, span.end_line, span.end_col) == (1, 1, 1, 1)
        assert span == SourceSpan(3, 5) and hash(span) == hash(SourceSpan(3, 5))
        assert span != SourceMap("ab\ncd").span(3, 5)
        assert span != (3, 5) and repr(span) == "SourceSpan(3, 5)"

    def test_position_out_of_range_raises(self):
        with pytest.raises(SpanError):
            SourceMap("abc").position(4)

    def test_segmented_span_past_the_source_raises(self):
        text = "ab\ncd"
        seg = SegmentedText(text, [(0, 2), (3, 5)], SourceMap(text))
        assert (seg.span(1, 3).start, seg.span(1, 3).end) == (1, 4)
        broken = SegmentedText(text, [(0, 9)], SourceMap(text))  # a parser bug
        with pytest.raises(SpanError):
            broken.span(0, 7)


class TestTreeSurgery:
    def test_a_node_is_built_with_its_children(self):
        b = UnifiedNode(NodeKind.SC_WORD)
        a = UnifiedNode(NodeKind.SC_SCRIPT, children=(b,))
        assert a.children == (b,)
        validate_tree(a)
        with pytest.raises(TypeError, match="are not a tuple"):
            validate_tree(UnifiedNode(NodeKind.SC_SCRIPT, children=[b]))

    def test_a_leaf_has_the_empty_tuple_for_children(self):
        leaf, other = UnifiedNode(NodeKind.SC_WORD), UnifiedNode(NodeKind.SC_WORD)
        assert leaf.children == () and leaf.children is other.children

    def test_set_prop_on_a_node_without_props(self):
        node, other = UnifiedNode(NodeKind.SC_WORD), UnifiedNode(NodeKind.SC_WORD)
        node.set_prop("text", "a")
        node.set_prop("value", "b")
        assert node.props == {"text": "a", "value": "b"} and other.props == {}
        assert node.prop("value") == "b" and other.prop("value") is None

    def test_a_moved_copy_shares_what_it_does_not_change(self):
        sm = SourceMap("ab cd")
        word = UnifiedNode(NodeKind.SC_WORD, sm.span(0, 2), "ab")
        word.set_prop("text", "ab")
        word.annotate("SC-ECHO")
        copy = word.moved(3, sm.span(0, 5))
        assert (copy.span.start, copy.span.end) == (3, 5)
        assert copy.props is word.props and copy.annotations is word.annotations
        copy.annotate("SC-RM")
        copy.set_prop("value", "x")
        assert word.annotations == {"SC-ECHO"} and copy.annotations == {"SC-ECHO", "SC-RM"}
        assert word.props == {"text": "ab"}

    def test_labels_are_interned_per_combination(self):
        a, b = UnifiedNode(NodeKind.SC_WORD), UnifiedNode(NodeKind.SC_WORD)
        for node in (a, b):
            node.annotate("SC-ECHO")
            node.annotate("SC-RM")
        assert a.annotations is b.annotations

    def test_a_child_that_escapes_its_parent_is_refused(self):
        child = UnifiedNode(NodeKind.SC_WORD, SourceSpan(1, 3), "ab")
        parent = UnifiedNode(NodeKind.SC_SCRIPT, SourceSpan(0, 2), children=(child,))
        with pytest.raises(SpanError, match="<SC-WORD 1:3 'ab'> escapes parent <SC-SCRIPT 0:2>"):
            validate_tree(parent)


# The props each node kind may carry: what some rule, repair, verification
# step or report reads. A kind that is not listed carries none.
TREE_PROPS = {
    NodeKind.DOCKER_FILE: {"enrich_stats"},
    NodeKind.DOCKER_RUN: {"run_form", "_script_src", "_script_region"},
    NodeKind.SC_SIMPLE_COMMAND: {"exec_array"},
    NodeKind.SC_WORD: {"text", "value"},
    NodeKind.SC_ASSIGNMENT: {"name"},
    NodeKind.SC_REDIRECTION: {"op"},
}


class TestTreeVocabulary:
    def test_props_are_what_the_program_reads(self, roundtrip_paths):
        texts = [read_text(path) for path in roundtrip_paths] + [
            "FROM x\nRUN tar --file=a.tgz -x\n",  # value
            'FROM x\nRUN ["pip", "install", "x"]\n',  # exec_array
            'FROM x\nRUN ["sh", "-c", "echo a\\tb"]\n',  # escaped: no _script_* prop
        ]
        seen = set()
        for text in texts:
            ast, _ = analyze_text(text, "<test>")
            for node in ast.root.walk():
                assert set(node.props) <= TREE_PROPS.get(node.kind, set()), node
                seen.update((node.kind, key) for key in node.props)
        # every listed prop is set somewhere, so the table is not stale
        assert seen == {(kind, key) for kind, keys in TREE_PROPS.items() for key in keys}


# a chain RUN; a repair that rolls back (`&& rm a\` turns the word `a\`
# into `a `); an unterminated quote, read as SC-UNPARSED; exec form; a heredoc
ACYCLIC_INPUTS = {
    "chain": "FROM debian\nRUN apt-get install -y x && tar -xzf a.tgz && mkdir /usr/src/a\n",
    "rollback": "# escape=`\nFROM debian\nRUN apt-get install -y x && tar -xzf a\\\n",
    "unparsed": "FROM debian\nRUN echo 'open && apt-get install -y x\n",
    "exec form": 'FROM debian\nRUN ["pip", "install", "x"]\n',
    "heredoc": "FROM debian\nRUN <<EOF\napt-get install -y x\nEOF\n",
}


def cyclic_garbage(call):
    """How many objects ``call()`` leaves that only the cyclic collector
    can free."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


class TestNoCycles:
    """A node links to its children only, and a batch report holds no
    tree: reference counting frees every tree once its report is built."""

    @pytest.mark.parametrize("run", [analyze_text, fix_text])
    @pytest.mark.parametrize("text", ACYCLIC_INPUTS.values(), ids=ACYCLIC_INPUTS)
    def test_analysis_leaves_no_cyclic_garbage(self, run, text):
        assert cyclic_garbage(lambda: run(text, "Dockerfile")) == 0

    def test_inputs_take_the_paths_named(self):
        statuses = {name: [o.status for o in fix_text(text, "Dockerfile").repairs]
                    for name, text in ACYCLIC_INPUTS.items()}
        assert statuses["rollback"] == ["rolled-back"] * 3
        (run,) = analyze_text(ACYCLIC_INPUTS["unparsed"], "Dockerfile")[0].runs()
        assert [n.kind for n in run.walk()][-1] is NodeKind.SC_UNPARSED

    def test_batch_leaves_no_cyclic_garbage(self, fixture_paths):
        paths = sorted(fixture_paths.values())[:6]
        reports = []
        assert cyclic_garbage(lambda: reports.extend(process_files(paths, fix=True))) == 0
        assert len(reports) == 6 and any(r.repairs for r in reports)
        outcomes = [o.diagnostic for r in reports for o in r.repairs]
        assert all(d.run is None and d.anchor is None
                   for r in reports for d in r.diagnostics + r.residual + outcomes)
