"""The per-RUN statement index: anchors, statement order, cleanup queries."""

import pytest

from slimdock.enrich import parse_and_enrich
from slimdock.model import NodeKind
from slimdock.query import (
    PatternConfigError,
    RunIndex,
    checked_label,
    path_covers,
    statement_has,
)
from slimdock.rules import RULES, Rule, RuleId, detect


def run_of(text):
    ast = parse_and_enrich(text)
    return ast.runs()[0]


class TestFindAll:
    """Which nodes the index offers as anchors, and with which statement."""

    def test_npm_cache_clean_single_match(self):
        run = run_of("RUN npm cache clean")
        anchors = RunIndex(run).anchors("SC-NPM-CACHE-CLEAN")
        assert len(anchors) == 1
        assert anchors[0].statement.kind is NodeKind.SC_SIMPLE_COMMAND

    def test_must_not_exist_defeated_by_flag(self):
        run = run_of("RUN npm cache clean --force")
        (anchor,) = RunIndex(run).anchors("SC-NPM-CACHE-CLEAN")
        assert statement_has(anchor.statement, "SC-NPM-F-FORCE")
        assert detect(parse_and_enrich("RUN npm cache clean --force")) == []

    def test_two_pip_installs_two_matches_in_order(self):
        run = run_of("RUN pip install a && pip install b")
        anchors = RunIndex(run).anchors("SC-PIP-INSTALL")
        assert len(anchors) == 2
        assert anchors[0].node.span.start < anchors[1].node.span.start
        assert anchors[0].statement_position < anchors[1].statement_position

    def test_kind_target(self):
        # each command of a `;` sequence is its own statement
        run = run_of("RUN echo one; echo two")
        anchors = RunIndex(run).anchors("SC-ECHO")
        assert [a.statement.kind for a in anchors] == [NodeKind.SC_SIMPLE_COMMAND] * 2
        assert anchors[0].statement is not anchors[1].statement

    def test_unknown_label_fails_fast(self):
        # a misspelled label fails when the rule is built, before any file
        with pytest.raises(PatternConfigError):
            Rule(RULES[0].id, "d", "append", ("SC-NO-SUCH-LABEL",), lambda s, a: {})
        with pytest.raises(PatternConfigError):
            checked_label("SC-NO-SUCH-LABEL")

    def test_unparsed_regions_never_match(self):
        text = "RUN pip install flask 'oops"
        run = run_of(text)
        assert RunIndex(run).anchors("SC-PIP-INSTALL") == []
        assert not any(node.annotations for node in run.walk())
        assert detect(parse_and_enrich(text)) == []

    def test_word_test_exact_and_glob(self):
        run = run_of("RUN rm -rf /tmp/firefox.*")
        index = RunIndex(run)
        assert index.removed_after(-1, "/tmp/firefox.*", recursive=False)
        assert index.removed_after(-1, "/tmp/firefox.tar.bz2", recursive=True)
        assert not index.removed_after(-1, "/srv/firefox.tar.bz2", recursive=False)

    def test_determinism(self):
        run = run_of("RUN pip install a && pip install b")
        first = [a.node for a in RunIndex(run).anchors("SC-PIP-INSTALL")]
        second = [a.node for a in RunIndex(run).anchors("SC-PIP-INSTALL")]
        assert first == second

    def test_monotonic_under_unrelated_annotation(self):
        run = run_of("RUN pip install a")
        before = [a.node for a in RunIndex(run).anchors("SC-PIP-INSTALL")]
        for node in run.walk():
            if node.kind is NodeKind.SC_WORD:
                node.annotate("SC-ECHO")  # unrelated label
        after = [a.node for a in RunIndex(run).anchors("SC-PIP-INSTALL")]
        assert before == after

    def test_scope_soundness(self):
        ast = parse_and_enrich("RUN pip install a\nRUN pip install b")
        first_run = ast.runs()[0]
        in_scope = {id(n) for n in first_run.walk()}
        anchors = RunIndex(first_run).anchors("SC-PIP-INSTALL")
        assert len(anchors) == 1
        for anchor in anchors:
            assert id(anchor.node) in in_scope
            assert id(anchor.statement) in in_scope


class TestHolds:
    """Cleanup and ordering queries, compared by statement position."""

    def test_after_within_same_run(self):
        run = run_of("RUN apt-get install -y x && rm -rf /var/lib/apt/lists/*")
        index = RunIndex(run)
        (anchor,) = index.anchors("SC-APT-GET-INSTALL")
        assert index.removed_after(
            anchor.statement_position, "/var/lib/apt/lists/*", recursive=True
        )

    def test_after_does_not_cross_runs(self):
        ast = parse_and_enrich(
            "RUN apt-get install -y x\nRUN rm -rf /var/lib/apt/lists/*"
        )
        index = RunIndex(ast.runs()[0])
        (anchor,) = index.anchors("SC-APT-GET-INSTALL")
        assert not index.later("SC-RM", anchor.statement_position)
        assert not index.removed_after(
            anchor.statement_position, "/var/lib/apt/lists/*", recursive=True
        )
        rules = [r.rule for r in detect(ast)]
        assert RuleId.aptGetInstallThenRemoveAptLists in rules

    def test_in_node(self):
        run = run_of("RUN apk add --no-cache curl")
        (anchor,) = RunIndex(run).anchors("SC-APK-ADD")
        assert statement_has(anchor.statement, "SC-APK-F-NO-CACHE")

    def test_before(self):
        run = run_of("RUN echo 'gem: --no-document' >> /etc/gemrc && gem update --system")
        index = RunIndex(run)
        (gem,) = index.anchors("SC-GEM-UPDATE")
        (echo,) = index.anchors("SC-ECHO")
        assert echo.statement_position < gem.statement_position
        assert not index.later("SC-ECHO", gem.statement_position)
        assert index.later("SC-GEM-UPDATE", echo.statement_position)

    def test_statement_level_not_byte_level(self):
        # the rm is earlier in the same statement list, not merely textually
        run = run_of("RUN rm -rf /a && apt-get install -y x")
        index = RunIndex(run)
        (anchor,) = index.anchors("SC-APT-GET-INSTALL")
        (rm,) = index.anchors("SC-RM")
        assert rm.statement_position < anchor.statement_position
        assert not index.later("SC-RM", anchor.statement_position)
        assert not index.removed_after(anchor.statement_position, "/a", recursive=True)


class TestPathCovers:
    @pytest.mark.parametrize(
        "operand,target,expected",
        [
            ("/var/lib/apt/lists/*", "/var/lib/apt/lists/*", True),
            ("/var/lib/apt/lists", "/var/lib/apt/lists/*", True),
            ("/var/lib/apt/*", "/var/lib/apt/lists/*", True),
            ("/tmp/firefox.*", "/tmp/firefox.tar.bz2", True),
            ("gsl.tgz", "gsl.tgz", True),
            ("./gsl.tgz", "gsl.tgz", True),
            ("/usr/src/app/*", "/usr/src/app", True),
            ("/usr/src/app", "/usr/src/app/", True),
            ("other.tgz", "gsl.tgz", False),
            ("/var/cache/yum", "/var/cache/dnf", False),
            # covering is directional: a concrete operand does not satisfy
            # a glob target (it removes one file of many)
            ("/tmp/firefox.tar.bz2", "/tmp/firefox.*", False),
        ],
    )
    def test_covers(self, operand, target, expected):
        assert path_covers(operand, target) is expected

    @pytest.mark.parametrize(
        "operand,target,target_glob,expected",
        [
            # an operand whose `*` was quoted removes a file named `*`
            ("/usr/src/*", "/usr/src/x", False, False),
            ("/usr/src/*", "/usr/src", False, False),
            ("/var/lib/apt/lists/*", "/var/lib/apt/lists/*", True, False),
            ("/usr/src/[ab]", "/usr/src/a", False, False),
            # ... which is the same path as a target with that name
            ("/usr/src/*", "/usr/src/*", False, True),
            # a directory covers its contents, glob or not
            ("/usr/src/a", "/usr/src/a/*", False, True),
            ("/var/lib/apt/lists", "/var/lib/apt/lists/*", True, True),
        ],
    )
    def test_operand_that_is_not_a_glob(self, operand, target, target_glob, expected):
        assert path_covers(operand, target, False, target_glob) is expected


class TestQuotedGlobOperands:
    """An rm operand is a glob only where its `*`, `?` or `[` is unquoted."""

    @pytest.mark.parametrize(
        "text,smells",
        [
            ("RUN mkdir /usr/src/x && rm -rf '/usr/src/*'", True),
            ("RUN mkdir /usr/src/x && rm -rf /usr/src/\\*", True),
            ("RUN mkdir /usr/src/x && rm -rf /usr/src/*", False),
            ("RUN mkdir '/usr/src/*' && rm -rf '/usr/src/*'", False),
            ('RUN apt-get install x && rm -rf "/var/lib/apt/lists/*"', True),
            ("RUN apt-get install x && rm -rf /var/lib/apt/lists/*", False),
            ('RUN apt-get install x && rm -rf "/var/lib/apt/lists"/*', False),
        ],
    )
    def test_rows(self, text, smells):
        found = {d.rule for d in detect(parse_and_enrich(text))}
        cleanups = {RuleId.mkdirUsrSrcThenRemove, RuleId.aptGetInstallThenRemoveAptLists}
        assert bool(found & cleanups) is smells


class TestGlobTargets:
    """A glob target is no name: a glob operand covers it when it is the
    same glob (a run of `*` read as one), or when it covers the target's
    literal directory."""

    @pytest.mark.parametrize(
        "operand,smells",
        [
            ("/var/lib/apt/lists/?", True),
            ("/var/lib/apt/lists/[*]", True),
            ("/var/lib/apt/lists/*.deb", True),
            ('"/var/lib/apt/lists/*"', True),
            ("*", False),
            ("**", False),
            ("/var/lib/apt/lists/**", False),
            ("/var/lib/apt/*", False),
            ("/var/lib/apt/lists", False),
            ("/var/lib/apt/lists/", False),
            # an absolute glob matches per path component, and covers
            # what a directory it matches holds
            ("/var/*/lists", True),
            ("/v*s", True),
            ("/var/*", False),
            ("/*", False),
            ("/var/lib/*/lists", False),
        ],
    )
    def test_apt_lists_rows(self, operand, smells):
        found = {d.rule for d in detect(parse_and_enrich("RUN apt-get install -y x && rm -rf " + operand))}
        assert (RuleId.aptGetInstallThenRemoveAptLists in found) is smells

    @pytest.mark.parametrize(
        "operand,target,expected",
        [
            ("/usr/src/a/?", "/usr/src/a/?", True),
            ("/usr/src/a/**", "/usr/src/a/*", True),
            ("/usr/src/a/*", "/usr/src/a/?", True),
            ("/usr/src/*", "/usr/src/a/*.deb", True),
            ("/usr/s?c", "/usr/src/a/*.deb", True),
            ("/usr/*/b", "/usr/src/a/b/*", False),
            ("/usr/src", "/usr/src/a/[ab]", False),
            ("/usr/src/a/?", "/usr/src/a/*", False),
            ("/usr/src/a/[*]", "/usr/src/a/*", False),
            ("/usr/src/a/*.deb", "/usr/src/a/*", False),
            ("/usr/src/a*", "*", False),  # no literal directory
        ],
    )
    def test_covers(self, operand, target, expected):
        assert path_covers(operand, target, True, True) is expected


class TestCaptured:
    """The variable a statement's output is assigned to, from the walk
    down: through a substitution held by an assignment, and the lists and
    pipelines in it."""

    @pytest.mark.parametrize(
        "text,name",
        [
            ("RUN D=$(mktemp -d)", "D"),
            ("RUN D=$(cd /tmp && mktemp -d)", "D"),
            ("RUN D=$(true || mktemp -d)", "D"),
            ("RUN D=$(mktemp -d | tee log)", "D"),
            ("RUN D=$(mktemp -d; true)", "D"),
            ('RUN D="$(mktemp -d)"', "D"),
            ("RUN D=`mktemp -d`", "D"),
            ("RUN D=$(E=$(mktemp -d) && echo $E)", "E"),
            ("RUN mktemp -d", None),
            ('RUN echo "$(mktemp -d)"', None),
            ("RUN D=$( (mktemp -d) )", None),
            ("RUN D=$(if true; then mktemp -d; fi)", None),
        ],
    )
    def test_mktemp(self, text, name):
        index = RunIndex(run_of(text))
        (anchor,) = index.anchors("SC-MKTEMP")
        assert index.captured(anchor.statement) == name


class TestRemovedAfter:
    """A later rm covers a target when an operand covers it (path_covers)
    and, if asked for, the rm is recursive."""

    def test_position_and_recursive_flag(self):
        run = run_of(
            "RUN rm -rf /var/lib/apt/lists && apt-get install -y p && rm -f ./gsl.tgz"
        )
        index = RunIndex(run)
        (anchor,) = index.anchors("SC-APT-GET-INSTALL")
        where = anchor.statement_position
        assert index.removed_after(where, "gsl.tgz", recursive=False)
        assert not index.removed_after(where, "gsl.tgz", recursive=True)
        assert not index.removed_after(where, "other.tgz", recursive=False)
        assert not index.removed_after(where, "/var/lib/apt/lists/*", recursive=True)
        assert index.removed_after(-1, "/var/lib/apt/lists/*", recursive=True)
