"""Minimal-diff reprinting: identity, the splice of insertions, locality,
and the joiner's style."""

import pytest

from slimdock.enrich import parse_and_enrich
from slimdock.printer import print_minimal, unified_diff
from slimdock.runner import analyze_text, fix_text


class TestIdentity:
    def test_zero_modifications_byte_identical(self):
        src = "# hi\nFROM a\n\nRUN echo 'kept  spacing'   \nCMD [\"x\"]\n"
        ast = parse_and_enrich(src)
        assert print_minimal(ast, src) == src

    def test_identity_with_unparsed_regions(self):
        src = "FROM a\nRUN echo 'never closed\n"
        ast = parse_and_enrich(src)
        assert print_minimal(ast, src) == src


class TestSplice:
    """``print_minimal`` splices the recorded ``(offset, rank, order, text)``
    insertions into the source text; it reads nothing else of the tree."""

    def test_insertions_spliced_in_offset_rank_order(self):
        src = "RUN a && b\n"
        ast = parse_and_enrich(src)
        ast.insertions += [
            (10, 1, 3, " && d"),
            (5, 0, 0, " -x"),
            (10, 1, 2, " && c"),
            (10, 0, 9, " -y"),
        ]
        assert print_minimal(ast, src) == "RUN a -x && b -y && c && d\n"

    def test_insertions_at_both_ends(self):
        src = "RUN a"
        ast = parse_and_enrich(src)
        ast.insertions += [(len(src), 1, 1, " && z"), (0, 1, 0, "# head\n")]
        assert print_minimal(ast, src) == "# head\nRUN a && z"

    def test_original_defaults_to_parsed_source(self):
        src = "FROM a\nRUN yarn install\n"
        report = fix_text(src, "<t>")
        ast = parse_and_enrich(src)
        ast.insertions.append((len(src) - 1, 1, 0, " && yarn cache clean"))
        assert print_minimal(ast) == print_minimal(ast, src) == report.fixed


class TestDiffShape:
    def _forty_line_file(self):
        lines = ["FROM node:18"]
        for i in range(19):
            lines.append(f"ENV VAR{i}=value{i}")
        lines.append("RUN npm cache clean")  # line 21
        for i in range(18):
            lines.append(f"LABEL key{i}=v{i}")
        lines.append('CMD ["node"]')
        return "\n".join(lines) + "\n"

    def test_npm_force_touches_exactly_one_line(self):
        src = self._forty_line_file()
        report = fix_text(src, "Dockerfile")
        diff = report.diff()
        minus = [l for l in diff.splitlines() if l.startswith("-") and not l.startswith("---")]
        plus = [l for l in diff.splitlines() if l.startswith("+") and not l.startswith("+++")]
        assert minus == ["-RUN npm cache clean"]
        assert plus == ["+RUN npm cache clean --force"]
        assert "@@ -21" in diff and "+21" in diff

    def test_no_change_empty_diff(self):
        assert unified_diff("same\n", "same\n", "f") == ""

    def test_a_lint_report_has_no_diff(self):
        _, report = analyze_text("FROM a\nRUN pip install x\n", "Dockerfile")
        assert report.fixed is None and report.diff() == ""

    @pytest.mark.parametrize("src, hunk", [
        # a last line without a line end is marked, as GNU diff marks it
        ("FROM a\nRUN pip install x",
         "-RUN pip install x\n\\ No newline at end of file\n"
         "+RUN pip install --no-cache-dir x\n\\ No newline at end of file\n"),
        # only a line feed ends a line
        ("FROM a\nRUN pip install x # a\rb\x0cc\n",
         "-RUN pip install x # a\rb\x0cc\n+RUN pip install --no-cache-dir x # a\rb\x0cc\n"),
    ])
    def test_each_line_of_a_hunk_ends_in_a_line_feed(self, src, hunk):
        assert fix_text(src, "Dockerfile").diff() == (
            "--- a/Dockerfile\n+++ b/Dockerfile\n@@ -2 +2 @@\n" + hunk
        )


class TestContinuationStyle:
    def test_append_follows_continued_style(self):
        src = (
            "FROM debian\n"
            "RUN apt-get update \\\n"
            "    && apt-get install -y --no-install-recommends x \\\n"
            "    && apt-get install -y --no-install-recommends y \\\n"
            "    && echo done\n"
        )
        out = fix_text(src, "f").fixed
        assert "\\\n    && rm -rf /var/lib/apt/lists/*" in out
        # untouched prefix preserved byte-for-byte
        assert out.startswith("FROM debian\nRUN apt-get update \\\n")

    def test_inline_chain_stays_inline(self):
        src = "RUN apt-get install -y --no-install-recommends x && echo ok\n"
        out = fix_text(src, "f").fixed
        assert out == (
            "RUN apt-get install -y --no-install-recommends x && echo ok"
            " && rm -rf /var/lib/apt/lists/*\n"
        )

    def test_trailing_operator_style(self):
        src = (
            "RUN apt-get update && \\\n"
            "    apt-get install -y --no-install-recommends x\n"
        )
        out = fix_text(src, "f").fixed
        assert out == (
            "RUN apt-get update && \\\n"
            "    apt-get install -y --no-install-recommends x && \\\n"
            "    rm -rf /var/lib/apt/lists/*\n"
        )

    def test_backtick_escape_style(self):
        src = (
            "# escape=`\n"
            "FROM x\n"
            "RUN apt-get update `\n"
            "    && apt-get install -y --no-install-recommends a `\n"
            "    && apt-get install -y --no-install-recommends b `\n"
            "    && echo fin\n"
        )
        out = fix_text(src, "f").fixed
        assert "`\n    && rm -rf /var/lib/apt/lists/*" in out


class TestDiffLocality:
    def test_touched_lines_within_run_block(self):
        src = (
            "FROM debian\n"
            "ENV A=1\n"
            "RUN apt-get update \\\n"
            "    && apt-get install -y x\n"
            "ENV B=2\n"
            'CMD ["bash"]\n'
        )
        report = fix_text(src, "f")
        diff = report.diff()
        changed = [
            l[1:]
            for l in diff.splitlines()
            if (l.startswith("-") or l.startswith("+"))
            and not l.startswith(("---", "+++"))
        ]
        for line in changed:
            assert "FROM" not in line and "ENV" not in line and "CMD" not in line
