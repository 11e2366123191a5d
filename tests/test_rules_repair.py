"""Repair transformations, placement decisions, and the verification of
every repair on the reparse of the fixed file."""

import dataclasses

import pytest

import slimdock.rules as rules_mod
from slimdock.enrich import parse_and_enrich
from slimdock.model import NodeKind
from slimdock.printer import print_minimal
from slimdock.rules import (
    RuleId,
    detect,
    repair,
    rule_for,
    verify_or_rollback,
)
from slimdock.runner import fix_text
from test_properties import assert_reread_is_fresh


def fix(text, rules=None):
    return fix_text(text, "<test>", rules).fixed


class TestFlagRepairs:
    def test_npm_force(self):
        assert fix("RUN npm cache clean\n") == "RUN npm cache clean --force\n"

    def test_pip_flag_goes_right_after_subcommand(self):
        assert (
            fix("RUN pip install -r reqs.txt flask\n")
            == "RUN pip install --no-cache-dir -r reqs.txt flask\n"
        )

    def test_apk_no_cache(self):
        assert fix("RUN apk add curl git\n") == "RUN apk add --no-cache curl git\n"

    def test_apt_flag_and_cleanup_compose(self):
        assert fix("RUN apt-get install -y wget\n") == (
            "RUN apt-get install --no-install-recommends -y wget"
            " && rm -rf /var/lib/apt/lists/*\n"
        )

    def test_flag_repair_inside_semicolon_sequence(self):
        # flag additions do not touch the chain, so the sequence shape is fine
        out = fix("RUN pip install a; pip install b\n")
        assert out == "RUN pip install --no-cache-dir a; pip install --no-cache-dir b\n"


class TestAppendRepairs:
    def test_single_command_gets_wrapped(self):
        assert fix("RUN yarn install\n") == "RUN yarn install && yarn cache clean\n"

    def test_append_at_end_of_chain(self):
        assert fix("RUN yum install -y x && yum clean all\n") == (
            "RUN yum install -y x && yum clean all && rm -rf /var/cache/yum\n"
        )

    def test_mktemp_append_quotes_variable(self):
        assert fix("RUN T=$(mktemp -d) && make -C $T\n") == (
            'RUN T=$(mktemp -d) && make -C $T && rm -rf "$T"\n'
        )

    @pytest.mark.parametrize("text", [
        "FROM d\r\nRUN apt-get update && \\\r\n    apt-get install -y x\r\n",
        "FROM d\r\nRUN apt-get update \\\r\n    && apt-get install -y x\r\n",
    ])
    def test_continued_joiner_takes_the_crlf_line_end(self, text):
        report = fix_text(text, "<t>")
        assert [o.status for o in report.repairs] == ["applied", "applied"]
        assert "rm -rf /var/lib/apt/lists/*\r\n" in report.fixed
        assert "\n" not in report.fixed.replace("\r\n", "")  # no bare LF
        assert_reread_is_fresh(text, spliced=True)

    def test_npm_install_cleanup(self):
        assert fix("RUN npm install --production\n") == (
            "RUN npm install --production && npm cache clean --force\n"
        )

    def test_each_cleanup_appended_once_per_run(self):
        report = fix_text(
            "RUN apt-get install -y a && apt-get install -y b && npm install && npm install\n",
            "<t>",
        )
        assert report.fixed == (
            "RUN apt-get install --no-install-recommends -y a"
            " && apt-get install --no-install-recommends -y b && npm install && npm install"
            " && rm -rf /var/lib/apt/lists/* && npm cache clean --force\n"
        )
        assert [o.status for o in report.repairs] == ["applied"] * 6
        # the second apt-get and npm install cleanups have the text already appended
        assert [len(o.edits) > 0 for o in report.repairs] == [True, True, True, False, True, False]
        assert report.residual == []

    @pytest.mark.parametrize(
        "text, fixed, edited",
        [
            # `rm -rf /usr/src/a` already removes what is in it
            (
                "RUN mkdir /usr/src/a && mkdir '/usr/src/a/*'\n",
                "RUN mkdir /usr/src/a && mkdir '/usr/src/a/*' && rm -rf /usr/src/a\n",
                [True, False],
            ),
            (
                "RUN mkdir /usr/src/* && mkdir /usr/src/x\n",
                "RUN mkdir /usr/src/* && mkdir /usr/src/x && rm -rf /usr/src/*\n",
                [True, False],
            ),
            # a literal directory covers what it holds
            (
                "RUN mkdir /usr/src/a && mkdir /usr/src/a/b\n",
                "RUN mkdir /usr/src/a && mkdir /usr/src/a/b && rm -rf /usr/src/a\n",
                [True, False],
            ),
            # the other way round, neither covers the other
            (
                "RUN mkdir /usr/src/a/b && mkdir /usr/src/a\n",
                "RUN mkdir /usr/src/a/b && mkdir /usr/src/a && rm -rf /usr/src/a/b"
                " && rm -rf /usr/src/a\n",
                [True, True],
            ),
            # a quoted `*` removes a file named `*`, not what is in /usr/src
            (
                "RUN mkdir /usr/src/x && rm -rf '/usr/src/*'\n",
                "RUN mkdir /usr/src/x && rm -rf '/usr/src/*' && rm -rf /usr/src/x\n",
                [True],
            ),
        ],
    )
    def test_cleanup_an_appended_rm_covers_is_not_appended(self, text, fixed, edited):
        report = fix_text(text, "<t>")
        assert report.fixed == fixed
        assert [o.status for o in report.repairs] == ["applied"] * len(edited)
        assert [len(o.edits) > 0 for o in report.repairs] == edited
        assert report.residual == []


class TestOperandQuoting:
    """An inserted rm operand expands to what the anchor's operand expanded
    to: an operand with a shell metacharacter is copied from the source."""

    @pytest.mark.parametrize(
        "command, fixed",
        [
            ("tar -xzf '*;x'", "tar -xzf '*;x' && rm '*;x' && {apt}"),
            ('tar -xzf "my file.tgz"', 'tar -xzf "my file.tgz" && rm "my file.tgz" && {apt}'),
            ("tar -xzf 'a;b.tgz'", "tar -xzf 'a;b.tgz' && rm 'a;b.tgz' && {apt}"),
            ('gpg --verify "x y.asc"', 'gpg --verify "x y.asc" && rm "x y.asc" && {apt}'),
            ('mkdir -p "/usr/src/a b"', 'mkdir -p "/usr/src/a b" && {apt_install} && rm -rf "/usr/src/a b" && {lists}'),
        ],
    )
    def test_operand_with_metacharacter_copied_from_source(self, command, fixed):
        parts = {
            "apt_install": "apt-get install --no-install-recommends -y p",
            "lists": "rm -rf /var/lib/apt/lists/*",
        }
        parts["apt"] = "{apt_install} && {lists}".format(**parts)
        report = fix_text(f"RUN {command} && apt-get install -y p\n", "<t>")
        assert report.fixed == "RUN " + fixed.format(**parts) + "\n"
        assert {o.status for o in report.repairs} == {"applied"}
        assert report.residual == []
        assert fix(report.fixed) == report.fixed


class TestAttachedArchive:
    @pytest.mark.parametrize("command", ["tar -x --file=app.tgz", "tar -xzfapp.tgz -C /opt"])
    def test_rm_names_the_value(self, command):
        report = fix_text(f"RUN {command} && make\n", "<t>")
        assert report.fixed == f"RUN {command} && rm app.tgz && make\n"
        assert [o.status for o in report.repairs] == ["applied"]
        assert report.residual == []


class TestOptionReading:
    """The rm a repair appends names what the command reads (each tar row
    as GNU tar 1.34 reads it), and nothing when it names nothing; a flag
    goes into the command a wrapper runs."""

    @pytest.mark.parametrize("text, fixed", [
        ("RUN tar xCf /opt a.tgz\n", "RUN tar xCf /opt a.tgz && rm a.tgz\n"),
        ("RUN tar xfC a.tgz /opt\n", "RUN tar xfC a.tgz /opt && rm a.tgz\n"),
        ("RUN tar -xTf list.txt a.tgz\n", "RUN tar -xTf list.txt a.tgz\n"),
        ("RUN tar -x -- -fb.tgz\n", "RUN tar -x -- -fb.tgz\n"),
        ("RUN pip install -rreq.txt\n", "RUN pip install --no-cache-dir -rreq.txt\n"),
        # a wrapper's option cluster or attached value
        ("RUN sudo -Eu app pip install x\n", "RUN sudo -Eu app pip install --no-cache-dir x\n"),
        ("RUN sudo -uapp pip install x\n", "RUN sudo -uapp pip install --no-cache-dir x\n"),
        ("RUN env -uX pip install x\n", "RUN env -uX pip install --no-cache-dir x\n"),
        ("RUN nice -n10 pip install x\n", "RUN nice -n10 pip install --no-cache-dir x\n"),
        ("RUN sudo A=1 pip install x\n", "RUN sudo A=1 pip install --no-cache-dir x\n"),
        ("RUN mkdir -p -- /usr/src/app\n", "RUN mkdir -p -- /usr/src/app && rm -rf /usr/src/app\n"),
        ("RUN mkdir -pm 0755 /usr/src/app\n",
         "RUN mkdir -pm 0755 /usr/src/app && rm -rf /usr/src/app\n"),
        ("RUN apt-get install --no-install-recommends -y x && rm -fr /var/lib/apt/lists/*\n",
         "RUN apt-get install --no-install-recommends -y x && rm -fr /var/lib/apt/lists/*\n"),
    ])
    def test_fixed_text(self, text, fixed):
        report = fix_text(text, "<t>")
        assert report.fixed == fixed
        assert {o.status for o in report.repairs} <= {"applied"}
        assert report.residual == []


class TestAdjacentRepairs:
    def test_rm_lands_before_cd(self):
        text = (
            "RUN wget -O gsl.tgz ftp://ftp.gnu.org/gsl-1.16.tar"
            " && tar -zxf gsl.tgz && mkdir gsl"
            " && cd gsl-1.16 && ./configure && make && make install\n"
        )
        out = fix(text)
        assert "tar -zxf gsl.tgz && rm gsl.tgz && mkdir gsl" in out
        assert out.index("rm gsl.tgz") < out.index("cd gsl-1.16")

    def test_dry_run_ordering_oracle(self):
        """Simulate the repaired chain: the archive must still exist and the
        working directory must be unchanged when the rm runs."""
        text = (
            "RUN wget -O gsl.tgz ftp://example/gsl.tar"
            " && tar -zxf gsl.tgz && mkdir gsl && cd gsl-1.16 && make\n"
        )
        out = fix(text)
        payload = out[len("RUN ") : -1]
        files: set[str] = set()
        cwd_changed = False
        for element in payload.split(" && "):
            words = element.split()
            if words[0] == "wget":
                files.add(words[words.index("-O") + 1])
            elif words[0] == "tar":
                archive = words[words.index("-zxf") + 1]
                assert archive in files, "tar reads a file that does not exist"
            elif words[0] == "rm":
                target = words[-1]
                assert not cwd_changed, "rm runs after cd: path no longer valid"
                assert target in files, "rm removes a file that does not exist"
                files.discard(target)
            elif words[0] == "cd":
                cwd_changed = True

    def test_gpg_asc_removed_right_after_verify(self):
        out = fix("RUN gpg --verify app.tar.asc && tar -xf app.tar && rm app.tar\n")
        assert (
            out
            == "RUN gpg --verify app.tar.asc && rm app.tar.asc && tar -xf app.tar && rm app.tar\n"
        )


class TestBeforeRepairs:
    def test_gemrc_statement_inserted_before_update(self):
        # the gemrc write goes before the update; the cache rm is a trailing
        # cleanup and lands at the end of the chain
        out = fix("RUN gem update --system && gem install rails\n")
        assert out == (
            "RUN echo 'gem: --no-document' >> /etc/gemrc"
            " && gem update --system && gem install rails && rm -rf /root/.gem\n"
        )
        assert out.index("echo 'gem: --no-document'") < out.index("gem update")

    def test_gemrc_written_in_one_run_counts_in_an_unedited_one(self):
        # the second RUN (a `;` list) gets no insertion, but the gemrc line
        # inserted into the first configures gem for the whole file
        report = fix_text("FROM ruby\nRUN gem update --system\nRUN gem update --system; true\n", "<t>")
        assert [(d.rule, d.line) for d in report.diagnostics] == [
            (RuleId.gemUpdateSystemRmRootGem, 2), (RuleId.gemUpdateNoDocument, 2),
            (RuleId.gemUpdateSystemRmRootGem, 3), (RuleId.gemUpdateNoDocument, 3),
        ]
        assert [(d.rule, d.line) for d in report.residual] == [(RuleId.gemUpdateSystemRmRootGem, 3)]


class TestInsertionOrder:
    """Text inserted at one offset reads as the chain it extends: a flag
    ends its element, cleanups right after an element come next (the
    latest nearest the element), then config and appended statements."""

    @pytest.mark.parametrize(
        "src, fixed",
        [
            ("RUN pip install>log x\n", "RUN pip install --no-cache-dir >log x\n"),
            ("RUN tar -xzf a.tgz | pip install\n",
             "RUN tar -xzf a.tgz | pip install --no-cache-dir && rm a.tgz\n"),
            ("RUN gpg --verify x.asc | tar -xzf a.tgz && make\n",
             "RUN gpg --verify x.asc | tar -xzf a.tgz && rm a.tgz && rm x.asc && make\n"),
            ("RUN apt-get install -y x && tar -xzf a.tgz\n",
             "RUN apt-get install --no-install-recommends -y x && tar -xzf a.tgz && rm a.tgz"
             " && rm -rf /var/lib/apt/lists/*\n"),
            ("RUN tar -xzf a.tgz && gem update --system\n",
             "RUN tar -xzf a.tgz && rm a.tgz && echo 'gem: --no-document' >> /etc/gemrc"
             " && gem update --system && rm -rf /root/.gem\n"),
        ],
    )
    def test_insertions_at_one_offset(self, src, fixed):
        report = fix_text(src, "<t>")
        assert report.fixed == fixed
        assert {o.status for o in report.repairs} == {"applied"}
        assert report.residual == []


class TestNotFixable:
    def test_semicolon_chain_blocks_append(self):
        text = "RUN apt-get update; apt-get install -y curl\n"
        report = fix_text(text, "<t>")
        statuses = {o.diagnostic.rule: o.status for o in report.repairs}
        assert statuses[RuleId.aptGetInstallUseNoRec] == "applied"
        assert statuses[RuleId.aptGetInstallThenRemoveAptLists] == "not-fixable"
        assert [d.rule for d in report.residual] == [
            RuleId.aptGetInstallThenRemoveAptLists
        ]

    def test_or_chain_blocks_append_and_preserves_file(self):
        text = "RUN yum install -y x || echo failed\n"
        report = fix_text(text, "<t>")
        assert report.repairs[0].status == "not-fixable"
        assert report.fixed == text

    ENDS = "RUN chain has a top-level exit or exec, after which nothing runs"

    @pytest.mark.parametrize(
        "text, fixed, outcomes",
        [
            (
                "RUN apt-get install -y x && exit 0\n",
                "RUN apt-get install --no-install-recommends -y x && exit 0\n",
                [("applied", None, True), ("not-fixable", ENDS, False)],
            ),
            (
                "RUN apt-get install -y x && exec myapp\n",
                "RUN apt-get install --no-install-recommends -y x && exec myapp\n",
                [("applied", None, True), ("not-fixable", ENDS, False)],
            ),
            ("RUN npm install && exit\n", None, [("not-fixable", ENDS, False)]),
            # adjacent and config insertions land before the exit
            ("RUN tar -xzf a.tgz && exit 0\n", "RUN tar -xzf a.tgz && rm a.tgz && exit 0\n", [("applied", None, True)]),
            (
                "RUN gem update --system && exit 0\n",
                "RUN echo 'gem: --no-document' >> /etc/gemrc && gem update --system && exit 0\n",
                [("not-fixable", ENDS, False), ("applied", None, True)],
            ),
            # nothing after the exit runs: not its cleanup, not its smell
            (
                "RUN apt-get install --no-install-recommends -y x && exit 0 && rm -rf /var/lib/apt/lists/*\n",
                None,
                [("not-fixable", ENDS, False)],
            ),
            ("RUN exit 0 && pip install x\n", None, []),
            ("RUN exec myapp && pip install x\n", None, []),
            # `exec` of no command only redirects: the shell goes on
            (
                "RUN exec 2>&1 && npm install\n",
                "RUN exec 2>&1 && npm install && npm cache clean --force\n",
                [("applied", None, True)],
            ),
        ],
    )
    def test_nothing_appended_after_exit_or_exec(self, text, fixed, outcomes):
        report = fix_text(text, "<t>")
        assert report.fixed == (fixed or text)
        assert [(o.status, o.reason, o.diagnostic.fixable) for o in report.repairs] == outcomes

    def test_exec_array_not_fixable(self):
        text = 'RUN ["yarn", "install"]\n'
        report = fix_text(text, "<t>")
        assert report.repairs[0].status == "not-fixable"
        assert report.fixed == text

    def test_exec_shell_form_is_fixable(self):
        out = fix('RUN ["sh", "-c", "yarn install"]\n')
        assert out == 'RUN ["sh", "-c", "yarn install && yarn cache clean"]\n'

    def test_exec_array_flag_insert_keeps_json_form(self):
        out = fix('RUN ["pip", "install", "flask"]\n')
        assert out == 'RUN ["pip", "install", "--no-cache-dir", "flask"]\n'
        import json

        assert json.loads(out[4:]) == ["pip", "install", "--no-cache-dir", "flask"]

    def test_exec_array_flag_insert_after_mount_flag(self):
        mount = "RUN --mount=type=cache,target=/root/.cache "
        out = fix(mount + '["pip", "install", "flask"]\n')
        assert out == mount + '["pip", "install", "--no-cache-dir", "flask"]\n'

    def test_exec_shell_flag_insert_stays_in_payload(self):
        out = fix('RUN ["sh", "-c", "pip install flask"]\n')
        assert out == 'RUN ["sh", "-c", "pip install --no-cache-dir flask"]\n'

    def test_exec_shell_repair_is_escaped_into_the_json_string(self):
        # the quotes of the appended `rm -rf "$T"` would end the JSON string
        text = 'RUN ["sh", "-c", "T=$(mktemp -d) && make -C $T"]\n'
        report = fix_text(text, "<t>")
        assert [(o.status, o.reason, o.detail) for o in report.repairs] == [
            ("applied", None, None)
        ]
        assert report.fixed == 'RUN ["sh", "-c", "T=$(mktemp -d) && make -C $T && rm -rf \\"$T\\""]\n'
        assert report.residual == []
        assert_reread_is_fresh(text, spliced=True)


class TestVerifyOrRollback:
    def test_successful_verify_stands(self):
        ast = parse_and_enrich("RUN npm cache clean\n")
        (diag,) = detect(ast)
        outcome = verify_or_rollback(ast, diag, repair(ast, diag))
        assert outcome.status == "applied"
        assert print_minimal(ast, "RUN npm cache clean\n") == (
            "RUN npm cache clean --force\n"
        )

    def test_broken_repair_rolls_back_byte_identical(self, monkeypatch):
        src = "RUN npm cache clean\n"
        broken = dataclasses.replace(rule_for(RuleId.npmCacheCleanUseForce), fix="--loglevel")
        monkeypatch.setitem(rules_mod._RULE_BY_ID, RuleId.npmCacheCleanUseForce, broken)
        report = fix_text(src, "<t>")
        assert [(o.status, o.reason, o.detail) for o in report.repairs] == [
            ("rolled-back", "still-detected", "residual")
        ]
        assert report.fixed == src
        assert [d.rule for d in report.residual] == [RuleId.npmCacheCleanUseForce]

    def test_rollback_keeps_the_other_repairs(self, monkeypatch):
        broken = dataclasses.replace(rule_for(RuleId.npmCacheCleanUseForce), fix="--loglevel")
        monkeypatch.setitem(rules_mod._RULE_BY_ID, RuleId.npmCacheCleanUseForce, broken)
        report = fix_text("RUN npm cache clean && pip install flask\n", "<t>")
        assert [o.status for o in report.repairs] == ["rolled-back", "applied"]
        assert report.fixed == "RUN npm cache clean && pip install --no-cache-dir flask\n"

    def test_broken_insertion_rolls_back(self, monkeypatch):
        broken = dataclasses.replace(rule_for(RuleId.tarSomethingRmTheSomething), fix="rm other.tgz")
        monkeypatch.setitem(rules_mod._RULE_BY_ID, RuleId.tarSomethingRmTheSomething, broken)
        src = "RUN tar -xzf a.tgz && make\n"
        report = fix_text(src, "<t>")
        assert [o.status for o in report.repairs] == ["rolled-back"]
        assert report.fixed == src

    def test_two_diagnostics_one_run_sequential(self):
        src = "RUN apt-get update && apt-get install -y wget\n"
        ast = parse_and_enrich(src)
        diags = detect(ast)
        assert len(diags) == 2
        for diag in diags:
            outcome = verify_or_rollback(ast, diag, repair(ast, diag))
            assert outcome.status == "applied"
        assert detect(parse_and_enrich(print_minimal(ast, src))) == []


class TestInvariants:
    @pytest.mark.parametrize(
        "text",
        [
            "RUN pip install flask\n",
            "RUN apt-get update && apt-get install -y wget\n",
            "RUN gem update --system\n",
            "RUN T=$(mktemp -d) && make -C $T\n",
            "RUN tar -xzf a.tgz && cd x && make\n",
        ],
    )
    def test_fix_eliminates_smell_and_is_idempotent(self, text):
        once = fix_text(text, "<t>")
        assert once.residual == []
        twice = fix_text(once.fixed, "<t>")
        assert twice.fixed == once.fixed
        assert all(not o.edits or o.status != "applied" for o in twice.repairs) or (
            twice.repairs == []
        )

    def test_non_interference_total_count_non_increasing(self):
        text = "RUN apt-get install -y x && pip install y && yarn install\n"
        report = fix_text(text, "<t>")
        assert len(report.residual) <= len(report.diagnostics)
        assert report.residual == []

    def test_repair_leaves_the_tree_as_it_was(self):
        src = "RUN apt-get install -y x && tar -xzf a.tgz\nRUN pip install y\nRUN gem update --system\n"
        ast = parse_and_enrich(src)

        def snapshot():
            return [
                (id(n), n.kind, n.span, [id(c) for c in n.children], set(n.annotations), dict(n.props))
                for n in ast.root.walk()
            ]

        before = snapshot()
        outcomes = [repair(ast, d) for d in detect(ast)]
        assert [o.status for o in outcomes] == ["applied"] * 6
        assert snapshot() == before
        assert len(detect(ast)) == 6  # the tree still reads as the original file
        assert detect(parse_and_enrich(print_minimal(ast, src))) == []

    def test_repair_records_what_it_inserts(self):
        # each outcome's edits are the (offset, text) pairs it inserted
        cases = [
            ("RUN pip install y\n", [[(15, " --no-cache-dir")]]),
            ("RUN yarn install\n", [[(16, " && yarn cache clean")]]),
            ("RUN gem update --system\n",
             [[(23, " && rm -rf /root/.gem")], [(4, "echo 'gem: --no-document' >> /etc/gemrc && ")]]),
        ]
        for src, edits in cases:
            ast = parse_and_enrich(src)
            assert [repair(ast, d).edits for d in detect(ast)] == edits
            assert [(offset, text) for offset, _, _, text in ast.insertions] == sum(edits, [])

    def test_repair_on_clean_tree_yields_nothing(self):
        text = "RUN apk add --no-cache curl\n"
        report = fix_text(text, "<t>")
        assert report.repairs == []
        assert report.fixed == text


def run_words(text):
    """Per RUN, the logical texts of its words, in document order."""
    return [
        [n.prop("text", n.literal or "") for n in run.walk() if n.kind is NodeKind.SC_WORD]
        for run in parse_and_enrich(text).runs()
    ]


def source_words_kept(before, after):
    """Each RUN's words in ``before`` appear, in order, among the words of
    the same RUN in ``after``."""
    def kept(words, reparsed):
        rest = iter(reparsed)
        return all(word in rest for word in words)

    old, new = run_words(before), run_words(after)
    return len(old) == len(new) and all(map(kept, old, new))


class TestReparseVerification:
    """Repairs whose inserted text changes how the original text reads: an
    operand that ends in a backslash, where the escape directive or the
    line ending gives that backslash a meaning. Each is rolled back with
    the file unchanged, saying which check failed, or applied with the
    smell gone and the original words intact; a second fix changes
    nothing."""

    @pytest.mark.parametrize(
        "src, fixed, detail",
        [
            # ` && rm a\` turns tar's archive `a\` into `a `; the tar smell
            # is in the residual too, and the garbled word is named
            ("# escape=`\nRUN tar -xzf a\\\n", None, "words"),
            ("# escape=`\nRUN tar -xzf \\ \\\n", None, "words"),
            ("# escape=`\nRUN apt-get install -y x && tar -xzf a\\\n", None, "words"),
            # an appended `rm -rf /usr/src/a\\` ends the line in a backslash,
            # which continues it into the next instruction
            ("RUN mkdir -p /usr/src/a\\\\ && make\nRUN apt-get install -y x\n", None, "instructions"),
            ("RUN mkdir -p /usr/src/a\\\\ && make\nENV X=1\n", None, "instructions"),
            ("RUN tar -xzf 'a\\' && make\n", "RUN tar -xzf 'a\\' && rm 'a\\' && make\n", None),
            # the appended `rm -rf /usr/src/'a\'` has the text of the `a\`
            # it garbles; the word is checked where it was printed
            ("# escape=`\nFROM debian\nRUN mkdir -p /usr/src/'a\\' && mkdir -p /usr/src/a\\\n", None, "words"),
        ],
    )
    def test_rolled_back_or_verified(self, src, fixed, detail):
        report = fix_text(src, "<t>")
        if fixed is None:  # every repair rolled back
            assert {(o.status, o.reason, o.detail) for o in report.repairs} == {
                ("rolled-back", "still-detected", detail)
            }
            assert report.fixed == src
        else:
            assert {o.status for o in report.repairs} == {"applied"}
            assert report.fixed == fixed
            assert report.residual == []
            assert source_words_kept(src, report.fixed)
        assert fix(report.fixed) == report.fixed


class TestHeredocBodies:
    """A heredoc body is data: it is never repaired. The statement that
    opens one is an unparsed region, and the rest of its line is read."""

    @pytest.mark.parametrize(
        "text, fixed, statuses",
        [
            ("FROM x\nRUN cat <<A <<B > /f\na\nA\napt-get install -y q\nB\n", None, []),
            ("FROM x\nRUN cat <<A > /f && cat <<B > /g\nnpm install\nA\npip install x\nB\n", None, []),
            ("FROM x\nRUN <<A <<B\npip install x\nA\nnpm install\nB\n", None, []),
            (
                "FROM x\nRUN apt-get install -y x && cat <<EOF > /f\ndon't\nEOF\n",
                "FROM x\nRUN apt-get install --no-install-recommends -y x && cat <<EOF > /f\ndon't\nEOF\n",
                ["applied", "not-fixable"],
            ),
            (
                "FROM x\nRUN cat <<EOF > /f && pip install y\nbody\nEOF\n",
                "FROM x\nRUN cat <<EOF > /f && pip install --no-cache-dir y\nbody\nEOF\n",
                ["applied"],
            ),
            # a leading heredoc is the script
            ("FROM x\nRUN <<A\npip install x\nA\n", "FROM x\nRUN <<A\npip install --no-cache-dir x\nA\n", ["applied"]),
            # the shell reads it, so its lines continue with `\`, whatever
            # the escape directive
            (
                "# escape=`\nFROM debian\nRUN <<EOF\napk add x &&\n  apt-get install -y a.tgz && \\\n  make\nEOF\n",
                "# escape=`\nFROM debian\nRUN <<EOF\napk add --no-cache x &&\n"
                "  apt-get install --no-install-recommends -y a.tgz && \\\n  make && \\\n"
                "  rm -rf /var/lib/apt/lists/*\nEOF\n",
                ["applied", "applied", "applied"],
            ),
            # the RUN's flags come before its command line or leading heredoc
            (
                "FROM x\nRUN --mount=type=cache,target=/c pip install x && cat <<EOF > /f\nb\nEOF\n",
                "FROM x\nRUN --mount=type=cache,target=/c pip install --no-cache-dir x && cat <<EOF > /f\nb\nEOF\n",
                ["applied"],
            ),
            (
                "FROM x\nRUN --mount=type=cache,target=/root/.cache <<EOF\npip install y\nEOF\n",
                "FROM x\nRUN --mount=type=cache,target=/root/.cache <<EOF\npip install --no-cache-dir y\nEOF\n",
                ["applied"],
            ),
            # the delimiter is the word the shell reads
            (
                "FROM x\nRUN cat <<EOF-X > /f && pip install a\nbody\nEOF\nEOF-X\n",
                "FROM x\nRUN cat <<EOF-X > /f && pip install --no-cache-dir a\nbody\nEOF\nEOF-X\n",
                ["applied"],
            ),
            (
                'FROM x\nRUN cat <<"E"OF > /f && pip install a\nbody\nE\nEOF\n',
                'FROM x\nRUN cat <<"E"OF > /f && pip install --no-cache-dir a\nbody\nE\nEOF\n',
                ["applied"],
            ),
            # `<<\EOF` opens a heredoc, a here-string `<<<EOF` none
            ("FROM x\nRUN cat <<\\EOF > /etc/apt/x.conf\nRUN apt-get install -y q\nEOF\n", None, []),
            ("FROM x\nRUN cat <<-\\EOF > /etc/apt/x.conf\nRUN apt-get install -y q\nEOF\n", None, []),
            (
                "FROM x\nRUN cat <<<EOF\nRUN apt-get install -y q\nEOF\n",
                "FROM x\nRUN cat <<<EOF\n"
                "RUN apt-get install --no-install-recommends -y q && rm -rf /var/lib/apt/lists/*\nEOF\n",
                ["applied", "applied"],
            ),
        ],
    )
    def test_fixed_text(self, text, fixed, statuses):
        report = fix_text(text, "<t>")
        assert report.fixed == (fixed or text)
        assert [o.status for o in report.repairs] == statuses
        unfixed = [o.diagnostic.rule for o in report.repairs if o.status != "applied"]
        assert [d.rule for d in report.residual] == unfixed
        assert fix(report.fixed) == report.fixed
