"""Rule semantics: each smell's firing conditions and scope decisions."""

import sys

import pytest

from conftest import read_text
from slimdock.enrich import parse_and_enrich
from slimdock.model import NodeKind
from slimdock.query import RunIndex
from slimdock.rules import (
    RULES, Rule, RuleId, _ends_shell, chain_elements, detect, detect_run, parse_rule_name,
    run_script,
)


def rules_found(text, only=None):
    ast = parse_and_enrich(text)
    return [d.rule for d in detect(ast, only)]


class TestPip:
    def test_missing_flag_fires(self):
        assert rules_found("RUN pip install flask") == [RuleId.pipUseNoCacheDir]

    def test_flag_present_clean(self):
        assert rules_found("RUN pip install --no-cache-dir flask") == []

    def test_pip_without_install_clean(self):
        assert rules_found("RUN pip freeze") == []


class TestNpmForce:
    def test_clean_without_force(self):
        assert RuleId.npmCacheCleanUseForce in rules_found("RUN npm cache clean")

    def test_short_flag_counts(self):
        assert rules_found("RUN npm cache clean -f") == []


class TestMkdirUsrSrc:
    def test_unremoved_fires(self):
        found = rules_found("RUN mkdir -p /usr/src/app && make -C /usr/src/app")
        assert found == [RuleId.mkdirUsrSrcThenRemove]

    def test_later_recursive_rm_cleans(self):
        assert (
            rules_found("RUN mkdir /usr/src/app && make && rm -rf /usr/src/app") == []
        )

    def test_non_recursive_rm_does_not_count(self):
        found = rules_found("RUN mkdir /usr/src/app && rm -f /usr/src/app")
        assert found == [RuleId.mkdirUsrSrcThenRemove]

    def test_outside_usr_src_ignored(self):
        assert rules_found("RUN mkdir -p /opt/app && make") == []

    def test_variable_path_suppressed(self):
        assert rules_found("RUN mkdir -p /usr/src/$APP && make") == []


class TestMktemp:
    def test_captured_dir_never_removed(self):
        found = rules_found("RUN T=$(mktemp -d) && make -C $T")
        assert found == [RuleId.rmRecursiveAfterMktempD]

    def test_quoted_variable_rm_cleans(self):
        assert rules_found('RUN T=$(mktemp -d) && cd $T && rm -rf "$T"') == []

    def test_braced_variable_rm_cleans(self):
        assert rules_found("RUN T=$(mktemp -d) && rm -rf ${T}") == []

    def test_uncaptured_result_skipped(self):
        assert rules_found("RUN mktemp -d") == []

    def test_plain_mktemp_not_a_dir(self):
        assert rules_found("RUN F=$(mktemp) && echo $F") == []


class TestTar:
    def test_extracted_archive_kept(self):
        found = rules_found("RUN tar -xzf app.tgz -C /opt")
        assert found == [RuleId.tarSomethingRmTheSomething]

    def test_exact_rm_cleans(self):
        assert rules_found("RUN tar -xzf app.tgz && rm app.tgz") == []

    def test_glob_rm_covers(self):
        # the false-positive shape: rm -rf /tmp/firefox.* removes the archive
        text = (
            "RUN tar -xvjf /tmp/firefox.tar.bz2 -C /opt && rm -rf /tmp/firefox.*"
        )
        assert rules_found(text) == []

    def test_creation_mode_ignored(self):
        assert rules_found("RUN tar -czf backup.tgz /etc") == []

    def test_stdin_archive_ignored(self):
        assert rules_found("RUN curl -L https://x | tar -xz -C /opt") == []
        assert rules_found("RUN tar -xzf - -C /opt") == []

    def test_variable_archive_suppressed(self):
        assert rules_found("RUN tar -xzf $ARCHIVE") == []

    @pytest.mark.parametrize("command", [
        "tar -x --file=app.tgz",
        "tar -xfapp.tgz",
        "tar -xzfapp.tgz -C /opt",
    ])
    def test_attached_archive_kept(self, command):
        assert rules_found(f"RUN {command}") == [RuleId.tarSomethingRmTheSomething]
        assert rules_found(f"RUN {command} && rm app.tgz") == []

    @pytest.mark.parametrize("command", [
        "tar -x --file='my app.tgz'",
        "tar -xf'a;b.tgz'",
        "tar -xf-",
        "tar -x --file=",
        "tar -xTfiles.txt",  # -T (unknown here) may take `files.txt`
        "tar -x --file=$ARCHIVE",
    ])
    def test_attached_archive_that_needs_quoting_is_not_reported(self, command):
        assert rules_found(f"RUN {command}") == []

    def test_rm_before_extraction_does_not_count(self):
        found = rules_found("RUN rm -f app.tgz && tar -xzf app.tgz")
        assert found == [RuleId.tarSomethingRmTheSomething]


class TestApkAptFlags:
    def test_apk_add_without_no_cache(self):
        assert rules_found("RUN apk add curl") == [RuleId.apkAddUseNoCache]

    def test_apk_add_with_no_cache(self):
        assert rules_found("RUN apk add --no-cache curl") == []

    def test_apt_get_install_fires_both(self):
        found = rules_found("RUN apt-get update && apt-get install -y wget")
        assert found == [
            RuleId.aptGetInstallUseNoRec,
            RuleId.aptGetInstallThenRemoveAptLists,
        ]

    def test_apt_variant_counts(self):
        found = rules_found("RUN apt install -y jq")
        assert set(found) == {
            RuleId.aptGetInstallUseNoRec,
            RuleId.aptGetInstallThenRemoveAptLists,
        }

    def test_update_alone_clean(self):
        assert rules_found("RUN apt-get update") == []


class TestAptListsScope:
    def test_same_run_cleanup_ok(self):
        text = (
            "RUN apt-get install -y --no-install-recommends x "
            "&& rm -rf /var/lib/apt/lists/*"
        )
        assert rules_found(text) == []

    def test_cleanup_in_later_run_does_not_help(self):
        text = (
            "FROM d\n"
            "RUN apt-get install -y --no-install-recommends x\n"
            "RUN rm -rf /var/lib/apt/lists/*\n"
        )
        assert rules_found(text) == [RuleId.aptGetInstallThenRemoveAptLists]

    def test_covering_parent_rm(self):
        text = (
            "RUN apt-get install -y --no-install-recommends x && rm -rf /var/lib/apt/lists"
        )
        assert rules_found(text) == []


class TestHeredocBodies:
    """A heredoc body is data, never linted; the statement that opens one
    is an unparsed region, and the rest of its line is read."""

    @pytest.mark.parametrize(
        "text, found",
        [
            ("FROM x\nRUN cat <<A <<B > /f\na\nA\napt-get install -y q\nB\n", []),
            ("FROM x\nRUN cat <<A > /f && cat <<B > /g\nnpm install\nA\npip install x\nB\n", []),
            ("FROM x\nRUN <<A <<B\npip install x\nA\nnpm install\nB\n", []),
            # a `'` in the body leaves the command line readable
            (
                "FROM x\nRUN apt-get install -y x && cat <<EOF > /f\ndon't\nEOF\n",
                [(RuleId.aptGetInstallUseNoRec, 2), (RuleId.aptGetInstallThenRemoveAptLists, 2)],
            ),
            ("FROM x\nRUN cat <<EOF > /f && pip install y\nbody\nEOF\n", [(RuleId.pipUseNoCacheDir, 2)]),
            # `<< EOF` opens no heredoc for Docker: no body follows
            ("FROM x\nRUN pip install x && cat << EOF\n", [(RuleId.pipUseNoCacheDir, 2)]),
            # a leading heredoc is the script
            ("FROM x\nRUN <<A\npip install x\nA\n", [(RuleId.pipUseNoCacheDir, 3)]),
            # the RUN's flags come before its command line or leading heredoc
            (
                "FROM x\nRUN --mount=type=cache,target=/c pip install x && cat <<EOF > /f\nb\nEOF\n",
                [(RuleId.pipUseNoCacheDir, 2)],
            ),
            (
                "FROM x\nRUN --mount=type=cache,target=/root/.cache <<EOF\npip install y\nEOF\n",
                [(RuleId.pipUseNoCacheDir, 3)],
            ),
            # the delimiter is the word the shell reads
            ("FROM x\nRUN cat <<EOF-X > /f && pip install a\nbody\nEOF\nEOF-X\n", [(RuleId.pipUseNoCacheDir, 2)]),
            ('FROM x\nRUN cat <<"E"OF > /f && pip install a\nbody\nE\nEOF\n', [(RuleId.pipUseNoCacheDir, 2)]),
            # `<<\EOF` opens a heredoc, a here-string `<<<EOF` none
            ("FROM x\nRUN cat <<\\EOF > /etc/apt/x.conf\nRUN apt-get install -y q\nEOF\n", []),
            ("FROM x\nRUN cat <<-\\EOF > /etc/apt/x.conf\nRUN apt-get install -y q\nEOF\n", []),
            (
                "FROM x\nRUN cat <<<EOF\nRUN apt-get install -y q\nEOF\n",
                [(RuleId.aptGetInstallUseNoRec, 3), (RuleId.aptGetInstallThenRemoveAptLists, 3)],
            ),
            # a `<<` opens a heredoc only where it starts a word, past fd digits
            (
                "FROM x\nRUN x=$((1<<2)) && pip install x\nRUN apt-get install -y y\n2\nRUN pip install z\n",
                [(RuleId.pipUseNoCacheDir, 2), (RuleId.aptGetInstallUseNoRec, 3),
                 (RuleId.aptGetInstallThenRemoveAptLists, 3), (RuleId.pipUseNoCacheDir, 5)],
            ),
            ("FROM x\nRUN cat 2<<EOF > /f\nRUN apt-get install -y q\nEOF\n", []),
        ],
    )
    def test_rows(self, text, found):
        assert [(d.rule, d.line) for d in detect(parse_and_enrich(text))] == found

    @pytest.mark.parametrize(
        "text",
        [
            "FROM x\nRUN cat <<EOF-X > /f && pip install a\nbody\nEOF\nEOF-X\n",
            'FROM x\nRUN cat <<"E"OF > /f && pip install a\nbody\nE\nEOF\n',
        ],
    )
    def test_the_delimiter_line_ends_the_run(self, text):
        ast = parse_and_enrich(text)
        assert [n.kind for n in ast.root.children] == [NodeKind.DOCKER_FROM, NodeKind.DOCKER_RUN]
        assert ast.warnings == ["<memory>:2: heredoc statement left unparsed"]


class TestOwnCommand:
    """A check reads its own command, not one substituted in it."""

    @pytest.mark.parametrize(
        "text, found",
        [
            (
                "FROM x\nRUN pip install $(pip download --no-cache-dir x)\n",
                [(RuleId.pipUseNoCacheDir, 2)],
            ),
            (
                "FROM x\nRUN gem update --system $(gem update --system --no-document)\n",
                [
                    (RuleId.gemUpdateSystemRmRootGem, 2),
                    (RuleId.gemUpdateNoDocument, 2),
                    (RuleId.gemUpdateSystemRmRootGem, 2),
                ],
            ),
            ("FROM x\nRUN pip install --no-cache-dir $(echo y)\n", []),
        ],
    )
    def test_rows(self, text, found):
        assert [(d.rule, d.line) for d in detect(parse_and_enrich(text))] == found


class TestGpg:
    def test_verify_without_rm(self):
        found = rules_found("RUN gpg --verify app.tar.asc && tar -xf app.tar && rm app.tar")
        assert found == [RuleId.gpgVerifyAscRmAsc]

    def test_verify_then_rm_clean(self):
        assert (
            rules_found("RUN gpg --verify app.tar.asc && rm app.tar.asc") == []
        )

    def test_no_asc_positional_skipped(self):
        assert rules_found("RUN gpg --verify release.sig artifact.bin") == []


class TestNpmInstall:
    def test_missing_cleanup(self):
        assert rules_found("RUN npm install") == [RuleId.npmCacheCleanAfterInstall]

    def test_alias_i(self):
        assert rules_found("RUN npm i") == [RuleId.npmCacheCleanAfterInstall]

    def test_later_clean_with_force_ok(self):
        assert rules_found("RUN npm install && npm cache clean --force") == []

    def test_later_clean_without_force_counts_as_cleanup(self):
        # the forceless clean is flagged itself, not the install
        found = rules_found("RUN npm install && npm cache clean")
        assert found == [RuleId.npmCacheCleanUseForce]

    def test_ci_not_covered(self):
        assert rules_found("RUN npm ci") == []


class TestGem:
    def test_bare_update_fires_both(self):
        found = rules_found("RUN gem update --system")
        assert set(found) == {
            RuleId.gemUpdateSystemRmRootGem,
            RuleId.gemUpdateNoDocument,
        }

    @pytest.mark.parametrize("write", [
        "echo 'gem: --no-document' >> /etc/gemrc",
        # after another redirection
        'echo "gem: --no-document" 2>/dev/null >> /etc/gemrc',
        'echo "gem: --no-document" 2>&1 >> /etc/gemrc',
    ])
    def test_gemrc_write_elsewhere_in_file_clears_nodoc(self, write):
        text = f"FROM r\nRUN {write}\nRUN gem update --system && rm -rf /root/.gem\n"
        assert rules_found(text) == []

    def test_update_without_system_clean(self):
        assert rules_found("RUN gem update rails") == []


class TestYumYarn:
    def test_yum_install(self):
        assert rules_found("RUN yum install -y httpd") == [
            RuleId.yumInstallRmVarCacheYum
        ]

    def test_dnf_alias_and_dnf_cache_path(self):
        assert rules_found("RUN dnf install -y gcc && rm -rf /var/cache/dnf") == []

    def test_yum_rm_cleanup(self):
        assert rules_found("RUN yum install -y x && rm -rf /var/cache/yum") == []

    def test_yarn_install(self):
        assert rules_found("RUN yarn install") == [RuleId.yarnCacheCleanAfterInstall]

    def test_bare_yarn(self):
        assert rules_found("RUN yarn") == [RuleId.yarnCacheCleanAfterInstall]

    def test_yarn_cache_clean_after(self):
        assert rules_found("RUN yarn install && yarn cache clean") == []

    @pytest.mark.parametrize("probe", ["command -v yarn", "command -V yarn", "command -p -v yarn"])
    def test_command_lookup_runs_nothing(self, probe):
        assert rules_found(f"RUN {probe}") == []

    @pytest.mark.parametrize("run", ["command yarn install", "command -p yarn install"])
    def test_command_runs_its_operand(self, run):
        assert rules_found(f"RUN {run}") == [RuleId.yarnCacheCleanAfterInstall]


class TestConservatism:
    def test_no_rule_fires_in_unparsed(self):
        assert rules_found("RUN pip install flask 'unterminated") == []

    def test_variable_command_skipped(self):
        assert rules_found("RUN $PKG install -y wget") == []

    def test_document_order_output(self):
        text = (
            "FROM d\n"
            "RUN yarn install\n"
            "RUN pip install x\n"
        )
        found = rules_found(text)
        assert found == [RuleId.yarnCacheCleanAfterInstall, RuleId.pipUseNoCacheDir]


class TestDiagnosticShape:
    def test_span_points_inside_a_run_instruction(self):
        from slimdock.enrich import parse_and_enrich as parse

        text = (
            "FROM d\n"
            "RUN apt-get install -y x\n"
            "RUN pip install y && tar -xzf a.tgz\n"
        )
        ast = parse(text)
        for d in detect(ast):
            assert d.run.kind.value == "DOCKER-RUN"
            assert d.run.span.contains(d.span)

    def test_message_and_fixable_populated(self):
        from slimdock.enrich import parse_and_enrich as parse

        ast = parse("RUN pip install flask")
        (d,) = detect(ast)
        assert d.message == "Clean cache after pip install."
        assert d.fixable is True


class TestRuleNames:
    def test_canonical_names_parse(self):
        assert parse_rule_name("pipUseNoCacheDir") is RuleId.pipUseNoCacheDir

    def test_aliases_accepted(self):
        assert (
            parse_rule_name("aptGetInstallRmAptLists")
            is RuleId.aptGetInstallThenRemoveAptLists
        )
        assert (
            parse_rule_name("rmRecurisveAfterMktempD")
            is RuleId.rmRecursiveAfterMktempD
        )

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            parse_rule_name("noSuchRule")

    def test_rules_filter(self):
        text = "RUN apk add curl && pip install x"
        assert rules_found(text, [RuleId.apkAddUseNoCache]) == [RuleId.apkAddUseNoCache]


def asked_of_every_rule(run):
    """The reference for ``detect_run``: what each rule of ``RULES`` finds
    in ``run`` when all of them are asked, whatever labels it holds, as
    (rule, anchor, extras) in document order."""
    elements = chain_elements(run_script(run))
    ends = None if elements is None else _ends_shell(elements)
    index = RunIndex(run, sys.maxsize if ends is None else elements[ends].span.end)
    found = [(rule.id, anchor, extras) for rule in RULES for anchor, extras in rule.smells(index)]
    order = [rule.id for rule in RULES]
    return sorted(found, key=lambda f: (f[1].statement_position, f[1].position, order.index(f[0])))


class TestLabelDrivenDetection:
    """``detect_run`` asks only the rules whose anchor labels a RUN holds,
    and finds what asking all of them finds, in the same order."""

    def assert_as_reference(self, texts):
        runs = 0
        for text in texts:
            for run in parse_and_enrich(text).runs():
                found = [(d.rule, d.anchor, d.extras) for d in detect_run("<t>", run, None)]
                assert found == asked_of_every_rule(run)
                runs += 1
        return runs

    def test_test_data(self, roundtrip_paths):
        assert self.assert_as_reference(read_text(path) for path in roundtrip_paths) > 100

    def test_workloads(self, workload_texts):
        assert self.assert_as_reference(workload_texts) > 3000

    def test_a_run_asks_only_the_rules_of_its_labels(self, monkeypatch):
        asked, smells = [], Rule.smells
        monkeypatch.setattr(Rule, "smells", lambda rule, index: asked.append(rule.id) or smells(rule, index))
        ast = parse_and_enrich("FROM d\nRUN ./configure && make\n")
        assert (detect(ast), asked) == ([], [])
        ast = parse_and_enrich("FROM d\nRUN ./configure && make\nRUN apt-get install -y x\n")
        apt = [RuleId.aptGetInstallUseNoRec, RuleId.aptGetInstallThenRemoveAptLists]
        assert ([d.rule for d in detect(ast)], asked) == (apt, apt)
