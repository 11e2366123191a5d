"""CLI surface: exit codes, JSON schema, discovery, and output modes."""

import json
import os

import pytest

from slimdock.cli import main


def write(tmp_path, name, content):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")
    return str(path)


SMELLY = "FROM python:3.11\nRUN pip install flask\n"
CLEAN = "FROM python:3.11\nRUN pip install --no-cache-dir flask\n"


class TestLint:
    def test_smell_found_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "Dockerfile", SMELLY)
        assert main(["lint", path]) == 1
        out = capsys.readouterr().out
        assert "pipUseNoCacheDir" in out
        assert f"{path}:2:" in out

    def test_clean_exit_0(self, tmp_path):
        path = write(tmp_path, "Dockerfile", CLEAN)
        assert main(["lint", path]) == 0

    def test_rules_filter_skips_other_smells(self, tmp_path):
        path = write(tmp_path, "Dockerfile", SMELLY)
        assert main(["lint", "--rules", "apkAddUseNoCache", path]) == 0

    def test_rule_alias_in_filter(self, tmp_path):
        path = write(tmp_path, "Dockerfile", SMELLY)
        assert main(["lint", "--rules", "pipUseCacheDir", path]) == 1

    def test_filter_of_no_names_checks_every_rule(self, tmp_path):
        path = write(tmp_path, "Dockerfile", SMELLY)
        assert main(["lint", "--rules", ",", path]) == 1

    def test_unknown_rule_is_config_error(self, tmp_path):
        path = write(tmp_path, "Dockerfile", CLEAN)
        assert main(["lint", "--rules", "bogusRule", path]) == 2

    def test_unreadable_path_exit_2(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "missing" / "Dockerfile")]) == 2
        assert "error" in capsys.readouterr().err

    def test_wholly_unparseable_exit_2(self, tmp_path):
        path = write(tmp_path, "Dockerfile", "\x01garbage binary-ish\nmore junk\n")
        assert main(["lint", path]) == 2

    def test_json_schema_stable(self, tmp_path, capsys):
        path = write(tmp_path, "Dockerfile", SMELLY)
        code = main(["lint", "--format", "json", path])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        (entry,) = payload["files"]
        assert entry["parse_status"] == "ok"
        (diag,) = entry["diagnostics"]
        assert set(diag) >= {"rule", "path", "line", "column", "message", "fixable"}
        assert diag["rule"] == "pipUseNoCacheDir"
        assert diag["line"] == 2
        assert payload["summary"]["exit_code"] == 1

    def test_directory_discovery_globs(self, tmp_path):
        write(tmp_path, "app/Dockerfile", SMELLY)
        write(tmp_path, "svc/api.Dockerfile", SMELLY)
        write(tmp_path, "svc/Dockerfile.dev", SMELLY)
        write(tmp_path, "README.md", "# not a dockerfile\n")
        rc = main(["lint", str(tmp_path)])
        assert rc == 1

    def test_env_var_rule_filter(self, tmp_path, monkeypatch):
        path = write(tmp_path, "Dockerfile", SMELLY)
        monkeypatch.setenv("SLIMDOCK_RULES", "apkAddUseNoCache")
        assert main(["lint", path]) == 0

    def test_exit_code_soundness(self, tmp_path):
        path = write(tmp_path, "Dockerfile", CLEAN)
        first = main(["lint", path])
        second = main(["lint", path])
        assert first == second == 0


    def test_verbose_text_names_warnings_on_stderr(self, tmp_path, capsys):
        path = write(tmp_path, "Dockerfile", "FROM x\nRUN cat <<EOF > /f && pip install y\n")
        assert main(["lint", "-v", path]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {path}:2: unterminated heredoc",
            f"warning: {path}:2: heredoc statement left unparsed",
        ]


class TestFix:
    def test_json_verbose_says_why_a_file_is_partial(self, tmp_path, capsys):
        """``fix`` names a file's warnings in its JSON entry as ``lint`` does."""
        path = write(tmp_path, "Dockerfile", "FROM x\nRUN cat <<EOF > /f && pip install y\n")
        entries = []
        for command in ("lint", "fix"):
            main([command, "--format", "json", "-v", path])
            (entry,) = json.loads(capsys.readouterr().out)["files"]
            entries.append((entry["parse_status"], entry["warnings"]))
        warnings = [f"{path}:2: unterminated heredoc", f"{path}:2: heredoc statement left unparsed"]
        assert entries[0] == entries[1] == ("partial", warnings)

    def test_diff_mode_leaves_file_untouched(self, tmp_path, capsys):
        path = write(tmp_path, "Dockerfile", "FROM node\nRUN npm cache clean\n")
        code = main(["fix", "--diff", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "-RUN npm cache clean" in out
        assert "+RUN npm cache clean --force" in out
        assert open(path).read() == "FROM node\nRUN npm cache clean\n"

    def test_in_place_rewrites(self, tmp_path):
        path = write(tmp_path, "Dockerfile", SMELLY)
        code = main(["fix", "--in-place", path])
        assert code == 0
        assert "--no-cache-dir" in open(path).read()

    def test_output_dir(self, tmp_path):
        path = write(tmp_path, "Dockerfile", SMELLY)
        out_dir = tmp_path / "fixed"
        assert main(["fix", "--output-dir", str(out_dir), path]) == 0
        assert "--no-cache-dir" in (out_dir / "Dockerfile").read_text()

    def test_output_dir_keeps_same_named_files_apart(self, tmp_path):
        write(tmp_path / "in" / "a", "Dockerfile", SMELLY)
        write(tmp_path / "in" / "b", "Dockerfile", "FROM node\nRUN yarn install\n")
        out_dir = tmp_path / "fixed"
        assert main(["fix", "--output-dir", str(out_dir), str(tmp_path / "in")]) == 0
        assert (out_dir / "a" / "Dockerfile").read_text() == CLEAN
        assert (out_dir / "b" / "Dockerfile").read_text() == (
            "FROM node\nRUN yarn install && yarn cache clean\n"
        )
        assert sorted(p.name for p in out_dir.iterdir()) == ["a", "b"]

    @pytest.mark.parametrize("mode", ["--in-place", "--output-dir"])
    def test_invalid_utf8_file_is_not_written(self, tmp_path, capsys, mode):
        raw = b"FROM x\n# caf\xe9\nRUN pip install x\n"
        path = tmp_path / "in" / "Dockerfile"
        path.parent.mkdir()
        path.write_bytes(raw)
        out_dir = tmp_path / "out"
        args = [mode] if mode == "--in-place" else [mode, str(out_dir)]
        assert main(["fix", "--format", "json", *args, str(path)]) == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["summary"]["exit_code"] == 2
        assert f"{path}: not valid UTF-8, not written" in err
        assert path.read_bytes() == raw
        assert not out_dir.exists()

    def test_invalid_utf8_file_still_diffed(self, tmp_path, capsys):
        raw = b"FROM x\n# caf\xe9\nRUN pip install x\n"
        path = tmp_path / "Dockerfile"
        path.write_bytes(raw)
        assert main(["fix", "--diff", str(path)]) == 0
        out, err = capsys.readouterr()
        assert "+RUN pip install --no-cache-dir x\n" in out
        assert "not written" not in err
        assert path.read_bytes() == raw

    def test_write_failure_named_on_stderr_in_text_format(self, tmp_path, capsys):
        raw = b"FROM x\n# caf\xe9\nRUN pip install x\n"
        path = tmp_path / "Dockerfile"
        path.write_bytes(raw)
        assert main(["fix", "--in-place", str(path)]) == 2
        assert f"{path}: not valid UTF-8, not written" in capsys.readouterr().err
        assert path.read_bytes() == raw

    def test_already_clean_no_changes_exit_0(self, tmp_path, capsys):
        path = write(tmp_path, "Dockerfile", CLEAN)
        code = main(["fix", "--in-place", path])
        assert code == 0
        assert open(path).read() == CLEAN

    def test_not_fixable_semicolon_exit_1(self, tmp_path, capsys):
        src = "FROM d\nRUN apt-get update; apt-get install -y curl\n"
        path = write(tmp_path, "Dockerfile", src)
        code = main(["fix", "--diff", path])
        out = capsys.readouterr().out
        assert code == 1
        assert "not fixable" in out
        assert open(path).read() == src

    def test_cli_level_idempotence(self, tmp_path):
        path = write(tmp_path, "Dockerfile", SMELLY)
        assert main(["fix", "--in-place", path]) == 0
        once = open(path).read()
        assert main(["fix", "--in-place", path]) == 0
        assert open(path).read() == once

    def test_fix_json_summary(self, tmp_path, capsys):
        path = write(tmp_path, "Dockerfile", SMELLY)
        code = main(["fix", "--format", "json", "--in-place", path])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["summary"]["applied"] == 1
        assert payload["summary"]["residual"] == 0
        (entry,) = payload["files"]
        assert entry["repairs"][0]["status"] == "applied"
        assert entry["repairs"][0]["detail"] is None

    def test_rollback_says_why_in_json_and_text(self, tmp_path, capsys):
        # the appended ` && rm a\` turns the archive `a\` into `a `
        path = write(tmp_path, "Dockerfile", "# escape=`\nFROM debian\nRUN tar -xzf a\\\n")
        assert main(["fix", "--format", "json", path]) == 1
        (entry,) = json.loads(capsys.readouterr().out)["files"]
        assert entry["repairs"] == [{
            "rule": "tarSomethingRmTheSomething", "line": 3, "status": "rolled-back",
            "reason": "still-detected", "detail": "words",
        }]
        assert main(["fix", path]) == 1
        assert capsys.readouterr().out.splitlines()[0] == (
            f"{path}:3: rolled back tarSomethingRmTheSomething (still-detected: words)"
        )

    def test_output_dir_that_is_a_file_fails_the_write(self, tmp_path, capsys):
        path = write(tmp_path, "in/Dockerfile", SMELLY)
        out_file = write(tmp_path, "out", "not a directory\n")
        assert main(["fix", "--output-dir", out_file, path]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {out_file}/Dockerfile: [Errno 17] File exists: '{out_file}'\n"
        assert open(path).read() == SMELLY

    def test_in_place_write_failure_named_on_stderr(self, tmp_path, capsys, monkeypatch):
        import slimdock.cli as cli

        def refuse(file, mode="r", **kwargs):
            raise PermissionError(13, "Permission denied", file)

        path = write(tmp_path, "Dockerfile", SMELLY)
        monkeypatch.setattr(cli, "open", refuse, raising=False)
        assert main(["fix", "--in-place", "--format", "json", path]) == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["summary"]["exit_code"] == 2
        assert err == f"error: {path}: [Errno 13] Permission denied: '{path}'\n"
        assert open(path).read() == SMELLY


class TestStats:
    def _corpus(self, tmp_path):
        write(tmp_path, "a/Dockerfile", "FROM p\nRUN pip install x && pip install y\n")
        write(tmp_path, "b/Dockerfile", "FROM p\nRUN pip install z\nRUN apk add git\n")
        # byte-identical duplicate of a/: must be deduplicated
        write(tmp_path, "c/Dockerfile", "FROM p\nRUN pip install x && pip install y\n")
        write(tmp_path, "d/Dockerfile", CLEAN)
        return str(tmp_path)

    def test_counts_and_dedup(self, tmp_path, capsys):
        root = self._corpus(tmp_path)
        code = main(["stats", "--format", "json", root])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["files_scanned"] == 4
        assert payload["files_unique"] == 3
        pip = payload["rules"]["pipUseNoCacheDir"]
        assert pip["occurrences"] == 3
        assert pip["files_with_smell"] == 2
        apk = payload["rules"]["apkAddUseNoCache"]
        assert (apk["occurrences"], apk["files_with_smell"]) == (1, 1)
        assert payload["totals"]["occurrences"] == 4
        assert payload["totals"]["files_with_smell"] == 2

    def test_table_layout(self, tmp_path, capsys):
        root = self._corpus(tmp_path)
        assert main(["stats", root]) == 0
        out = capsys.readouterr().out
        assert "# Docker Smell" in out
        assert "# Dockerfile with Smell" in out
        assert "Total" in out
        assert "pipUseNoCacheDir" in out

    def test_empty_directory_all_zeros(self, tmp_path, capsys):
        os.makedirs(tmp_path / "empty")
        assert main(["stats", "--format", "json", str(tmp_path / "empty")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["totals"]["occurrences"] == 0
        assert payload["files_scanned"] == 0

    def test_missing_root_exit_2(self, tmp_path):
        assert main(["stats", str(tmp_path / "nope")]) == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_unreadable_file_is_named(self, tmp_path, capsys, fmt):
        write(tmp_path, "a/Dockerfile", CLEAN)
        os.makedirs(tmp_path / "b")
        broken = tmp_path / "b" / "Dockerfile"
        os.symlink(tmp_path / "missing", broken)
        assert main(["stats", "--format", fmt, str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert f"{broken}: error: " in err
        assert f"{broken}" not in out


class TestNoKnownInstruction:
    """A file with no known instruction is named with its error: in the
    JSON of lint and fix, else on stderr."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command, code", [("lint", 2), ("fix", 2), ("stats", 0)])
    def test_file_is_named(self, tmp_path, capsys, command, code, fmt):
        path = write(tmp_path, "b/Dockerfile", "FOO bar\nBAZ qux\n")
        assert main([command, "--format", fmt, str(tmp_path)]) == code
        out, err = capsys.readouterr()
        if fmt == "json" and command != "stats":
            (entry,) = json.loads(out)["files"]
            assert (entry["parse_status"], entry["error"]) == ("failed-soft", "no known instruction")
        else:
            assert err == f"{path}: error: no known instruction\n"


class TestRulesListing:
    def test_lists_all_fourteen(self, capsys):
        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 14
        assert "aptGetInstallThenRemoveAptLists" in out


class TestRobustness:
    def test_parallel_jobs_stable_order(self, tmp_path, capsys):
        for i in range(6):
            write(tmp_path, f"svc{i}/Dockerfile", SMELLY)
        assert main(["lint", "--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        paths = [f["path"] for f in payload["files"]]
        assert paths == sorted(paths)
        assert payload["summary"]["diagnostics"] == 6

    def test_unterminated_compound_at_eof_does_not_abort_batch(self, tmp_path, capsys):
        write(tmp_path, "a/Dockerfile", "FROM x\nRUN { cd /tmp")
        write(tmp_path, "b/Dockerfile", SMELLY)
        assert main(["lint", "--format", "json", str(tmp_path)]) == 1
        files = json.loads(capsys.readouterr().out)["files"]
        assert [(f["parse_status"], f["error"]) for f in files] == [
            ("partial", None),
            ("ok", None),
        ]
        assert [len(f["diagnostics"]) for f in files] == [0, 1]

    @pytest.mark.parametrize("command", ["lint", "fix"])
    def test_internal_error_is_isolated_to_its_file(
        self, tmp_path, capsys, monkeypatch, command
    ):
        import slimdock.runner as runner

        real = runner.parse_and_enrich

        def parse(text, path):
            if "bad" in path:
                raise RuntimeError("boom")
            return real(text, path)

        monkeypatch.setattr(runner, "parse_and_enrich", parse)
        write(tmp_path, "bad/Dockerfile", SMELLY)
        write(tmp_path, "good/Dockerfile", SMELLY)
        assert main([command, "--format", "json", str(tmp_path)]) == 2
        bad, good = json.loads(capsys.readouterr().out)["files"]
        assert bad["parse_status"] == "failed-soft"
        assert bad["error"] == "internal error: RuntimeError: boom"
        assert good["error"] is None
        assert [d["rule"] for d in good["diagnostics"]] == ["pipUseNoCacheDir"]

    def test_invalid_utf8_replaced_with_warning(self, tmp_path, capsys):
        path = tmp_path / "Dockerfile"
        path.write_bytes(b"FROM x\nRUN echo \xff\xfe\n")
        code = main(["lint", "--format", "json", "-v", str(path)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        (entry,) = payload["files"]
        assert entry["parse_status"] == "partial"
        assert any("invalid UTF-8" in w for w in entry["warnings"])
