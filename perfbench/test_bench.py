"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -t perfbench

They need a slimdock checkout (``src/`` and ``tests/data``) around
``perfbench/``; the two short benchmark runs take about half a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import measure  # noqa: E402
import mix  # noqa: E402
import run  # noqa: E402

run.load_slimdock()

from slimdock import analyze_text  # noqa: E402

from checks import rule_line_fix  # noqa: E402
from gen import GEMRC, NPM_CLEAN, Cmd, RunSpec  # noqa: E402


def bench(*args: str) -> tuple[list[str], dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(args))
    assert code == 0, out.getvalue()
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def slimdock_sees(text: str) -> list[tuple[str, int, bool]]:
    _, report = analyze_text(text, "Dockerfile")
    return rule_line_fix(report.diagnostics)


class Inputs(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in gen.WORKLOADS:
            with self.subTest(workload=workload):
                first = gen.generate(workload, 7, run.ROOT)
                again = gen.generate(workload, 7, run.ROOT)
                other = gen.generate(workload, 8, run.ROOT)
                self.assertEqual([(c.name, c.text) for c in first],
                                 [(c.name, c.text) for c in again])
                self.assertNotEqual([c.text for c in first], [c.text for c in other])

    def test_corpus_copies_are_distinct(self):
        cases = gen.generate("corpus", 3, run.ROOT)
        self.assertEqual(len({c.text for c in cases}), len(cases))

    def test_marker_keeps_parser_directives_first(self):
        text, line = gen._insert_marker("# escape=`\r\nFROM x\r\n", "copy 1")
        self.assertEqual(text, "# escape=`\r\n# copy 1\r\nFROM x\r\n")
        self.assertEqual(line, 2)

    def test_generated_files_match_their_expected_lists(self):
        for workload in ("long_runs", "large_files"):
            for case in gen.generate(workload, 5, run.ROOT)[:6]:
                with self.subTest(workload=workload, case=case.name):
                    self.assertEqual(slimdock_sees(case.text), case.expected)


class Mix(unittest.TestCase):
    def test_table_matches_the_checked_in_files(self):
        counts = mix.derive(run.ROOT)
        if counts["files"] != gen.MIX["files"]:
            self.skipTest("the checked-in Dockerfiles changed; re-derive gen.MIX with mix.py")
        self.assertEqual(counts, gen.MIX)

    def test_splitter_folds_compound_statements(self):
        cmds, sequence = mix.split_commands(
            'set -eux; apt-get update && if [ -f "a;b" ]; then echo $(date; true); fi; rm -rf /x')
        self.assertEqual(cmds, ["set -eux", "apt-get update",
                                'if [ -f "a;b" ]; then echo $(date; true); fi', "rm -rf /x"])
        self.assertTrue(sequence)
        self.assertEqual(mix.split_commands("a && b | c"), (["a", "b", "c"], False))

    def test_cleanup_distance(self):
        self.assertEqual(mix._cleaned("tar", "tar -xzf a.tgz -C /srv", ["cd /", "rm a.tgz"]), 2)
        self.assertEqual(mix._cleaned("mkdir_usr_src", "mkdir -p /usr/src/x", ["rm -f /usr/src/x"]), 0)

    def test_marks_keep_the_exact_share(self):
        self.assertEqual(sum(gen.marks(72, 9, 72)), 9)
        self.assertEqual(gen.marks(5, 2, 5), [True, False, False, True, False])


class TemplateExpectations(unittest.TestCase):
    """Hand-written RUNs in the table's terms: the table's prediction and
    slimdock must both give the hand-written list."""

    def check(self, runs: list[list[Cmd]], hand: list[tuple[str, int, bool]], seq=()):
        text, specs, line = "FROM debian:bookworm\n", [], 2
        for i, cmds in enumerate(runs):
            rendered = gen.render_run(cmds, i in seq)
            specs.append(RunSpec(line + (i in seq), cmds, i not in seq))
            text += rendered
            line += rendered.count("\n")
        self.assertEqual(gen.expected_diagnostics(specs), sorted(hand))
        self.assertEqual(slimdock_sees(text), sorted(hand))

    def test_cleanup_later_in_the_same_run(self):
        apt = Cmd("apt-get install -y curl", [
            ("aptGetInstallUseNoRec", None),
            ("aptGetInstallThenRemoveAptLists", ("rm-r", "/var/lib/apt/lists/*"))])
        rm = Cmd("rm -rf /var/lib/apt/lists/*",
                 cleans={"/var/lib/apt/lists/*", ("rm-r", "/var/lib/apt/lists/*")})
        self.check([[apt, Cmd("cd /srv"), rm]], [("aptGetInstallUseNoRec", 2, True)])

    def test_cleanup_before_or_in_another_run_does_not_count(self):
        tar = Cmd("tar -xzf a.tgz -C /srv", [("tarSomethingRmTheSomething", "a.tgz")])
        rm = Cmd("rm -f a.tgz", cleans={"a.tgz"})
        self.check([[rm, tar], [rm]], [("tarSomethingRmTheSomething", 3, True)])

    def test_non_recursive_rm_leaves_directories(self):
        mkdir = Cmd("mkdir -p /usr/src/app", [("mkdirUsrSrcThenRemove", ("rm-r", "/usr/src/app"))])
        self.check([[mkdir, Cmd("rm -f /usr/src/app", cleans={"/usr/src/app"})]],
                   [("mkdirUsrSrcThenRemove", 2, True)])

    def test_gemrc_anywhere_in_the_file(self):
        gem = Cmd("gem update --system", [
            ("gemUpdateSystemRmRootGem", ("rm-r", gen.ROOT_GEM)),
            ("gemUpdateNoDocument", GEMRC)])
        gemrc = Cmd("echo 'gem: --no-document' > /etc/gemrc", cleans={GEMRC})
        self.check([[gem], [gemrc]], [("gemUpdateSystemRmRootGem", 2, True)])

    def test_sequence_makes_element_repairs_not_fixable(self):
        npm = Cmd("npm install", [("npmCacheCleanAfterInstall", NPM_CLEAN)])
        pip = Cmd("pip install flask", [("pipUseNoCacheDir", None)])
        self.check([[npm, pip]], [("npmCacheCleanAfterInstall", 3, False),
                                  ("pipUseNoCacheDir", 4, True)], seq=(0,))

    def test_quoted_and_variable_operands(self):
        tar = Cmd('tar -xJf "/tmp/n v.tar.xz" -C /srv',
                  [("tarSomethingRmTheSomething", "/tmp/n v.tar.xz")])
        var = Cmd('tar -xzf "/tmp/n-${VERSION}.tgz" -C /srv')
        tmp = Cmd("T=$(mktemp -d)", [("rmRecursiveAfterMktempD", ("rm-r", "$T"))])
        rm = Cmd('rm -rf "$T"', cleans={"$T", ("rm-r", "$T")})
        self.check([[tar, var, tmp, rm]], [("tarSomethingRmTheSomething", 2, True)])


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        from spans import Tracer

        tracer = Tracer()
        tracer.spans = [
            ("file", 0.0, 1.0, -1, 0),
            ("rules.detect", 0.1, 0.4, 0, 0),
            ("rules.verify", 0.3, 0.5, 0, 0),  # overlaps its sibling
            ("runner.recheck", 0.6, 0.7, 0, 0),
            ("dockerfile.parse", 0.62, 0.65, 3, 0),
        ]
        got = {k: round(v, 6) for k, v in tracer.self_ms().items()}
        self.assertEqual(got, {"file": 500.0, "rules.detect": 300.0, "rules.verify": 200.0,
                               "runner.recheck": 70.0, "dockerfile.parse": 30.0})
        self.assertEqual({k: round(v, 6) for k, v in tracer.self_ms(3).items()},
                         {"runner.recheck": 70.0, "dockerfile.parse": 30.0})


class SpeedScale(unittest.TestCase):
    def test_reference_work_is_fixed(self):
        # the yardstick of every scaled time: changing it moves every metric
        self.assertEqual(measure.reference_work(), 50173)

    def test_scale_uses_the_nearest_probes(self):
        speed = measure.Speed()
        speed.NEAREST = 2
        speed.WINDOW_S = 0.5
        speed.times = [1.0, 2.0, 3.0, 10.0, 11.0]
        speed.ms = [measure.REF_MS] * 3 + [2 * measure.REF_MS] * 2
        self.assertEqual(speed.scale(8.0, 1.5, 2.5), 8.0)
        self.assertEqual(speed.scale(8.0, 10.2, 10.4), 4.0)  # a stretch at half speed


class Runs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.declared = json.load(fh)

    def assert_declared(self, lines: list[str], result: dict, section: str) -> None:
        units = {m["name"]: m["unit"] for m in self.declared[section]}
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(units))
        for name, entry in metrics.items():
            self.assertEqual(entry["unit"], units[name])
        table = [line.split()[0] for line in lines[:-1] if line[:1].isalpha()]
        printed = [name for name in table if name != "failed:"]
        self.assertEqual(sorted(printed), sorted(units))
        self.assertTrue(result["correct"], "\n".join(lines))

    def test_end_to_end_names_are_declared(self):
        self.assertEqual(
            {(m["name"], m["unit"]) for m in self.declared["end_to_end"]},
            set(run.END_TO_END.items()))
        lines, result = bench("--workload", "long_runs", "--seed", "3", "--seconds", "1", "--trace", "0")
        self.assert_declared(lines, result, "end_to_end")

    def test_traced_counts_repeat_exactly(self):
        self.assertEqual(
            {(m["name"], m["unit"]) for m in self.declared["per_layer"]},
            set(run.PER_LAYER.items()))
        args = ("--workload", "long_runs", "--seed", "3", "--seconds", "1", "--trace", "1")
        lines, first = bench(*args)
        self.assert_declared(lines, first, "per_layer")
        _, second = bench(*args)
        counts = [n for n, unit in run.PER_LAYER.items() if unit == "count"]
        self.assertIn("runner.residual", counts)
        for name in counts:
            self.assertEqual(first["metrics"][name], second["metrics"][name], name)

    def test_batch_failure_counts_against_every_input(self):
        bench_run = run.Run("long_runs", 3, 1)
        try:
            bench_run.check_cli("lint", 2, "", "Traceback: boom")
        finally:
            bench_run.close()
        self.assertEqual(set(bench_run.failures), set(bench_run.by_name))
        self.assertEqual(bench_run.run_failures, [])

    def test_fails_without_the_program(self):
        work = os.path.join(run.ROOT, ".bench_work")
        os.makedirs(work, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as bare:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
