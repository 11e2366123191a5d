#!/usr/bin/env python3
"""slimdock benchmark: lint/fix throughput, per-file latency, set-up time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

The run builds the workload's inputs from ``--seed`` (see ``gen.py``), runs
the CLI from source (``PYTHONPATH=src python -m slimdock.cli``) and the
library in-process, checks every output, and prints a report whose last
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` gives the end-to-end metrics,
``--trace 1`` is the separate traced run that gives the per-layer ones.
Metric names and units are declared in ``BENCHMARK.json``.

End-to-end times are CPU times: ``time.thread_time`` for in-process
calls, user + system time from ``wait4`` for CLI children.  On a shared
2-vCPU host, wall times of the same code spread by 25-50 % between runs,
through vCPU stalls and drifting vCPU speed; CPU time leaves out the
stalls.  With the CLI's thread pool, CPU time is within about 10 % of wall
time on a quiet host.  In-process times are also scaled to a reference
machine speed: fixed reference work is timed between the calls, and each
time is multiplied by ``measure.REF_MS`` over the reference time near it
(see ``measure.Speed``).  The report prints wall or unscaled figures
beside the reported ones.

Exit code 2, with no result line, when the slimdock sources or the
checked-in corpora are missing.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import platform
import random
import shutil
import sys
import time
from collections import Counter

import gen
import measure
from checks import Findings, rule_line_fix

STARTED = time.perf_counter()  # --seconds counts from here
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# A round is a CLI lint and a CLI fix batch, each followed by half of one
# shuffled in-process pass over the inputs.  So every kind of sample is
# spread over the whole run, and all files weigh the same.  Runs complete
# MIN_ROUNDS rounds whatever --seconds says; the tail percentile is fixed
# from the samples those give (``measure.tail_level``).
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 1
# `slimdock rules` start-ups timed before each CLI batch; spreading them
# over the run keeps setup_s from reflecting one second of machine load.
SETUP_PER_SLOT = 1
# A run stops starting new work after this, so it exits within 180 s even
# when the program under test is far slower than at the baseline.
HARD_LIMIT_S = 140.0

END_TO_END = {
    "lint_files_per_s": "1/s",
    "fix_files_per_s": "1/s",
    "lint_file_ms_p50": "ms",
    "lint_file_ms_tail": "ms",
    "fix_file_ms_p50": "ms",
    "fix_file_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "repair_applied_share": "share",
}

SPAN_METRICS = {  # span name -> per-layer metric of its summed self time
    "dockerfile.parse": "dockerfile.parse_ms",
    "enrich.unify": "enrich.unify_ms",
    "enrich.enrich": "enrich.enrich_ms",
    "rules.detect": "rules.detect_ms",
    "rules.repair": "rules.repair_ms",
    "rules.verify": "rules.verify_ms",
    "printer.print": "printer.print_ms",
    "runner.recheck": "runner.recheck_ms",
    "runner.process_files_lint": "runner.process_files_lint_ms",
    "runner.process_files_fix": "runner.process_files_fix_ms",
    "cli.main": "cli.overhead_ms",  # self time: the CLI's work around the batch
}

PER_LAYER = {
    **{metric: "ms" for metric in SPAN_METRICS.values()},
    "dockerfile.instructions": "count",
    "shell.nodes": "count",
    "shell.unparsed_share": "1/RUN",
    "enrich.coverage": "share",
    "rules.diagnostics": "count",
    "rules.applied": "count",
    "rules.rolled_back": "count",
    "rules.not_fixable": "count",
    "printer.changed_files": "count",
    "runner.residual": "count",
    "fix_ms_size_exponent": "slope",
    "trace.overhead_share": "share",
}


class MissingSource(Exception):
    pass


def load_slimdock() -> None:
    """Import slimdock from this checkout's ``src``, never from elsewhere."""
    for needed in (
        os.path.join(SRC, "slimdock", "cli.py"),
        os.path.join(ROOT, "tests", "data", "fixtures", "manifest.json"),
        os.path.join(ROOT, "tests", "data", "roundtrip"),
    ):
        if not os.path.exists(needed):
            raise MissingSource(f"missing {os.path.relpath(needed, ROOT)}: run from a slimdock checkout")
    sys.path.insert(0, SRC)
    import slimdock

    if os.path.dirname(os.path.abspath(slimdock.__file__)) != os.path.join(SRC, "slimdock"):
        raise MissingSource(f"imported slimdock from {slimdock.__file__}, not {SRC}")


class Run(Findings):
    """One benchmark run: inputs, failures found so far, child processes."""

    def __init__(self, workload: str, seed: int, seconds: int):
        super().__init__()
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.cases = gen.generate(workload, seed, ROOT)
        self.work = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
        self.inputs = os.path.join(self.work, "inputs")
        gen.write_cases(self.cases, self.inputs)
        for case in self.cases:
            case.path = os.path.join(self.inputs, case.name)
        self.by_name = {case.name: case for case in self.cases}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + os.pathsep + self.env.get("PYTHONPATH", "")
        self.order_rng = random.Random(f"order:{workload}:{seed}")
        self.started = STARTED
        self.children = 0

    # -- bookkeeping ---------------------------------------------------

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def order(self) -> list:
        cases = [c for c in self.cases if c.name not in self.broken]
        self.order_rng.shuffle(cases)
        return cases

    # -- children --------------------------------------------------------

    def child(self, args: list[str]) -> measure.Child:
        self.children += 1
        out = os.path.join(self.work, f"child{self.children}.out")
        return measure.run_child(
            [sys.executable, "-m", "slimdock.cli", *args], self.env, ROOT, out,
            timeout_s=HARD_LIMIT_S + 20.0 - self.elapsed(),
        )

    def setup_times(self, repeats: int) -> list[measure.Child]:
        """Fresh interpreters running ``slimdock rules``: import, schema and
        regex construction, rule registry, no input."""
        children = []
        for _ in range(repeats):
            result = self.child(["rules"])
            if result.code != 0 or len(result.stdout.splitlines()) != 14:
                self.fail_run(f"slimdock rules: exit {result.code}, "
                              f"{len(result.stdout.splitlines())} rules listed")
            children.append(result)
        return children

    def cli_args(self, mode: str) -> list[str]:
        """``slimdock lint|fix --format json`` over the inputs, default --jobs."""
        return [mode, "--format", "json", self.inputs]

    def cli(self, mode: str) -> measure.Child:
        result = self.child(self.cli_args(mode))
        self.check_cli(mode, result.code, result.stdout, result.stderr)
        return result

    def check_cli(self, mode: str, code: int, stdout: str, stderr: str) -> None:
        """Exit code 0 or 1, and every file's JSON report.  A batch-wide
        failure counts against every file of the batch."""
        if code not in (0, 1):
            self.fail_all(self.by_name, f"CLI {mode} exit code {code}: {stderr.strip()[-300:]}")
        try:
            files = json.loads(stdout)["files"]
        except (ValueError, KeyError, TypeError):
            self.fail_all(self.by_name, f"CLI {mode}: no JSON report (exit {code})")
            return
        seen = set()
        for entry in files:
            name = os.path.basename(entry["path"])
            seen.add(name)
            case = self.by_name.get(name)
            if case is None:
                self.fail_run(f"CLI {mode}: report for unknown file {entry['path']}")
                continue
            if entry["error"] or entry["parse_status"] == "failed-soft":
                self.fail(name, f"CLI {mode}: {entry['parse_status']} {entry['error'] or ''}".strip())
            got = sorted((d["rule"], d["line"], d["fixable"]) for d in entry["diagnostics"])
            if case.expected is not None and got != case.expected:
                self.fail(name, f"CLI {mode}: diagnostics differ from the expected list")
            if mode == "fix" and name in self.fix_results:
                statuses = [r["status"] for r in entry["repairs"]]
                residual = sorted([d["rule"], d["line"]] for d in entry["residual"])
                if [statuses, residual, entry["changed"]] != self.fix_results[name]:
                    self.fail(name, "CLI fix report differs from fix_text")
        for name in set(self.by_name) - seen:
            self.fail(name, f"CLI {mode}: file missing from the report")

    def rounds(self, one_round, minimum: int) -> int:
        """Run ``one_round(i)`` at least ``minimum`` times, then while the
        next round, as long as the last, would end within --seconds."""
        done = 0
        while True:
            begin = time.perf_counter()
            gc.collect()
            one_round(done)
            done += 1
            last = time.perf_counter() - begin
            if self.elapsed() > HARD_LIMIT_S:
                break
            if done >= minimum and self.elapsed() + last > self.seconds:
                break
        return done

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        parent = os.path.dirname(self.work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------


def end_to_end(run: Run) -> dict:
    from slimdock import analyze_text, fix_text

    run.setup_times(1)  # untimed: leaves the bytecode cache warm
    measure.warm_up(run.cases)
    speed = measure.Speed()
    setup, lint_cli, fix_cli = [], [], []
    lint_ms, fix_ms = [], []  # in-process samples as (file, ms, start, end)
    statuses = Counter()
    checked: set[str] = set()

    def timed(call, *args):
        """One library call's CPU milliseconds, start and end, from a
        collected heap: a full collection that earlier calls made due does
        not land on it at random."""
        gc.collect()
        t0, c0 = time.perf_counter(), time.thread_time()
        result = call(*args)
        t1, c1 = time.perf_counter(), time.thread_time()
        return result, ((c1 - c0) * 1000.0, t0, t1)

    def in_process(cases: list) -> None:
        for case in cases:
            speed.due()
            try:
                (ast, report), lint_sample = timed(analyze_text, case.text, case.path)
                speed.due()
                fixed, fix_sample = timed(fix_text, case.text, case.path)
            except Exception as exc:  # a raising input is a finding
                run.fail(case.name, f"raised {type(exc).__name__}: {exc}")
                run.broken.add(case.name)
                continue
            lint_ms.append((case.name, *lint_sample))
            fix_ms.append((case.name, *fix_sample))
            if case.name not in checked:
                checked.add(case.name)
                run.check(case, report.diagnostics, report.status == "failed-soft",
                          fixed.repairs, fixed.fixed, fixed.residual, ast)
                statuses.update(o.status for o in fixed.repairs)

    def one_round(_: int) -> None:
        cases = run.order()
        half = len(cases) // 2
        for mode, batches, chunk in (("lint", lint_cli, cases[:half]), ("fix", fix_cli, cases[half:])):
            setup.extend(run.setup_times(SETUP_PER_SLOT))
            batches.append(run.cli(mode))
            in_process(chunk)

    done = run.rounds(one_round, MIN_ROUNDS)
    files = len(run.cases)
    level = measure.tail_level(files * MIN_ROUNDS)
    m = measure.median_or_zero

    def per_file(samples: list[tuple]) -> list[float]:
        """Every sample, scaled, then replaced by the median of its file's
        scaled samples: a stall that slows a few calls moves no file's
        figure, and every file keeps its weight of one per round."""
        by_file: dict[str, list[float]] = {}
        for name, ms, t0, t1 in samples:
            by_file.setdefault(name, []).append(speed.scale(ms, t0, t1))
        return [m(times) for times in by_file.values() for _ in times]

    def raw(samples: list[tuple]) -> str:
        return f"raw median {m([ms for _, ms, _, _ in samples]):.6g}"

    lint_cpu = [c.cpu_s for c in lint_cli]
    fix_cpu = [c.cpu_s for c in fix_cli]
    setup_s = [c.cpu_s for c in setup]
    lint_scaled, fix_scaled = per_file(lint_ms), per_file(fix_ms)
    # `not-fixable` diagnostics are refused by design, not tried
    tried = statuses["applied"] + statuses["rolled-back"]
    return {
        "meta": {"rounds": done,
                 "speed": f"{len(speed.ms)} probes, median {m(speed.ms):.4g} ms (REF_MS {measure.REF_MS})"},
        "lint_files_per_s": (files / m(lint_cpu), f"per CPU s, n={len(lint_cpu)} CLI runs of {files} files, "
                             f"{files / m([c.wall_s for c in lint_cli]):.6g} per wall s"),
        "fix_files_per_s": (files / m(fix_cpu), f"per CPU s, n={len(fix_cpu)} CLI runs of {files} files, "
                            f"{files / m([c.wall_s for c in fix_cli]):.6g} per wall s"),
        "lint_file_ms_p50": (m(lint_scaled), f"n={len(lint_ms)} per-file medians, {raw(lint_ms)}"),
        "lint_file_ms_tail": measure.tail(lint_scaled, level),
        "fix_file_ms_p50": (m(fix_scaled), f"n={len(fix_ms)} per-file medians, {raw(fix_ms)}"),
        "fix_file_ms_tail": measure.tail(fix_scaled, level),
        "setup_s": (m(setup_s), f"CPU, n={len(setup)}, median wall {m([c.wall_s for c in setup]):.6g} s"),
        "peak_rss_mb": (m([c.maxrss_mb for c in fix_cli]), f"n={len(fix_cli)} CLI fix children"),
        "repair_applied_share": (statuses["applied"] / tried if tried else 0.0,
                                 f"{statuses['applied']} applied of {tried} tried; "
                                 f"{statuses['not-fixable']} not-fixable not tried"),
    }


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------


def layer_counts(run: Run, traced: dict) -> dict[str, float]:
    """Counts for the traced round: work each layer did, outside any span."""
    from slimdock import build_unified_ast, enrich, parse_dockerfile
    from slimdock.model import NodeKind

    counts = Counter()
    for case in run.cases:
        if case.name not in traced:
            continue
        diagnostics, outcomes, fixed, residual = traced[case.name]
        tree = parse_dockerfile(case.text, case.path)
        counts["instructions"] += sum(
            1 for n in tree.root.children if n.kind is not NodeKind.DOCKER_COMMENT)
        ast = build_unified_ast(tree)
        for node in ast.root.walk():
            if node.kind is NodeKind.DOCKER_RUN:
                counts["runs"] += 1
            elif node.kind.value.startswith("SC-"):
                counts["shell_nodes"] += 1
                counts["unparsed"] += node.kind is NodeKind.SC_UNPARSED
        matched, total = enrich(ast).root.prop("enrich_stats", (0, 0))
        counts["enriched"] += matched
        counts["commands"] += total
        counts["diagnostics"] += len(diagnostics)
        for outcome in outcomes:
            counts[outcome.status] += 1
        counts["changed"] += fixed != case.text
        counts["residual"] += len(residual)
    return {
        "dockerfile.instructions": counts["instructions"],
        "shell.nodes": counts["shell_nodes"],
        "shell.unparsed_share": counts["unparsed"] / max(counts["runs"], 1),
        "enrich.coverage": counts["enriched"] / max(counts["commands"], 1),
        "rules.diagnostics": counts["diagnostics"],
        "rules.applied": counts["applied"],
        "rules.rolled_back": counts["rolled-back"],
        "rules.not_fixable": counts["not-fixable"],
        "printer.changed_files": counts["changed"],
        "runner.residual": counts["residual"],
    }


def per_layer(run: Run, spans_path: str) -> dict:
    from slimdock import cli, fix_text

    from spans import Tracer, traced_cli, traced_fix

    tracer = Tracer()
    measure.warm_up(run.cases)
    file_ids = {case.name: i for i, case in enumerate(run.cases)}
    per_round: dict[str, list[float]] = {}
    overhead_shares = []
    fix_times: dict[str, list[float]] = {}
    traced: dict[str, tuple] = {}

    def one_round(index: int) -> None:
        first = len(tracer.spans)
        untraced = traced_total = 0.0
        for case in run.order():
            try:
                t0 = time.perf_counter()
                report = fix_text(case.text, case.path)
                t1 = time.perf_counter()
                before = len(tracer.spans)
                result = traced_fix(tracer, case.text, case.path, file_ids[case.name])
            except Exception as exc:
                run.fail(case.name, f"raised {type(exc).__name__}: {exc}")
                run.broken.add(case.name)
                continue
            untraced += t1 - t0
            traced_total += tracer.total_ms("file", before) / 1000.0
            fix_times.setdefault(case.name, []).append((t1 - t0) * 1000.0)
            diagnostics, outcomes, fixed, residual = result
            if (fixed, rule_line_fix(residual)) != (report.fixed, rule_line_fix(report.residual)):
                run.fail(case.name, "traced composition differs from fix_text")
            if index == 0:
                traced[case.name] = result
                run.check(case, diagnostics, report.status == "failed-soft",
                          outcomes, fixed, residual)
        for mode in ("lint", "fix"):
            try:
                run.check_cli(mode, *traced_cli(tracer, cli, run.cli_args(mode)))
            except Exception as exc:  # a crashing batch is a finding
                run.fail_all(run.by_name, f"CLI {mode} raised {type(exc).__name__}: {exc}")
        for name, ms in tracer.self_ms(first).items():
            per_round.setdefault(name, []).append(ms)
        if untraced:
            overhead_shares.append(traced_total / untraced - 1.0)

    done = run.rounds(one_round, MIN_TRACED_ROUNDS)
    names = [c.name for c in run.cases if c.name in fix_times]
    sizes = [run.by_name[n].size for n in names]
    m = measure.median_or_zero
    slope = measure.loglog_slope(sizes, [m(fix_times[n]) for n in names]) if names else 0.0
    metrics = {
        metric: (m(per_round.get(span, [0.0])), f"self time, median of {done} rounds")
        for span, metric in SPAN_METRICS.items()
    }
    metrics.update({name: (value, "traced round") for name, value in layer_counts(run, traced).items()})
    metrics["fix_ms_size_exponent"] = (slope, f"log-log fit over {len(names)} files")
    metrics["trace.overhead_share"] = (m(overhead_shares), "traced / untraced fix time - 1")
    metrics["meta"] = {"rounds": done}
    tracer.write(spans_path, {"workload": run.workload, "seed": run.seed, "rounds": done})
    return metrics


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "slimdock", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def workload_properties(run: Run) -> str:
    texts = [c.text for c in run.cases]
    known = [c for c in run.cases if c.expected is not None]
    sizes = [c.size for c in run.cases]
    return (f"files={len(texts)} bytes={sum(len(t.encode()) for t in texts)} "
            f"size_axis={min(sizes)}..{max(sizes)} "
            f"smelly_annotated={sum(1 for c in known if c.expected)}/{len(known)} "
            f"duplicates={len(texts) - len(set(texts))}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_slimdock()
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            results = per_layer(run, os.path.join(out_dir, f"trace-{args.workload}.jsonl"))
            units = PER_LAYER
        else:
            results = end_to_end(run)
            units = END_TO_END
    finally:
        run.close()

    meta = results.pop("meta")
    print(f"# slimdock benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} rounds={meta['rounds']} "
          f"wall={run.elapsed():.1f}s")
    print(f"# python={platform.python_version()} nproc={os.cpu_count()} "
          f"src_slimdock_lines={src_lines()}")
    if "speed" in meta:
        print(f"# times scaled to reference speed: {meta['speed']}")
    print(f"# inputs: {workload_properties(run)}")
    for name, unit in units.items():
        value, note = results[name]
        print(f"{name:<30} {value:>14.6g} {unit:<6} {note}")
    failed = len(run.failures)
    print(f"failed: {failed} of {len(run.cases)} files "
          f"(failed_share={failed / len(run.cases):.4f})")
    for name, causes in sorted(run.failures.items()):
        print(f"  FAILED {name} [{run.by_name[name].source}]: {'; '.join(causes)}")
    for cause in run.run_failures:
        print(f"  FAILED run: {cause}")
    print(json.dumps({
        "correct": failed == 0 and not run.run_failures,
        "attempted": len(run.cases),
        "failed": failed,
        "metrics": {name: {"value": results[name][0], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
