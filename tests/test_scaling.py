"""Lint and fix cost stays linear in RUN length.

A single RUN of 400 `&&`-chained commands, alternating `apt-get install`
and `tar -xzf`, raises 600 smells. Fixing it takes 0.07-0.12 s of CPU on
a 2-vCPU x86 container (Python 3.11); a rule check, repair or verification
that rescans the RUN per anchor makes it take seconds to minutes. The bound is generous so
that only such a regression trips it. Lint of twice as long a RUN must
cost less than three times as much (lint of 400 commands takes about
25 ms): a lexer or parser step that rescans the tokens so far for every
token makes it cost four times as much.

Lint of a file of 800 one-line RUNs must also cost less than three times
lint of 400 (about 35 ms). It costs 1.65-2.0 times as much; a step that
walks the whole tree once per RUN makes it 3.6 times.

Fix of a 1,600-command RUN must cost less than 17 times the fix of a
200-command one. It costs 8.5-13 times as much (0.51-0.62 s); a repair
that scans the whole chain for each insertion (say, to recompute the
joiner of a new element) makes it cost 23-26 times as much. A 400-to-800
pair does not tell these apart: that repair reads 2.5-3.5 there, the
linear code 1.8-2.5.

Fix analyses a file once and of the printed file reads again only the
RUNs its repairs edited, also across rollback rounds. A file of one
repaired RUN and 300 clean ones fixes in 1.05-1.1 times its lint
(1.1-1.2 when each round parsed the whole printed file as a Dockerfile);
re-analysing the whole printed file makes that 2 times or more. With
``# escape=`` ` `` and a repair that rolls back, it is 1.05-1.1 times;
analysing the file again in the rollback round makes it 2 times or more,
and again for each round's reprint too, 3 times or more. Both must stay
under 1.6 times, in the median of five rounds. Two guards count the work
instead of timing it: that fix reads each of the file's 302 instructions
once and the edited RUN once more (a parse of the whole printed file
reads 604), and that when the inserted gemrc line configures gem for the
whole file, only the edited RUN is detected again (re-detecting every RUN
makes two calls there).

Of an edited RUN, fix parses again only the chain elements its repairs
touched. A chain of 301 elements with one flag inserted into its first
and a cleanup appended to its last fixes in 1.3-1.4 times its lint;
embedding and enriching the whole edited RUN again makes that 1.9-3.0
times (median 2.1). It must stay under 1.75 times.

A batch holds one file's trees at a time. The tracemalloc peak of
``process_files(fix=True)`` over 8 byte-distinct copies of a 61-command
chain with 7 smells is 1.19 times its peak over one copy (615 against
518 KB); a report that keeps its file's trees (a diagnostic's ``run``)
makes it 6.3 times. It must stay under 1.5 times. What the reports
themselves hold grows with the smells: over copies of a chain in which
each of 50 commands smells (75 diagnostics and repairs a file) the ratio
is 1.6.
"""

import gc
import time
import tracemalloc

import pytest

from slimdock import runner
from slimdock.dockerfile import FileParser
from slimdock.rules import detect_run
from slimdock.runner import analyze_text, fix_text, process_files

COMMANDS = 400
BOUND_S = 3.0


def chain(n):
    cmds = [
        f"apt-get install -y pkg{i}" if i % 2 == 0 else f"tar -xzf archive{i}.tgz"
        for i in range(n)
    ]
    return "FROM debian\nRUN " + " && \\\n    ".join(cmds) + "\n"


def test_long_run_fixes_fast_and_completely():
    text = chain(COMMANDS)
    start = time.process_time()
    report = fix_text(text, "Dockerfile")
    elapsed = time.process_time() - start
    assert elapsed < BOUND_S, f"fix took {elapsed:.2f} s of CPU"
    assert len(report.repairs) == COMMANDS // 2 * 3
    assert {o.status for o in report.repairs} == {"applied"}
    assert report.residual == []
    assert fix_text(report.fixed, "Dockerfile").fixed == report.fixed


def cpu(run, text):
    """CPU time of one ``run(text, path)``, from a collected heap with the
    collector held off."""
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        run(text, "Dockerfile")
        return time.process_time() - start
    finally:
        gc.enable()


def cpu_rounds(calls, rounds):
    """Per round, the CPU time of each ``(run, text)`` of ``calls``.

    The calls are interleaved, so that a burst of load on the host weighs
    on all of them alike."""
    return [[cpu(run, text) for run, text in calls] for _ in range(rounds)]


def least_cpu(calls, rounds):
    """Per ``(run, text)`` of ``calls``, the least CPU time of ``rounds``."""
    return [min(times) for times in zip(*cpu_rounds(calls, rounds))]


def test_lint_cost_linear_in_run_length():
    small, large = least_cpu(
        [(analyze_text, chain(COMMANDS)), (analyze_text, chain(2 * COMMANDS))], 9
    )
    assert large < 3 * small, f"{2 * COMMANDS} commands: {large:.3f} s, {COMMANDS}: {small:.3f} s"


def one_line_runs(n):
    return "FROM debian\n" + "".join(
        f"RUN apt-get install -y pkg{i}\n" if i % 2 == 0 else f"RUN tar -xzf archive{i}.tgz\n"
        for i in range(n)
    )


def test_lint_cost_linear_in_runs_per_file():
    small, large = least_cpu(
        [(analyze_text, one_line_runs(COMMANDS)), (analyze_text, one_line_runs(2 * COMMANDS))], 9
    )
    assert large < 3 * small, f"{2 * COMMANDS} RUNs: {large:.3f} s, {COMMANDS}: {small:.3f} s"


def test_fix_cost_linear_in_run_length():
    small, large = least_cpu(
        [(fix_text, chain(COMMANDS // 2)), (fix_text, chain(4 * COMMANDS))], 3
    )
    assert large < 17 * small, (
        f"{4 * COMMANDS} commands: {large:.3f} s, {COMMANDS // 2}: {small:.3f} s"
    )


CLEAN_RUNS = "".join(
    f"RUN cd /srv/app{i} && make -j4 target{i} && echo built {i}\n" for i in range(300)
)


@pytest.mark.parametrize(
    "head, rolled_back",
    [
        ("FROM debian\nRUN apt-get install -y x && tar -xzf a.tgz\n", False),
        # `&& rm a\` would turn the archive word `a\` into `a `: every
        # repair of that RUN rolls back, in a second round
        ("# escape=`\nFROM debian\nRUN apt-get install -y x && tar -xzf a\\\n", True),
    ],
)
def test_fix_of_clean_runs_costs_about_a_lint(head, rolled_back):
    text = head + CLEAN_RUNS
    report = fix_text(text, "Dockerfile")
    assert {o.status for o in report.repairs} == {"rolled-back" if rolled_back else "applied"}
    # the median of the rounds' ratios: the host sometimes runs one call
    # much faster than the next, which would skew a ratio of least times
    ratios = sorted(fix / lint for lint, fix in cpu_rounds([(analyze_text, text), (fix_text, text)], 5))
    assert ratios[2] < 1.6, f"fix/lint per round: {ratios}"


def test_fix_reads_each_instruction_once_and_the_edited_run_again(monkeypatch):
    read = FileParser._parse_instruction
    lines = []
    monkeypatch.setattr(
        FileParser, "_parse_instruction", lambda self, i: lines.append(i) or read(self, i)
    )
    head = "FROM debian\nRUN apt-get install -y x && tar -xzf a.tgz\n"
    report = fix_text(head + CLEAN_RUNS, "Dockerfile")
    assert {o.status for o in report.repairs} == {"applied"}
    assert lines == list(range(302)) + [1]


def test_a_gemrc_flip_detects_only_the_edited_run(monkeypatch):
    """The gemrc line inserted into the third line configures gem for the
    whole file: the RUN on the second line is not detected again."""
    detected = []

    def counted(path, run, *rest):
        detected.append(run)
        return detect_run(path, run, *rest)

    monkeypatch.setattr(runner, "detect_run", counted)
    text = "FROM ruby\nRUN gem update --system || true\nRUN gem update --system\n"
    report = fix_text(text, "Dockerfile")
    assert [o.status for o in report.repairs].count("applied") == 2
    assert [run.span.start_line for run in detected] == [3]


LONG_CHAIN = "FROM debian\nRUN apt-get install -y x && " + " && \\\n    ".join(
    f"cd /srv/app{i} && make -j4 target{i}" for i in range(150)
) + "\n"


def test_fix_of_a_long_chain_costs_about_a_lint():
    report = fix_text(LONG_CHAIN, "Dockerfile")
    assert [len(o.edits) for o in report.repairs if o.status == "applied"] == [1, 1]
    calls = [(analyze_text, LONG_CHAIN), (fix_text, LONG_CHAIN)]
    ratios = sorted(fix / lint for lint, fix in cpu_rounds(calls, 5))
    assert ratios[2] < 1.75, f"fix/lint per round: {ratios}"


BATCH_CHAIN = "FROM debian\nRUN apt-get install -y x && " + " && \\\n    ".join(
    f"curl -fsSL -o p{i}.tgz https://example.com/p{i}.tgz && tar -xzf p{i}.tgz -C /opt"
    f" && cd /srv/app{i} && make -j4 target{i}" + (f" && rm p{i}.tgz" if i % 3 else "")
    for i in range(15)
) + "\n"


def batch_peak(paths):
    """The tracemalloc peak, in bytes, of fixing ``paths`` as one batch."""
    tracemalloc.start()
    try:
        process_files(paths, fix=True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_memory_flat_in_files_per_batch(tmp_path):
    paths = []
    for i in range(8):
        path = tmp_path / f"{i}.Dockerfile"
        path.write_text(f"# copy {i}\n" + BATCH_CHAIN, encoding="utf-8")
        paths.append(str(path))
    one, eight = batch_peak(paths[:1]), batch_peak(paths)
    assert eight < 1.5 * one, f"8 files: {eight // 1024} KB, 1 file: {one // 1024} KB"
