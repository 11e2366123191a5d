"""Lint and fix cost stays linear in RUN length.

A single RUN of 400 `&&`-chained commands, alternating `apt-get install`
and `tar -xzf`, raises 600 smells. Fixing it takes 0.07-0.12 s of CPU on
a 2-vCPU x86 container (Python 3.11); a rule check, repair or verification
that rescans the RUN per anchor makes it take seconds to minutes. The bound is generous so
that only such a regression trips it. Lint of twice as long a RUN must
cost less than three times as much (lint of 400 commands takes about
25 ms): a lexer or parser step that rescans the tokens so far for every
token makes it cost four times as much.

Fix of a 1,600-command RUN must cost less than 17 times the fix of a
200-command one. It costs 8.5-13 times as much (0.51-0.62 s); a repair
that scans the whole chain for each insertion (say, to recompute the
joiner of a new element) makes it cost 23-26 times as much. A 400-to-800
pair does not tell these apart: that repair reads 2.5-3.5 there, the
linear code 1.8-2.5.

Fix analyses a file once and re-analyses only the RUNs its repairs
changed, also across rollback rounds. A file of one repaired RUN and 300
clean ones fixes in 1.0-1.2 times its lint; re-analysing the whole
printed file makes that 2 times or more. With ``# escape=`` ` `` and a
repair that rolls back, it is 1.1-1.3 times; analysing the file again in
the rollback round makes it 2 times or more, and again for each round's
reprint too, 3 times or more. Both must stay under 1.6 times, in the
median of five rounds.
"""

import gc
import time

import pytest

from slimdock.runner import analyze_text, fix_text

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
