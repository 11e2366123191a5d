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
"""

import gc
import time

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


def least_cpu(run, small_text, large_text, rounds):
    # Interleave the two sizes and keep the least time of each, so that a
    # burst of load on the host weighs on both alike.
    small = large = float("inf")
    for _ in range(rounds):
        small = min(small, cpu(run, small_text))
        large = min(large, cpu(run, large_text))
    return small, large


def test_lint_cost_linear_in_run_length():
    small, large = least_cpu(analyze_text, chain(COMMANDS), chain(2 * COMMANDS), 9)
    assert large < 3 * small, f"{2 * COMMANDS} commands: {large:.3f} s, {COMMANDS}: {small:.3f} s"


def test_fix_cost_linear_in_run_length():
    small, large = least_cpu(fix_text, chain(COMMANDS // 2), chain(4 * COMMANDS), 3)
    assert large < 17 * small, (
        f"{4 * COMMANDS} commands: {large:.3f} s, {COMMANDS // 2}: {small:.3f} s"
    )
