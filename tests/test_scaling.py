"""Lint and fix cost stays linear in RUN length.

A single RUN of 400 `&&`-chained commands, alternating `apt-get install`
and `tar -xzf`, raises 600 smells. Fixing it takes 0.07-0.12 s of CPU on
a 2-vCPU x86 container (Python 3.11); a rule check, repair or verification
that rescans the RUN per anchor makes it take seconds to minutes. The bound is generous so
that only such a regression trips it. Lint of twice as long a RUN must
cost less than three times as much (lint of 400 commands takes about
25 ms): a lexer or parser step that rescans the tokens so far for every
token makes it cost four times as much.
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


def lint_cpu(text):
    """CPU time of one lint, from a collected heap with the collector held off."""
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        analyze_text(text, "Dockerfile")
        return time.process_time() - start
    finally:
        gc.enable()


def test_lint_cost_linear_in_run_length():
    # Interleave the two sizes and keep the least time of each, so that a
    # burst of load on the host weighs on both alike.
    texts = chain(COMMANDS), chain(2 * COMMANDS)
    small = large = float("inf")
    for _ in range(5):
        small = min(small, lint_cpu(texts[0]))
        large = min(large, lint_cpu(texts[1]))
    assert large < 3 * small, f"{2 * COMMANDS} commands: {large:.3f} s, {COMMANDS}: {small:.3f} s"
