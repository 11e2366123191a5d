"""Fix cost stays linear in RUN length.

A single RUN of 400 `&&`-chained commands, alternating `apt-get install`
and `tar -xzf`, raises 600 smells. Fixing it takes about 0.3 s of CPU on
a 2-vCPU x86 container (Python 3.11); a rule check or verification that
rescans the RUN per anchor makes it take minutes. The bound is generous so
that only such a regression trips it.
"""

import time

from slimdock.runner import fix_text

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
