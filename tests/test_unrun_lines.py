"""scripts/unrun_lines.py lists the lines of src/slimdock that the tests it
runs leave unrun, and not the lines they run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "unrun_lines.py")
MODEL = os.path.join(ROOT, "src", "slimdock", "model.py")


def line_of(path, text):
    with open(path, encoding="utf-8") as fh:
        return next(n for n, line in enumerate(fh, 1) if text in line)


def test_lists_what_the_tests_leave_unrun():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, SCRIPT, "--", os.path.join(ROOT, "tests", "test_model.py"),
         "-k", "TestTreeSurgery"],
        env=env, capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout
    lines = done.stdout.splitlines()
    unrun = [line for line in lines if line.startswith("src/slimdock/")]
    assert lines[-1] == f"{len(unrun)} unrun lines"
    ran = line_of(MODEL, "escapes parent {node!r}")  # a child outside its parent
    skipped = line_of(MODEL, "return NotImplemented")  # no span is compared
    imported = line_of(MODEL, "class SourceSpan:")
    assert f"src/slimdock/model.py:{skipped}" in unrun
    assert f"src/slimdock/model.py:{ran}" not in unrun
    assert f"src/slimdock/model.py:{imported}" not in unrun
