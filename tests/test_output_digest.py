"""scripts/output_digest.py gives the same digests on every run."""

import glob
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "output_digest.py")


def run_digest(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, SCRIPT, *args], env=env, capture_output=True, text=True, timeout=300
    )
    return done.returncode, done.stdout


def test_digest_of_test_data_is_stable(tmp_path):
    # separate processes, so set and dict orders under different hash seeds
    files = len(glob.glob(os.path.join(ROOT, "tests", "data", "*", "*.Dockerfile")))
    code, first = run_digest()
    assert code == 0
    lines = first.splitlines()
    assert len(lines) == files + 1
    assert lines[-1].startswith("TOTAL ")
    assert run_digest() == (0, first)
    before = tmp_path / "before.txt"
    before.write_text(first)
    assert run_digest("--against", str(before)) == (0, f"0 of {files} inputs differ\n")
