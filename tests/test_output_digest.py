"""scripts/output_digest.py gives the same digests on every run, and
leaves out the props it is told to drop."""

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


def test_drop_prop_leaves_out_what_nodes_carry(tmp_path):
    files = len(glob.glob(os.path.join(ROOT, "tests", "data", "*", "*.Dockerfile")))
    before = tmp_path / "before.txt"
    before.write_text(run_digest()[1])
    code, out = run_digest("--drop-prop", "SC-WORD:text", "--against", str(before))
    *differs, summary = out.splitlines()
    assert code == 1 and differs
    assert summary == f"{len(differs)} of {files} inputs differ"
    nothing = ("--drop-prop", "SC-WORD:none", "--drop-prop", "DOCKER-RUN:none", "SC-WORD:other")
    assert run_digest(*nothing, "--against", str(before)) == (0, f"0 of {files} inputs differ\n")
