"""The corpus scripts regenerate ``tests/data`` byte for byte."""

import os
import subprocess
import sys

import pytest

from conftest import FIXTURES_DIR, ROUNDTRIP_DIR

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def contents(directory):
    """Each file name in ``directory`` with its bytes."""
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize(
    "script, data",
    [("make_fixtures.py", FIXTURES_DIR), ("make_roundtrip_corpus.py", ROUNDTRIP_DIR)],
)
def test_script_regenerates_its_data(tmp_path, script, data):
    out = tmp_path / "out"
    subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), str(out)],
        check=True, capture_output=True, timeout=120,
    )
    assert contents(out) == contents(data)
