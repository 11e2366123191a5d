import glob
import importlib.util
import json
import os
import sys

import pytest

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
FIXTURES_DIR = os.path.join(DATA_DIR, "fixtures")
ROUNDTRIP_DIR = os.path.join(DATA_DIR, "roundtrip")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: the seed of the benchmark's workloads that the tests read
WORKLOAD_SEED = 3


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES_DIR


@pytest.fixture(scope="session")
def roundtrip_dir():
    return ROUNDTRIP_DIR


@pytest.fixture(scope="session")
def manifest():
    with open(os.path.join(FIXTURES_DIR, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def fixture_paths(manifest):
    return {
        name: os.path.join(FIXTURES_DIR, name) for name in sorted(manifest)
    }


def read_text(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="session")
def roundtrip_paths():
    return sorted(glob.glob(os.path.join(ROUNDTRIP_DIR, "*.Dockerfile"))) + sorted(
        glob.glob(os.path.join(FIXTURES_DIR, "*.Dockerfile"))
    )


@pytest.fixture(scope="session")
def workload_texts():
    """The text of every file of the benchmark's three generated workloads
    (``corpus``, ``long_runs``, ``large_files``) at ``WORKLOAD_SEED``.
    ``perfbench/gen.py`` is loaded from its file, and only read."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", os.path.join(ROOT, "perfbench", "gen.py")
    )
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # its dataclasses look their module up
    spec.loader.exec_module(gen)
    return [case.text for workload in gen.WORKLOADS
            for case in gen.generate(workload, WORKLOAD_SEED, ROOT)]
