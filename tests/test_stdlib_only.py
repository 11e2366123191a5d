"""The runtime needs nothing outside the standard library, and its
syntax is that of the oldest Python that ``pyproject.toml`` declares."""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "slimdock").glob("*.py"))


def absolute_imports(path):
    """The top-level module of each absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib(path):
    allowed = sys.stdlib_module_names | {"slimdock"}
    assert sorted(set(absolute_imports(path)) - allowed) == []


def declared_floor():
    """The (major, minor) of ``requires-python = ">=X.Y"``."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_syntax_is_that_of_the_declared_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=declared_floor())
