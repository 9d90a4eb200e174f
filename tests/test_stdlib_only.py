"""The library imports nothing outside the standard library and itself,
uses every name it imports outside `__init__`, and parses under the
oldest Python that pyproject.toml admits."""

import ast
import pathlib
import re
import sys

import pytest

import schurhopf

SOURCES = sorted(pathlib.Path(schurhopf.__file__).parent.glob("*.py"))
PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
# the requires-python floor, e.g. ">=3.10" -> (3, 10)
FLOOR = tuple(
    int(x)
    for x in re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', PYPROJECT.read_text()).groups()
)


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            # a relative import (level > 0) stays inside the package
            yield "schurhopf" if node.level else node.module.split(".")[0]


def test_sources_found():
    assert len(SOURCES) >= 7


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_schurhopf(path):
    tree = ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
    foreign = {
        root
        for root in _imported_roots(tree)
        if root != "schurhopf" and root not in sys.stdlib_module_names
    }
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = set(_imported_names(tree)) - used
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"
