"""The library imports nothing outside the standard library and itself."""

import ast
import pathlib
import sys

import pytest

import schurhopf

SOURCES = sorted(pathlib.Path(schurhopf.__file__).parent.glob("*.py"))


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
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = {
        root
        for root in _imported_roots(tree)
        if root != "schurhopf" and root not in sys.stdlib_module_names
    }
    assert not foreign, f"{path.name} imports {sorted(foreign)}"
