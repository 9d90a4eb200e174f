"""The library imports nothing outside the standard library and itself,
uses every name it imports outside `__init__`, parses under the oldest
Python that pyproject.toml admits, and keeps a CLI call's cold start
free of the heavy standard modules it does not need."""

import ast
import os
import pathlib
import re
import subprocess
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


def _module_private_names(tree):
    """(name, defining statement) for each module-level _name, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _referenced_names(nodes):
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_private_name_is_referenced(path):
    # a private helper that a deletion left behind is referenced nowhere else
    tree = ast.parse(path.read_text(), filename=str(path))
    others = set(
        _referenced_names(ast.parse(p.read_text(), filename=str(p)) for p in SOURCES if p != path)
    )
    unreferenced = [
        name
        for name, statement in _module_private_names(tree)
        if name not in others
        and name not in _referenced_names(s for s in tree.body if s is not statement)
    ]
    assert not unreferenced, f"{path.name} defines {unreferenced} and never refers to them"


def _called_names(tree):
    """The name of each call: f for f(...) and attr for x.attr(...)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id
            elif isinstance(func, ast.Attribute):
                yield func.attr


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "wow.py"], ids=lambda p: p.name
)
def test_only_wow_builds_structures(path):
    # a structure is valid when detect_wow finds it; WowStructure checks nothing,
    # so no other module may build one (wow.find_structure is the checked way in)
    tree = ast.parse(path.read_text(), filename=str(path))
    assert "WowStructure" not in set(_called_names(tree)), f"{path.name} builds a WowStructure"


# dataclasses pulls in inspect (and ast, dis, tokenize), fractions pulls in
# decimal; a CLI call needs none of them, a proof trace included
HEAVY = ("dataclasses", "inspect", "fractions", "decimal")


def _heavy_loaded_by(code: str) -> list[str]:
    """HEAVY modules that code loads in a fresh interpreter, beyond its start-up.

    The pytest process has long since imported everything, so only a new
    process can tell.  The probe reports on stderr, as code may write stdout.
    """
    src = str(pathlib.Path(schurhopf.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys\n"
        "start = set(sys.modules)\n"
        f"{code}\n"
        f"sys.stderr.write(' '.join(m for m in {HEAVY!r} if m in set(sys.modules) - start))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.split()


def test_cli_import_loads_no_heavy_module():
    assert _heavy_loaded_by("import schurhopf.cli") == []


def test_verify_json_loads_no_fractions():
    code = (
        "from schurhopf import cli\n"
        "assert cli.main(['verify', '--beta', '2,1', '--gamma', '4,4,2,2/2,1', '--json']) == 0"
    )
    assert _heavy_loaded_by(code) == []


def test_probe_sees_fractions_in_a_proof_trace():
    # a traced verify stays in integers, yet the probe sees fractions when a
    # library caller asks for a coefficient vector, which returns Fractions
    trace = (
        "from schurhopf import cli\n"
        "argv = ['verify', '--beta', '2,1', '--gamma', '4,4,2,2/2,1', '--trace', '--json']\n"
        "assert cli.main(argv) == 0"
    )
    assert _heavy_loaded_by(trace) == []
    vector = (
        "from schurhopf.shapes import SkewShape\n"
        "from schurhopf.verifier import coefficient_vector, ribbon_basis\n"
        "coefficient_vector(SkewShape((2, 2)), ribbon_basis(4))"
    )
    assert "fractions" in _heavy_loaded_by(vector)
