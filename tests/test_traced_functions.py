"""Every function that perfbench/spans.py traces by name exists in the library.

The benchmark's traced run wraps each (module, attribute path) of the
FUNCTIONS tuple, so renaming or deleting one of them breaks that run.  The
tuple is read with ast, without importing perfbench.
"""

import ast
import importlib
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_functions():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "FUNCTIONS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no FUNCTIONS tuple in {SPANS}")


FUNCTIONS = _traced_functions()


def test_functions_found():
    assert len(FUNCTIONS) >= 1


@pytest.mark.parametrize("module, path", FUNCTIONS, ids=[f"{m}.{p}" for m, p in FUNCTIONS])
def test_traced_function_resolves(module, path):
    owner = importlib.import_module(f"schurhopf.{module}")
    for name in path.split("."):
        owner = getattr(owner, name)
    assert callable(owner)
