"""Every function that perfbench/spans.py traces by name exists in the library.

The benchmark's traced run wraps each (module, attribute path) of the
FUNCTIONS tuple, so renaming or deleting one of them breaks that run.  The
tuple is read with ast, without importing perfbench.  The traced run itself
(perfbench/traced_cli.py) must print what the plain CLI prints.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

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


ROOT = SPANS.parents[1]


def _run(argv, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize(
    "args",
    [
        ("search", "--max-size", "7", "--json"),
        ("search", "--max-size", "7", "--beta", "2,1", "--beta", "1", "--json"),
        ("verify", "--beta", "2,1", "--gamma", "4,4,2,2/2,1", "--trace", "--json"),
        ("verify", "--beta", "2,1", "--gamma", "8,7,2/3,1", "--json"),
    ],
    ids=["search-7", "search-7-two-betas", "landmark-trace", "counterexample"],
)
def test_traced_run_matches_plain_run(args, tmp_path):
    # the traced run rebinds the FUNCTIONS by name and reads args[0].cells of
    # some of them, so a call that does not fit shows up only there
    plain = _run(["-m", "schurhopf.cli", *args], tmp_path)
    traced_cli = SPANS.parent / "traced_cli.py"
    traced = _run([str(traced_cli), str(tmp_path / "spans.json"), "--", *args], tmp_path)
    assert "Traceback" not in plain.stderr + traced.stderr, traced.stderr
    assert traced.returncode == plain.returncode
    assert traced.stdout == plain.stdout
    assert plain.stdout
