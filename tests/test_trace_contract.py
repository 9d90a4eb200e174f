"""The benchmark's traced-function list must name functions that exist.

perfbench/spans.py lists every (module, attribute path) that the traced
benchmark run wraps. It is loaded here by file path, as the benchmark
does, so that renaming or deleting a traced function fails this test
instead of breaking a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _functions():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FUNCTIONS


@pytest.mark.parametrize("module_name, path", _functions())
def test_traced_function_resolves(module_name, path):
    target = importlib.import_module(f"schurhopf.{module_name}")
    for attr in path.split("."):
        target = getattr(target, attr)
    assert callable(target)
