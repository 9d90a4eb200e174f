"""Run one CLI invocation with a span around every call of the traced functions.

    python perfbench/traced_cli.py SPANS_FILE -- ARGS...

behaves like ``python -m schurhopf.cli ARGS...`` (same stdout, same exit
code) and writes the spans it recorded to SPANS_FILE as JSON when it
ends. The wrappers replace each traced function on its module, on every
``schurhopf`` module that imported it by name, and for methods on their
class, so calls from inside the library are traced as well. Nothing in
the program itself changes.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

from spans import FUNCTIONS, NAMES, REPEAT_KEYED


def install(spans: list, repeats: dict) -> None:
    import schurhopf.cli  # noqa: F401  (imports every library module)
    from schurhopf.shapes import canonicalize_cells

    clock = time.perf_counter_ns
    stack = [-1]
    libs = [m for name, m in sys.modules.items() if name.startswith("schurhopf")]

    def traced(fid: int, fn):
        keyed = NAMES[fid] in REPEAT_KEYED
        seen: set = set()
        # the library consumes its traced generators at once (sorted(...)),
        # so reading them eagerly inside the span keeps their time attributed
        eager = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([fid, clock(), 0, stack[-1]])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = iter(list(result))
                return result
            finally:
                spans[index][2] = clock()
                stack.pop()
                if keyed:
                    key = canonicalize_cells(args[0].cells)
                    if key in seen:
                        repeats[NAMES[fid]] = repeats.get(NAMES[fid], 0) + 1
                    seen.add(key)

        return wrapper

    for fid, (module_name, path) in enumerate(FUNCTIONS):
        module = sys.modules[f"schurhopf.{module_name}"]
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        wrapper = traced(fid, original)
        setattr(owner, attr, wrapper)
        if not owner_name:
            for lib in libs:
                for name, value in list(vars(lib).items()):
                    if value is original:
                        setattr(lib, name, wrapper)


def main() -> int:
    spans_file, sep, *args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_FILE -- ARGS...")
    spans: list = []
    repeats: dict = {}
    install(spans, repeats)
    import schurhopf.cli

    try:
        return schurhopf.cli.main(args)
    finally:
        with open(spans_file, "w") as fh:
            json.dump({"spans": spans, "repeats": repeats}, fh)


if __name__ == "__main__":
    sys.exit(main())
