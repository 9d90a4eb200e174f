"""Traced functions, and the span arithmetic that turns spans into layer metrics.

A span is ``(function index, start_ns, end_ns, parent span index)`` with
parent -1 for a root. Spans are listed in start order, so a parent always
comes before its children. A span's self time is its duration minus the
part of its interval that its child spans cover.
"""

from __future__ import annotations

# (module, attribute path) of every function the traced run wraps
FUNCTIONS = (
    ("shapes", "skew_from_cells"),
    ("shapes", "components_of_cells"),
    ("shapes", "connected_shapes"),
    ("schur", "schur_equal"),
    ("schur", "schur_expand"),
    ("schur", "h_expansion"),
    ("hopf", "coproduct_slice"),
    ("hopf", "class_of_cells"),
    ("wow", "detect_wow"),
    ("wow", "key_ribbons"),
    ("wow", "has_loose_end_ribbons"),
    ("wow", "compose"),
    ("verifier", "verify_main_theorem"),
    ("verifier", "verify_corollary"),
    ("verifier", "proof_trace"),
    ("verifier", "ProofTrace.to_json"),
    ("verifier", "Report.to_json"),
    ("cli", "main"),
)
NAMES = tuple(f"{module}.{attr}" for module, attr in FUNCTIONS)
MODULES = tuple(dict.fromkeys(module for module, _ in FUNCTIONS))
# functions whose calls are keyed by canonical cell set, to count repeats
REPEAT_KEYED = ("schur.schur_expand", "schur.h_expansion")


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def span_times(spans) -> tuple[list[int], list[bool]]:
    """Per span: self time in ns, and whether no ancestor has the same function."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    chains: list[frozenset] = []
    interned: dict[tuple[frozenset, int], frozenset] = {}
    outermost = []
    for fid, start, end, parent in spans:
        above = chains[parent] if parent >= 0 else frozenset()
        if parent >= 0:
            children[parent].append((start, end))
        outermost.append(fid not in above)
        key = (above, fid)
        chain = interned.get(key)
        if chain is None:
            chain = interned[key] = above | {fid}
        chains.append(chain)
    self_ns = [end - start - _covered(children[i], start, end)
               for i, (_, start, end, _) in enumerate(spans)]
    return self_ns, outermost


def layer_metrics(ops: list[dict]) -> dict[str, float]:
    """Aggregate the traced operations of one pass into per-layer numbers.

    Each op is ``{"spans": [...], "repeats": {name: n}, "wall_s": float,
    "instances": int}``; ``wall_s`` is the op's wall time measured by the
    parent, so time outside every root span is reported as unattributed.
    """
    calls = [0] * len(NAMES)
    self_ns = [0] * len(NAMES)
    incl_ns = [0] * len(NAMES)
    repeats = dict.fromkeys(REPEAT_KEYED, 0)
    unattributed = 0.0
    for op in ops:
        spans = op["spans"]
        own, outermost = span_times(spans)
        root_ns = 0
        for (fid, start, end, parent), s, outer in zip(spans, own, outermost):
            calls[fid] += 1
            self_ns[fid] += s
            if outer:
                incl_ns[fid] += end - start
            if parent < 0:
                root_ns += end - start
        for name in REPEAT_KEYED:
            repeats[name] += op["repeats"].get(name, 0)
        unattributed += op["wall_s"] - root_ns / 1e9
    out: dict[str, float] = {}
    for fid, name in enumerate(NAMES):
        out[f"{name}.calls"] = calls[fid]
        out[f"{name}.self_s"] = self_ns[fid] / 1e9
        out[f"{name}.incl_s"] = incl_ns[fid] / 1e9
    for module in MODULES:
        out[f"{module}.self_s"] = sum(
            self_ns[fid] for fid, (m, _) in enumerate(FUNCTIONS) if m == module) / 1e9
    for name in REPEAT_KEYED:
        n = calls[NAMES.index(name)]
        out[f"{name}.repeat_ratio"] = repeats[name] / n if n else 0.0
    instances = sum(op["instances"] for op in ops)
    key_calls = calls[NAMES.index("wow.key_ribbons")]
    out["wow.key_ribbons.per_instance"] = key_calls / instances if instances else 0.0
    out["unattributed_s"] = unattributed
    return out
