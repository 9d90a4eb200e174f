"""Deterministic instance generation from a seed.

Every operation is one CLI invocation, given as the arguments that follow
``python -m schurhopf.cli``. The candidates, with their pinned exit codes
and stdout digests, live in ``pool.json`` (built by ``make_pool.py``).

A seed picks one candidate from each cost stratum. The candidates are
sorted by their cost at the commit the pool was built on; stratum i is the
STRATUM_WIDTH candidates nearest the (i + 1/2)/k quantile, for k draws.
Every seed therefore draws the same mix of cheap and expensive calls, and
its p50 and p75 come from narrow cost bands, while the instances change
with the seed. The landmarks always run, and so does the candidate with
the largest peak RSS when it outweighs them, so that peak_rss_mb measures
the same call on every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

POOL_PATH = Path(__file__).with_name("pool.json")

WORKLOADS = ("sweep", "verify-cold", "trace")
DRAWS = {"verify-cold": 40, "trace": 9}
STRATUM_WIDTH = 3


@dataclass(frozen=True)
class Op:
    args: tuple[str, ...]      # arguments after `python -m schurhopf.cli`
    expect_exit: int | None    # pinned exit code, None when not pinned
    sha256: str | None         # pinned stdout digest, None when not pinned
    instances: int = 1         # instances the operation verifies
    cost_s: float = 0.0        # wall time when the pool was built

    @staticmethod
    def from_entry(entry: dict) -> "Op":
        return Op(tuple(entry["args"]), entry.get("exit"), entry.get("sha256"),
                  entry.get("instances", 1), entry.get("cost_s", 0.0))


def load_pool(path: Path = POOL_PATH) -> dict:
    return json.loads(path.read_text())


def strata(entries: list[dict], k: int, width: int = STRATUM_WIDTH) -> list[list[dict]]:
    """k disjoint strata of `width` entries, centred in k equal slices of the ranking."""
    ranked = sorted(entries, key=lambda e: (e["cost_s"], e["args"]))
    n = len(ranked)
    if n < k * width:
        raise ValueError(f"{n} candidates cannot fill {k} strata of {width}")
    offset = (n // k - width) // 2
    return [ranked[i * n // k + offset:][:width] for i in range(k)]


def generate(workload: str, seed: int, pool: dict) -> list[Op]:
    """The operations of one pass of a workload, the same for the same seed."""
    if workload == "sweep":
        # the sweep is one fixed enumeration; the seed has nothing to vary
        return [Op.from_entry(pool["sweep"])]
    fixed = pool["landmarks"][workload]
    candidates = pool[workload]
    heaviest = max(candidates, key=lambda e: (e["maxrss_mb"], e["args"]))
    if heaviest["maxrss_mb"] > max(e["maxrss_mb"] for e in fixed):
        candidates = [e for e in candidates if e is not heaviest]
        fixed = [heaviest, *fixed]
    rng = random.Random(f"{workload}:{seed}")
    picked = [rng.choice(stratum) for stratum in strata(candidates, DRAWS[workload])]
    picked += fixed
    rng.shuffle(picked)
    return [Op.from_entry(entry) for entry in picked]
