"""Build ``pool.json``: the candidate operations, their pinned outputs and costs.

Run from the root of a checkout, on a quiet machine:

    python3 perfbench/make_pool.py

It enumerates the gamma candidates with the library itself, runs every
candidate as a cold CLI process, and records its exit code, the SHA-256 of
its stdout (which must be the same on every run), its best wall time over
three runs (``cost_s``) and its peak RSS (``maxrss_mb``). A candidate
whose first run goes past its workload's cost cap is killed, left out and
listed under ``excluded``: some 9-cell gamma take 15-60 s per call, which
would not fit a run's time. The benchmark uses the digests to check that
stdout stays byte-stable, and the costs and RSS only to choose its draws.
Rebuild the pool only when the program's output is meant to change; a
rebuild pins the new output.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from checks import classify
from child import Launcher, program_env
from instances import POOL_PATH, Op

ROOT = Path.cwd()
POOL_SEED = 0
VERIFY_POOL = 200
MAX_GAMMA = 9
# rectangle-minus-corner betas, the theorem's hypothesis, weighted three to
# one against betas outside it
BETAS = {"2,1": 3, "3,2": 3, "2,2,1": 3, "3,1": 1, "2,2": 1}
COROLLARY_SHARE = 0.25
POSITIVE = ("verify", "--beta", "2,1", "--gamma", "4,4,2,2/2,1", "--json")
NEGATIVE = ("verify", "--beta", "2,1", "--gamma", "8,7,2/3,1", "--json")
SWEEP = ("search", "--max-size", "10", "--json")
SWEEP_INSTANCES = 1722
COST_CAP_S = {"verify-cold": 1.5, "trace": 3.0}
COST_RUNS = 3  # a single cold run is too noisy to rank candidates by


def gamma_candidates():
    """(gamma, key size, loose ends) for connected gamma admitting a structure."""
    sys.path.insert(0, str(ROOT / "src"))
    from schurhopf import wow
    from schurhopf.shapes import connected_shapes, format_shape, shape_sort_key

    out = []
    for n in range(1, MAX_GAMMA + 1):
        for gamma in sorted(connected_shapes(n), key=shape_sort_key):
            structures = wow.detect_wow(gamma)
            if structures:  # verify picks structures[0] by default
                first = structures[0]
                out.append((format_shape(gamma), wow.key_ribbons(first).size,
                            wow.has_loose_end_ribbons(first).found))
    return out


def measure(launcher: Launcher, args, instances=1, cap_s: float | None = None, runs: int = 1) -> dict | None:
    """Run a candidate `runs` times; its cost is the best run.

    None when the first run went past cap_s. Every run must print the same
    bytes.
    """
    argv = [sys.executable, "-m", "schurhopf.cli", *args]
    best, digest = None, None
    for _ in range(runs):
        result = launcher.run(argv, cap_s or 170.0)
        if result.timed_out and cap_s is not None:
            print(f"   over {cap_s}s, left out  {' '.join(args)}", flush=True)
            return None
        reason = classify(Op(tuple(args), None, digest, instances), result)
        if reason is not None:
            raise SystemExit(f"candidate {' '.join(args)} fails: {reason}")
        digest = hashlib.sha256(result.stdout).hexdigest()
        if best is None or result.wall_s < best.wall_s:
            best = result
    print(f"{best.wall_s:7.3f}s exit {best.exit_code}  {' '.join(args)}", flush=True)
    entry = {
        "args": list(args),
        "exit": best.exit_code,
        "sha256": digest,
        "cost_s": round(best.wall_s, 3),
        "maxrss_mb": round(best.maxrss_mb, 1),
    }
    if instances != 1:
        entry["instances"] = instances
    return entry


def main() -> None:
    with Launcher(program_env(ROOT), ROOT / ".perfbench_work") as launcher:
        build(launcher)


def build(launcher: Launcher) -> None:
    rng = random.Random(POOL_SEED)
    gammas = gamma_candidates()
    landmark_gamma = POSITIVE[4]

    verify_args = set()
    while len(verify_args) < VERIFY_POOL:
        gamma = rng.choice(gammas)[0]
        beta = rng.choices(list(BETAS), weights=list(BETAS.values()))[0]
        extra = ("--corollary",) if rng.random() < COROLLARY_SHARE else ()
        verify_args.add(("verify", "--beta", beta, "--gamma", gamma, "--json") + extra)

    # the proof trace at key size 6 or more takes 11-57 s per call
    trace_gammas = [g for g, key, loose in gammas
                    if key in (4, 5) and not loose and g != landmark_gamma]
    trace_args = [("verify", "--beta", "2,1", "--gamma", g, "--trace", "--json")
                  for g in trace_gammas]

    pool = {
        "sweep": measure(launcher, SWEEP, SWEEP_INSTANCES),
        "landmarks": {
            "verify-cold": [measure(launcher, POSITIVE), measure(launcher, NEGATIVE)],
            "trace": [measure(launcher, POSITIVE + ("--trace",))],
        },
        "excluded": [],
    }
    for workload, candidates in (("verify-cold", sorted(verify_args)), ("trace", trace_args)):
        pool[workload] = []
        for args in candidates:
            entry = measure(launcher, args, cap_s=COST_CAP_S[workload], runs=COST_RUNS)
            if entry is None:
                pool["excluded"].append(list(args))
            else:
                pool[workload].append(entry)
    expected = {POSITIVE: 0, NEGATIVE: 1, POSITIVE + ("--trace",): 0}
    for entries in pool["landmarks"].values():
        for entry in entries:
            if entry["exit"] != expected[tuple(entry["args"])]:
                raise SystemExit(f"landmark {entry['args']} exits {entry['exit']}")
    POOL_PATH.write_text(json.dumps(pool, indent=1) + "\n")


if __name__ == "__main__":
    main()
