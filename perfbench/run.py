"""The schurhopf benchmark: cold CLI processes, one at a time, in a closed loop.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout. Each operation is one
``python -m schurhopf.cli ...`` child started cold with the checkout's
``src`` on ``PYTHONPATH``; the next starts only when the last has ended.
The last line of stdout is the result JSON. With ``--trace 0`` it holds the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of one traced
pass, made through ``traced_cli.py``. See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import classify
from child import ChildResult, Launcher, program_env
from instances import WORKLOADS, Op, generate, load_pool
from spans import layer_metrics

SETUP_SAMPLES = 9
MIN_PASSES = 2
DEADLINE_S = 170.0  # every run ends well inside the 180 s limit
HERE = Path(__file__).resolve().parent


def git_sha(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "schurhopf").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs operations one at a time and keeps what each one did."""

    def __init__(self, launcher: Launcher, work: Path, start: float):
        self.launcher = launcher
        self.work = work
        self.deadline = start + DEADLINE_S
        self.records: list[dict] = []

    def timeout(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 1.0:
            raise TimeoutError("the run reached its deadline")
        return left

    def import_once(self) -> float:
        argv = [sys.executable, "-c", "import schurhopf.cli"]
        result = self.launcher.run(argv, self.timeout())
        if result.exit_code != 0:
            raise RuntimeError("import schurhopf.cli failed:\n" + result.stderr.decode())
        return result.wall_s

    def run(self, op: Op, traced: bool) -> tuple[ChildResult, dict | None]:
        spans_file = self.work / "spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_file), "--", *op.args]
        else:
            argv = [sys.executable, "-m", "schurhopf.cli", *op.args]
        result = self.launcher.run(argv, self.timeout())
        failure = classify(op, result)
        trace = None
        if traced and failure is None:
            trace = json.loads(spans_file.read_text())
            trace.update(wall_s=result.wall_s, instances=op.instances)
        self.records.append({
            "args": list(op.args), "traced": traced, "wall_s": result.wall_s,
            "exit": result.exit_code, "maxrss_mb": result.maxrss_mb,
            "stdout_bytes": len(result.stdout), "failure": failure,
        })
        if failure is not None:
            print(f"FAILED ({failure}): {' '.join(op.args)}", file=sys.stderr)
        return result, trace


def _beta_cdf(x: float, a: float, b: float, steps: int = 512) -> float:
    """Regularized incomplete beta I_x(a, b) for a >= 1, by Simpson's rule."""
    if x <= 0.0 or x >= 1.0:
        return min(max(x, 0.0), 1.0)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        if t == 0.0:
            return math.exp(log_norm) if a == 1 else 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    h = x / steps
    total = density(0.0) + density(x)
    total += sum((4 if i % 2 else 2) * density(i * h) for i in range(1, steps))
    return total * h / 3


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile, for p >= 1/2.

    It is a beta-weighted mean of all order statistics, so unlike a single
    interpolated order statistic it does not jump when calls near the
    quantile swap places from one run to the next.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def end_to_end(runner: Runner, ops: list[Op], seconds: float) -> dict:
    """Run whole passes over ops, at least MIN_PASSES; an op's latency is its best.

    On a shared machine CPU speed drifts by tens of percent within
    seconds, so the best of several cold runs of a call is far steadier
    than any single run. The pass count follows from --seconds and the
    ops' cost when the pool was built, so it is the same on every run.
    """
    passes = max(MIN_PASSES, round(seconds / sum(op.cost_s for op in ops)))
    total = passes * len(ops)
    setup_at = {i * total // SETUP_SAMPLES for i in range(SETUP_SAMPLES)}
    setup, best, peak = [], [float("inf")] * len(ops), 0.0
    begin = time.perf_counter()
    for n in range(total):
        if n and n % len(ops) == 0:
            now = time.perf_counter()
            if now + (now - begin) * len(ops) / n > runner.deadline:
                break  # another pass would not end before the deadline
        if n in setup_at:  # spread over the run, like the operations
            setup.append(runner.import_once())
        i = n % len(ops)
        result, _ = runner.run(ops[i], traced=False)
        best[i] = min(best[i], result.wall_s)
        peak = max(peak, result.maxrss_mb)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (sum(op.instances for op in ops) / sum(best), "1/s"),
        "p50_s": (quantile(best, 0.50), "s"),
        "p75_s": (quantile(best, 0.75), "s"),
        "peak_rss_mb": (peak, "MB"),
    }


def per_layer(runner: Runner, ops: list[Op]) -> dict:
    plain = [runner.run(op, traced=False) for op in ops]
    traced = [runner.run(op, traced=True) for op in ops]
    metrics = layer_metrics([t for _, t in traced if t is not None])
    attempted = len(runner.records)
    failed = sum(r["failure"] is not None for r in runner.records)
    metrics.update({
        "cli.stdout_bytes": sum(len(r.stdout) for r, _ in plain),
        "trace_overhead_ratio": sum(r.wall_s for r, _ in traced) / sum(r.wall_s for r, _ in plain),
        "failed_ratio": failed / attempted,
    })
    units = {"calls": "count", "self_s": "s", "incl_s": "s", "repeat_ratio": "ratio",
             "per_instance": "calls/instance", "stdout_bytes": "bytes",
             "unattributed_s": "s", "trace_overhead_ratio": "ratio", "failed_ratio": "ratio"}
    return {name: (value, units[name.rpartition(".")[2]]) for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "schurhopf" / "cli.py").is_file():
        print("error: run from the root of a schurhopf checkout (no src/schurhopf/cli.py)",
              file=sys.stderr)
        return 2
    ops = generate(args.workload, args.seed, load_pool())
    work = root / ".perfbench_work"
    with Launcher(program_env(root), work) as launcher:
        runner = Runner(launcher, work, start)
        runner.import_once()  # compiles bytecode in a fresh checkout; not timed
        try:
            if args.trace:
                metrics = per_layer(runner, ops)
            else:
                metrics = end_to_end(runner, ops, args.seconds)
        except TimeoutError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    failed = sum(r["failure"] is not None for r in runner.records)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "instances": [list(op.args) for op in ops],
        "git_sha": git_sha(root), "source_sha256": source_digest(root),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "operations": runner.records,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (work / name).write_text(json.dumps(meta, indent=1) + "\n")
    print(json.dumps({key: meta[key] for key in meta if key != "operations"}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runner.records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
