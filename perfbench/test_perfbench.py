"""Tests of the benchmark's own code; they never start the program.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json

import pytest

from checks import classify
from child import ChildResult
from instances import DRAWS, Op, generate, load_pool, strata
from run import _beta_cdf, quantile
from spans import NAMES, layer_metrics, span_times

POOL = load_pool()


def result(stdout: bytes, exit_code: int = 0, stderr: bytes = b"") -> ChildResult:
    return ChildResult(exit_code=exit_code, wall_s=0.5, maxrss_mb=20.0,
                       stdout=stdout, stderr=stderr, timed_out=False)


def verify_payload(equal: bool, mode: str = "theorem", **extra) -> bytes:
    return json.dumps({"equal": equal, "mode": mode, **extra}, sort_keys=True).encode()


@pytest.mark.parametrize("workload", ["verify-cold", "trace"])
def test_same_seed_same_instances(workload):
    first = generate(workload, 7, POOL)
    assert first == generate(workload, 7, POOL)
    assert first != generate(workload, 8, POOL)
    assert DRAWS[workload] + len(POOL["landmarks"][workload]) <= len(first)
    assert len(set(first)) == len(first)


def test_landmarks_in_every_draw():
    for seed in range(5):
        args = {op.args for op in generate("verify-cold", seed, POOL)}
        assert {tuple(e["args"]) for e in POOL["landmarks"]["verify-cold"]} <= args
        verdicts = {op.expect_exit for op in generate("verify-cold", seed, POOL)
                    if "4,4,2,2/2,1" in op.args or "8,7,2/3,1" in op.args}
        assert verdicts == {0, 1}


def test_strata_are_disjoint_ordered_and_narrow():
    entries = [{"args": [str(i)], "cost_s": float(i % 50)} for i in range(50)]
    cut = strata(entries, 5, width=3)
    assert [len(s) for s in cut] == [3] * 5
    for lower, upper in zip(cut, cut[1:]):
        assert max(e["cost_s"] for e in lower) < min(e["cost_s"] for e in upper)
    assert [e["cost_s"] for e in cut[2]] == [23.0, 24.0, 25.0]  # centre of 20..29
    with pytest.raises(ValueError):
        strata(entries, 20, width=3)


def test_heaviest_call_drawn_when_it_outweighs_the_landmarks():
    for workload in ("verify-cold", "trace"):
        heaviest = max(POOL[workload], key=lambda e: e["maxrss_mb"])
        landmark_rss = max(e["maxrss_mb"] for e in POOL["landmarks"][workload])
        for seed in range(3):
            args = {op.args for op in generate(workload, seed, POOL)}
            if heaviest["maxrss_mb"] > landmark_rss:
                assert tuple(heaviest["args"]) in args


def test_harrell_davis_quantile():
    assert _beta_cdf(0.3, 1, 1) == pytest.approx(0.3)
    assert _beta_cdf(0.5, 3, 3) == pytest.approx(0.5)
    assert _beta_cdf(0.25, 2, 1) == pytest.approx(0.0625)  # x**2
    assert quantile([4.0], 0.75) == 4.0
    assert quantile([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)  # symmetric data
    values = [float(v) for v in range(1, 44)]
    assert quantile(values, 0.5) == pytest.approx(22.0)
    assert 30 < quantile(values, 0.75) < 35
    # moving the middle call past its neighbours moves the median of the
    # data by a whole step, the estimate by much less
    moved = values[:21] + [26.0] + values[22:]
    assert abs(quantile(moved, 0.5) - quantile(values, 0.5)) < 0.5


def test_mutated_stdout_fails_digest_check():
    stdout = verify_payload(True)
    op = Op(("verify", "--json"), 0, hashlib.sha256(stdout).hexdigest())
    assert classify(op, result(stdout)) is None
    mutated = stdout.replace(b'"mode"', b'"mode" ')
    assert classify(op, result(mutated)) == "stdout digest differs from the pinned one"


def test_traceback_exit_1_is_failed_not_differ():
    op = Op(("verify", "--json"), None, None)
    crash = result(b"", 1, b'Traceback (most recent call last):\n  File "x"\nBadBetaError\n')
    assert classify(op, crash) == "traceback"
    differ = result(verify_payload(False, mode="outside theorem"), 1)
    assert classify(op, differ) is None


@pytest.mark.parametrize("stdout, exit_code, reason", [
    (verify_payload(False), 1, "theorem-mode instance is not equal"),
    (verify_payload(True), 1, "exit code disagrees with the JSON equal field"),
    (verify_payload(True, trace={"oneKeyLeft": True, "oneKeyRight": True,
                                 "columnEqual": {"[1]": False}, "balance": True}),
     0, "proof trace check failed (oneKey, columns or balance)"),
    (b"not json", 0, "stdout is not JSON"),
])
def test_verify_checks(stdout, exit_code, reason):
    assert classify(Op(("verify", "--json"), None, None), result(stdout, exit_code)) == reason


def test_search_instance_count_and_theorem():
    op = Op(("search", "--json"), 0, None, instances=2)
    row = {"hypothesesHold": True, "equal": True}
    assert classify(op, result(json.dumps({"instances": [row, row]}).encode())) is None
    assert "instances" in classify(op, result(json.dumps({"instances": [row]}).encode()))
    bad = {"hypothesesHold": True, "equal": False}
    assert classify(op, result(json.dumps({"instances": [row, bad]}).encode())) == \
        "an instance satisfying the hypotheses is not equal"


def test_timeout_and_unexpected_exit_are_failed():
    op = Op(("verify", "--json"), None, None)
    timed_out = ChildResult(None, 9.0, 20.0, b"", b"", True)
    assert classify(op, timed_out) == "timeout"
    assert classify(op, result(b"", 2)) == "unexpected exit code 2"


def test_self_time_on_nested_trace():
    main, compose, h = NAMES.index("cli.main"), NAMES.index("wow.compose"), \
        NAMES.index("schur.h_expansion")
    # main [0,100] > compose [10,40] > h [15,25] > h [17,20] (recursive);
    # main > h [50,80]; time 40-50 and 80-100 is main's own
    spans = [
        [main, 0, 100, -1],
        [compose, 10, 40, 0],
        [h, 15, 25, 1],
        [h, 17, 20, 2],
        [h, 50, 80, 0],
    ]
    own, outermost = span_times(spans)
    assert own == [100 - 30 - 30, 30 - 10, 10 - 3, 3, 30]
    assert outermost == [True, True, True, False, True]

    op = {"spans": spans, "repeats": {"schur.h_expansion": 1},
          "wall_s": 150e-9, "instances": 1}
    m = layer_metrics([op])
    assert m["schur.h_expansion.calls"] == 3
    assert m["schur.h_expansion.self_s"] == pytest.approx(40e-9)
    assert m["schur.h_expansion.incl_s"] == pytest.approx(40e-9)  # 10 + 30, nested 3 not recounted
    assert m["cli.main.self_s"] == pytest.approx(40e-9)
    assert m["wow.self_s"] == pytest.approx(20e-9)
    assert m["schur.h_expansion.repeat_ratio"] == pytest.approx(1 / 3)
    assert m["unattributed_s"] == pytest.approx(50e-9)
    total_self = sum(m[f"{mod}.self_s"] for mod in ("shapes", "schur", "hopf", "wow",
                                                     "verifier", "cli"))
    assert total_self == pytest.approx(100e-9)


def test_overlapping_children_are_not_double_counted():
    spans = [[0, 0, 10, -1], [1, 2, 6, 0], [1, 4, 12, 0]]
    own, _ = span_times(spans)
    assert own[0] == 10 - 8  # children cover 2..10 inside the parent
