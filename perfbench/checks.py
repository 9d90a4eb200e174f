"""Correctness checks and the failure classifier for one operation.

An operation fails when it ends in a traceback, an unexpected exit code,
a timeout or a signal, or when its output breaks a check below. A
traceback that exits 1 is a failure, never a "differ" verdict.
"""

from __future__ import annotations

import hashlib
import json

from child import ChildResult
from instances import Op

ALLOWED_EXITS = {"search": {0}, "verify": {0, 1}}


def classify(op: Op, result: ChildResult) -> str | None:
    """Return why the operation failed, or None when it passed every check."""
    if result.timed_out:
        return "timeout"
    if result.exit_code is None:
        return "killed by a signal"
    if b"Traceback (most recent call last)" in result.stderr:
        return "traceback"
    if result.exit_code not in ALLOWED_EXITS[op.args[0]]:
        return f"unexpected exit code {result.exit_code}"
    if op.expect_exit is not None and result.exit_code != op.expect_exit:
        return f"verdict: exit {result.exit_code}, expected {op.expect_exit}"
    try:
        payload = json.loads(result.stdout)
    except ValueError:
        return "stdout is not JSON"
    try:
        if op.args[0] == "search":
            reason = _check_search(op, payload)
        else:
            reason = _check_verify(result.exit_code, payload)
    except (KeyError, TypeError, AttributeError):
        return "stdout lacks a field the checks need"
    if reason is None and op.sha256 is not None:
        if hashlib.sha256(result.stdout).hexdigest() != op.sha256:
            reason = "stdout digest differs from the pinned one"
    return reason


def _check_search(op: Op, payload) -> str | None:
    rows = payload["instances"]
    if len(rows) != op.instances:
        return f"search reported {len(rows)} instances, expected {op.instances}"
    if any(row["hypothesesHold"] and not row["equal"] for row in rows):
        return "an instance satisfying the hypotheses is not equal"
    return None


def _check_verify(exit_code: int, payload) -> str | None:
    if (exit_code == 0) != payload["equal"]:
        return "exit code disagrees with the JSON equal field"
    if payload["mode"] == "theorem" and not payload["equal"]:
        return "theorem-mode instance is not equal"
    trace = payload.get("trace")
    if trace is not None:
        one_key = trace["oneKeyLeft"] and trace["oneKeyRight"]
        columns = all(trace["columnEqual"].values())
        if not (one_key and columns and trace["balance"]):
            return "proof trace check failed (oneKey, columns or balance)"
    return None
