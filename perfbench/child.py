"""Run the benchmark's child processes through ``launch.py``.

Each child's stdout and stderr go to files in a work directory, so a
multi-megabyte report cannot block on a full pipe.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

LAUNCHER = Path(__file__).with_name("launch.py")


@dataclass
class ChildResult:
    exit_code: int | None  # None when the child was killed by a signal
    wall_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes
    timed_out: bool


class Launcher:
    """One launcher process; children inherit its environment."""

    def __init__(self, env: dict[str, str], work: Path):
        work.mkdir(parents=True, exist_ok=True)
        self.out_path, self.err_path = work / "child.stdout", work / "child.stderr"
        self.proc = subprocess.Popen([sys.executable, "-S", str(LAUNCHER)], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], timeout_s: float) -> ChildResult:
        """Run argv to its end, killing it after timeout_s, and collect what it did."""
        request = {"argv": argv, "stdout": str(self.out_path), "stderr": str(self.err_path),
                   "timeout_s": timeout_s}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the launcher ended with code {self.proc.wait()}")
        return ChildResult(stdout=self.out_path.read_bytes(), stderr=self.err_path.read_bytes(),
                           **json.loads(line))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def program_env(root: Path) -> dict[str, str]:
    """Environment for a program child: the checkout's own sources first.

    SCHURHOPF_THREADS is removed so that `search` never takes its thread
    pool path by accident.
    """
    env = dict(os.environ)
    env.pop("SCHURHOPF_THREADS", None)
    env["PYTHONPATH"] = str(root / "src")
    return env
