"""Launcher: spawns the benchmark's children and measures each one.

    python3 -S perfbench/launch.py

reads one JSON request per line on stdin, ``{"argv": [...], "stdout":
path, "stderr": path, "timeout_s": seconds}``, runs the command with its
output sent to the two files, and answers with one JSON line: the exit
code (null when killed by a signal), the wall time from just before the
spawn to the child's exit, the child's own peak RSS from ``wait4``, and
whether the timeout killed it. It ends at end of input.

Linux charges a process with the peak RSS of the address space it
replaced at exec, so children are spawned from this small process, whose
peak stays low, rather than from the benchmark, whose peak grows as it
parses multi-megabyte reports. One launcher serves a whole run, so its
start-up is paid once.
"""

import json
import os
import signal
import sys
import threading
import time


def measure(argv, out_path, err_path, timeout_s):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    lock = threading.Lock()
    state = {"exited": False, "timed_out": False}

    def kill():
        with lock:  # never signal a pid that has already been reaped
            if not state["exited"]:
                state["timed_out"] = True
                os.kill(pid, signal.SIGKILL)

    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    timer = threading.Timer(timeout_s, kill)
    timer.start()
    try:
        # wait without reaping, so the pid stays ours until the timer is off
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            state["exited"] = True
    except BaseException:
        kill()  # interrupted: never leave the child running
        raise
    finally:
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    return {
        "exit_code": code if code >= 0 else None,
        "wall_s": wall,
        "maxrss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "timed_out": state["timed_out"],
    }


if __name__ == "__main__":
    for line in sys.stdin:
        request = json.loads(line)
        report = measure(request["argv"], request["stdout"], request["stderr"],
                         request["timeout_s"])
        print(json.dumps(report), flush=True)
