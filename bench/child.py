"""Run a child process under a watchdog and wait for it in one blocking call.

``subprocess.run(..., timeout=...)`` waits by polling with sleeps of up to
50 ms, which would round every measured command time up to that grain.  Here
a timer kills the child at the time limit and the wait itself blocks.
"""

from __future__ import annotations

import contextlib
import resource
import subprocess
import threading
import time


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and by every child process it
    has waited for.  Unlike wall time, this leaves out the time the host gives
    to other guests, which on a shared virtual machine is most of the noise."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@contextlib.contextmanager
def watched(cmd: list[str], env: dict, limit_s: float, cwd: str | None = None,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Start ``cmd`` and yield its Popen.  A timer kills it after ``limit_s``;
    leaving the block kills it if it still runs and waits until it has ended."""
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=stdout, stderr=stderr, text=True)
    watchdog = threading.Timer(limit_s, proc.kill)
    watchdog.start()
    try:
        yield proc
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        if proc.stdout:
            proc.stdout.close()


def run_child(cmd: list[str], env: dict, limit_s: float, cwd: str | None = None,
              capture: bool = False) -> tuple[int, str]:
    """Return the exit code and, with ``capture``, the standard output."""
    out = subprocess.PIPE if capture else subprocess.DEVNULL
    with watched(cmd, env, limit_s, cwd, stdout=out) as proc:
        text = proc.stdout.read() if capture else ""
        return proc.wait(), text
