"""Run a child process to its end, for the timings that include one."""

from __future__ import annotations

import subprocess
import threading


def run_child(argv: list[str], timeout: float) -> tuple[int, str]:
    """Run ``argv`` with stdout discarded; return (exit code, stderr text).

    ``subprocess.run(..., timeout=...)`` waits for the exit by polling in
    steps of up to 50 ms, and those steps would show in every time
    measured around it.  Here a timer kills a child that outlives
    ``timeout`` and the wait blocks until the exit itself.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, err = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    return proc.returncode, err
