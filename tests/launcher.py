"""Run a command and report its own wall time and peak memory.

    python tests/launcher.py PROGRAM [ARG ...]

PROGRAM is a path. The command inherits this process's environment, working
directory and standard streams. Once it has ended, one last line goes to
standard output: ``{"status": S, "wall_s": W, "peak_mib": P}``, where ``S``
is its exit code (minus the signal number if a signal ended it) and ``P``
its ``ru_maxrss`` as ``os.wait4`` reports it.

Linux carries a process's high-water RSS across ``exec``, also into a child
started by ``vfork``: a command started from pytest (numpy, hypothesis and
every collected test module loaded) reports pytest's peak whenever that is
the larger. This launcher imports only the standard library, so what it
carries into the command is a few MiB, and the peak it prints is the
command's own. :func:`measure` runs a command through it from a test.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def measure(argv, **kwargs) -> tuple[subprocess.CompletedProcess, dict]:
    """Run ``argv`` through this launcher, with ``subprocess.run``'s
    ``kwargs``; the finished launcher (its output captured as text) and the
    command's report."""
    proc = subprocess.run(
        [sys.executable, __file__, *argv], capture_output=True, text=True, **kwargs
    )
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str]) -> None:
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    report = {
        "status": os.waitstatus_to_exitcode(status),
        "wall_s": round(wall, 3),
        "peak_mib": round(usage.ru_maxrss / 1024, 1),
    }
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
