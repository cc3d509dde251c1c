"""Make sure no process the benchmark started outlives its run.

The serving workload starts processes of its own (the spawned input
preparation, the load generator, the daemon's resident pool), and
``multiprocessing`` starts a resource-tracker process on first use that,
before Python 3.13, is left to notice on its own — after this process has
exited — that it is no longer needed.  :func:`end_children` stops every
child still running, the tracker last, and waits for each.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path


def child_pids() -> list[int]:
    """Process ids whose parent is this process (read from ``/proc``)."""
    me, found = os.getpid(), []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we looked
        if int(fields[1]) == me:
            found.append(int(stat.parent.name))
    return sorted(found)


def _reap(pid: int, deadline: float) -> bool:
    """Wait for ``pid`` until ``deadline``, then kill it; True if it had to be killed."""
    try:
        while os.waitpid(pid, os.WNOHANG)[0] != pid:
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return True
            time.sleep(0.01)
    except (ChildProcessError, ProcessLookupError):
        pass  # already reaped elsewhere
    return False


def end_children(grace: float = 10.0) -> list[int]:
    """Stop every child process, the resource tracker last, and wait for each.

    Any child other than the tracker is still running only because
    something leaked it, so it is killed at once.  The tracker is stopped
    the way it expects (its pipe is closed, after which it unlinks any
    shared-memory segment still registered and exits) and killed if it has
    not ended within ``grace`` seconds.  Returns the ids of the non-tracker
    children that had to be killed.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    leaked = [pid for pid in child_pids() if pid != tracker._pid and _reap(pid, 0.0)]
    with tracker._lock:
        if tracker._fd is not None:
            os.close(tracker._fd)
            tracker._fd = None
        if tracker._pid is not None:
            _reap(tracker._pid, time.monotonic() + grace)
            tracker._pid = None
    return leaked
