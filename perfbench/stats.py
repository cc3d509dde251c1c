"""Sample statistics, the process's peak memory and the environment fingerprint."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import re
import resource
import subprocess
import sys
from pathlib import Path

#: percentiles a latency tail may be reported at, lowest first
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: samples that must lie beyond a percentile before it may be reported
MIN_BEYOND = 10


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``p``% of samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def n_beyond(n_samples: int, p: float) -> int:
    """How many samples rank after the nearest-rank ``p``-th percentile."""
    return n_samples - max(1, math.ceil(p / 100.0 * n_samples))


def supported_percentile(n_samples: int) -> float | None:
    """The highest candidate percentile with at least ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median is unsupported (fewer than 20 samples).
    """
    supported = [p for p in TAIL_PERCENTILES if n_beyond(n_samples, p) >= MIN_BEYOND]
    return max(supported) if supported else None


def median(samples) -> float:
    """The median (mean of the middle pair for an even count)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("median of an empty sample")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS (``VmHWM``) count for this process.

    Lets the benchmark report the program's peak rather than the peak of
    its own input generation.  A kernel that refuses the reset leaves the
    lifetime peak in place, which only over-reports.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident set size of this process since the last reset, in MiB."""
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        status = ""
    match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
    if match:
        return int(match.group(1)) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the machine so far, from ``/proc/stat``.

    Steal is time the hypervisor ran something else while this machine's
    virtual CPUs had work; a run with a high steal share measured a busy
    host, not the program.
    """
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    except OSError:
        return 0, 0
    ticks = [int(value) for value in fields]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def _cpu_model() -> str:
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        return platform.processor() or "unknown"
    match = re.search(r"^model name\s*:\s*(.+)$", cpuinfo, re.MULTILINE)
    return match.group(1).strip() if match else (platform.processor() or "unknown")


def _source_digest(root: Path) -> str:
    """SHA-256 over the package sources, so results name the code they measured."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment(root: Path) -> dict:
    """Versions, cores, CPU and code identity to print beside every result."""
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": usable,
        "cpu": _cpu_model(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }
