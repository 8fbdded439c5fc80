"""Percentiles, peak memory and host description for the benchmark report."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys

__all__ = ["host_info", "peak_rss_mb", "pct", "tail_after_parallel"]


def pct(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(q)) - 1]


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def host_info() -> dict[str, object]:
    """What the numbers were measured on."""
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "cpu": cpu,
        "platform": platform.platform(),
    }


def tail_after_parallel(intervals: list[tuple[float, float]], end: float, width: int) -> float:
    """Seconds from the last moment ``width`` or more intervals overlapped
    until ``end``; the whole span if they never did."""
    events = sorted([(a, 1) for a, _ in intervals] + [(b, -1) for _, b in intervals])
    running = 0
    last_drop = min((a for a, _ in intervals), default=end)
    for t, step in events:
        before = running
        running += step
        if before >= width > running:
            last_drop = t
    return end - last_drop
