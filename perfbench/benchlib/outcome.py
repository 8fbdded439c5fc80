"""What one workload run hands back to ``run.py``."""

from __future__ import annotations

import dataclasses
from typing import Any

from benchlib.spans import Span

__all__ = ["Outcome", "units_for"]

@dataclasses.dataclass
class Outcome:
    """Metrics, sample counts and check results of one workload run."""

    e2e: dict[str, float] = dataclasses.field(default_factory=dict)
    layer: dict[str, float] = dataclasses.field(default_factory=dict)
    samples: dict[str, int] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    detail: dict[str, Any] = dataclasses.field(default_factory=dict)
    spans: list[Span] = dataclasses.field(default_factory=list)


def units_for(seconds: float, unit_seconds: float) -> int:
    """How many units of work a run of ``seconds`` does (at least one).

    ``unit_seconds`` is what one unit takes on the reference host (2 CPUs),
    so a run there measures for about ``seconds``; the same ``seconds``
    gives the same work on every commit and host, which keeps the set of
    samples and the memory footprint comparable between runs.
    """
    return max(1, round(seconds / unit_seconds))
