"""Deterministic traffic for the ``svc-mixed`` workload.

Unlike ``repro.service.loadtest.build_spec_pool`` plus a draw with
replacement, every *miss* spec here is submitted exactly once, so each miss
really runs a simulation. A fixed share of submissions are *repeats*: they
re-submit a spec that has already completed, so the service answers them
from its result store while the other client's simulations write to it.

A plan is a list of operations: ``("miss", spec)`` or ``("repeat", None)``,
one plan per closed-loop client. A repeat's target is chosen when it is
dispatched, from the specs its client completed by then
(:class:`Dispatcher`); which one is chosen never changes a result.
"""

from __future__ import annotations

import random
from typing import Any

__all__ = [
    "LEAD",
    "POLICIES",
    "REPEAT_EVERY",
    "SPEC_CYCLES",
    "WORKLOADS",
    "Dispatcher",
    "build_plan",
    "is_repeat",
    "spec_key",
    "spec_pool",
]

#: Two-thread mixes keep one simulation small, so the service's control
#: plane and store are a visible share of each job's latency.
WORKLOADS = ("2-ILP", "2-MIX", "2-MEM")
POLICIES = ("icount", "stall", "flush", "dg", "pdg", "dwarn")
#: Simulation shape of every spec (the loadtest's scale).
SPEC_CYCLES = {"warmup_cycles": 200, "measure_cycles": 1200, "trace_length": 6000}
#: The first LEAD operations of a plan are misses, so its one closed-loop
#: client has completed a miss before the first repeat is handed out.
LEAD = 1
#: After the lead, every REPEAT_EVERY-th operation is a repeat: a 1/2
#: store-hit share, so hit latencies rest on as many samples as misses.
REPEAT_EVERY = 2


def spec_pool(n_seeds: int) -> list[dict[str, Any]]:
    """All distinct miss specs: workloads x policies x trace seeds."""
    return [
        {"workload": wl, "policy": pol, "seed": s, **SPEC_CYCLES}
        for s in range(n_seeds)
        for wl in WORKLOADS
        for pol in POLICIES
    ]


def spec_key(spec: dict[str, Any]) -> str:
    """Stable name of a spec for digests and exactly-once accounting."""
    return f"{spec['workload']}/{spec['policy']}/s{spec['seed']}"


def build_plan(seed: int, misses: list[dict[str, Any]]) -> list[tuple[str, dict[str, Any] | None]]:
    """One client's operation sequence; ``seed`` only shuffles the order.

    ``misses`` (a subset of :func:`spec_pool`, in its order) come in blocks
    of one trace seed each, spec seed 0 first, and ``seed`` shuffles the
    order inside every block, so every run that gets past the first block
    has the same complete set of spec-seed-0 results, whatever its seed or
    speed.
    """
    rng = random.Random(seed)
    blocks: dict[int, list[dict[str, Any]]] = {}
    for spec in misses:
        blocks.setdefault(spec["seed"], []).append(spec)
    plan: list[tuple[str, dict[str, Any] | None]] = []
    for block in blocks.values():
        rng.shuffle(block)
        for spec in block:
            if is_repeat(len(plan)):
                plan.append(("repeat", None))
            plan.append(("miss", spec))
    return plan


def is_repeat(index: int) -> bool:
    """Whether plan operation ``index`` is a repeat."""
    return index >= LEAD and (index - LEAD) % REPEAT_EVERY == REPEAT_EVERY - 1


class Dispatcher:
    """Hands one client its plan's operations; resolves repeat targets.

    ``next()`` returns ``(index, kind, spec)``, or ``None`` once ``limit``
    operations (the whole plan by default) have been handed out.
    ``completed()`` must be called when a miss finishes so later repeats
    may target it.
    """

    def __init__(self, plan: list[tuple[str, dict[str, Any] | None]], seed: int) -> None:
        self._plan = plan
        self._pos = 0
        self._done: list[dict[str, Any]] = []
        self._rng = random.Random(seed ^ 0x5EED)
        self.limit = len(plan)

    def next(self) -> tuple[int, str, dict[str, Any]] | None:
        """The next operation, with a repeat resolved to a completed spec."""
        if self._pos >= min(self.limit, len(self._plan)):
            return None
        idx = self._pos
        kind, planned = self._plan[idx]
        if planned is not None:
            spec = planned
        elif self._done:
            spec = self._rng.choice(self._done)
        else:
            raise RuntimeError("repeat dispatched before any miss completed")
        self._pos += 1
        return idx, kind, spec

    def completed(self, spec: dict[str, Any]) -> None:
        """Record a completed miss as a valid repeat target."""
        self._done.append(spec)
