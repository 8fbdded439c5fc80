"""Output checks: per-pair result digests against committed expectations.

Every simulated result is reduced to the fields the issue names — cycles,
per-thread committed instructions and throughput — keyed by a stable pair
or spec name. A run compares those digests with ``expected.json`` when it
holds the run's seed, and always reports a SHA-256 over all of them, so two
commits can be compared on any seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "EXPECTED_PATH",
    "compare",
    "digest_hash",
    "invariant_problems",
    "load_expected",
    "result_digest",
]

EXPECTED_PATH = Path(__file__).resolve().parent.parent / "expected.json"


def result_digest(cycles: int, committed: list[int], ipc: list[float]) -> dict[str, Any]:
    """The checked projection of one result; throughput as its exact repr."""
    return {
        "cycles": int(cycles),
        "committed": [int(c) for c in committed],
        "throughput": repr(float(sum(ipc))),
    }


def digest_hash(digests: Mapping[str, Mapping[str, Any]]) -> str:
    """SHA-256 over the canonical JSON of a key -> digest mapping."""
    blob = json.dumps(digests, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def compare(
    expected: Mapping[str, Mapping[str, Any]], got: Mapping[str, Mapping[str, Any]]
) -> list[str]:
    """Keys whose digest differs from, or is missing in, the expectation.

    Only keys present in ``got`` are judged, so a run that covers a subset
    of the expected keys (a time-bounded service run) is still checked.
    """
    return sorted(k for k, d in got.items() if expected.get(k) != d)


def invariant_problems(key: str, digest: Mapping[str, Any], threads: int) -> list[str]:
    """Consistency faults any seed's result must be free of."""
    problems = []
    committed = digest["committed"]
    if len(committed) != threads:
        problems.append(f"{key}: {len(committed)} thread results, expected {threads}")
    if digest["cycles"] <= 0 or any(c <= 0 for c in committed):
        problems.append(f"{key}: empty measurement window")
    thr = float(digest["throughput"])
    if digest["cycles"] > 0 and not math.isclose(
        thr, sum(committed) / digest["cycles"], rel_tol=1e-9
    ):
        problems.append(f"{key}: throughput {thr} != committed / cycles")
    return problems


def load_expected(path: Path = EXPECTED_PATH) -> dict[str, Any]:
    """The committed expectations (an empty mapping if none are committed)."""
    if not path.exists():
        return {}
    return json.loads(path.read_text())
