"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload fig1-warm --seed 0 --seconds 20 --trace 0

Runs from the root of a checkout of the repository and simulates with the
sources under ``src/``. With ``--trace 0`` it prints the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` it runs the separate traced pass
and prints the per-layer metrics. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. A fuller
report (host, sample counts, result digest, check outcomes) is written to
``.perfbench/``, and with ``--trace 1`` the spans next to it.

``--record-expected`` rewrites the workload's entry in
``perfbench/expected.json`` from this run's results, after an intended
change to simulated behaviour.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("fig1-warm", "svc-mixed")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-expected", action="store_true")
    return ap.parse_args(argv)


def _run(args: argparse.Namespace, state: Path):  # type: ignore[no-untyped-def]
    if args.workload == "svc-mixed":
        from benchlib.svc import run_svc_mixed as run
    else:
        from benchlib.sweeps import run_fig1_warm as run
    return run(state, args.seed, args.seconds, bool(args.trace))


def _record(args: argparse.Namespace, outcome) -> None:  # type: ignore[no-untyped-def]
    """Store this run's results as the workload's expectation (any seed:
    the seed orders the work but never changes a result)."""
    from benchlib.checks import EXPECTED_PATH, load_expected

    data = load_expected()
    entry: dict = {"paper_checks_passed": int(outcome.e2e["paper_checks_passed"])}
    if args.workload == "svc-mixed":
        from benchlib.svc import expected_results

        entry["specs"] = expected_results()
    else:
        entry["pairs"] = outcome.detail["pairs"]
    data[args.workload] = entry
    EXPECTED_PATH.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")


def main(argv: list[str] | None = None) -> int:
    """Run one workload and print its result line; see the module docstring."""
    args = _parse(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Service shards and routers are child interpreters; they import from src/.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )

    from benchlib.spans import write_spans
    from benchlib.stats import host_info

    state = OUT / f"state-{args.workload}-{os.getpid()}"
    try:
        outcome = _run(args, state)
    finally:
        shutil.rmtree(state, ignore_errors=True)
    if args.record_expected:
        _record(args, outcome)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    source = outcome.layer if args.trace else outcome.e2e
    metrics = {
        m["name"]: {"value": float(source.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    failed = min(len(outcome.problems), max(outcome.attempted, 1))
    line = {
        "correct": not outcome.problems,
        "attempted": max(outcome.attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_info(),
        "samples": outcome.samples,
        "failed_frac": failed / line["attempted"],
        "problems": outcome.problems,
        "detail": outcome.detail,
        "result": line,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    if outcome.spans:
        write_spans(outcome.spans, OUT / f"spans-{tag}.jsonl")

    for problem in outcome.problems[:20]:
        print(f"perfbench: check failed: {problem}")
    print(f"perfbench: host {json.dumps(report['host'])}")
    print(f"perfbench: samples {json.dumps(outcome.samples)} "
          f"failed_frac {report['failed_frac']:.4f} digest {outcome.detail.get('digest')}")
    if args.trace:
        print(f"perfbench: layers {json.dumps(outcome.detail.get('layers', {}), default=str)}")
    for name, m in metrics.items():
        print(f"perfbench: {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
