"""Engineering benchmark for the distributed worker pool.

Times one heavy 16-job sweep against a lone ``dwarn-sim serve`` daemon and
against a daemon leasing to 2 ``dwarn-sim worker`` processes x
``--concurrency 2``. The pool must finish ``MIN_SPEEDUP`` times faster:
the acceptance criterion for the worker pool. Four busy processes need
four cores, so the check skips on smaller hosts, where the ratio would
measure the OS scheduler rather than the pool.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import pytest

from repro.service.client import ServiceClient
from repro.service.loadtest import _Proc

MIN_SPEEDUP = 1.7

#: 2 config groups x 8 (workload, policy) pairs, with windows long enough
#: that per-job compute dwarfs the lease/poll/HTTP overhead.
SPECS = [
    {
        "workload": wl,
        "policy": pol,
        "seed": seed,
        "warmup_cycles": 200,
        "measure_cycles": 20_000,
        "trace_length": 40_000,
    }
    for seed in (7, 8)
    for wl in ("2-MIX", "2-MEM")
    for pol in ("dwarn", "icount", "flush", "stall")
]


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def _sweep_secs(tmp: Path, workers: int) -> float:
    """Boot a fresh daemon (plus ``workers`` workers) under ``tmp`` and
    return the wall-clock of the whole sweep through it."""
    tmp.mkdir()
    daemon = _Proc(
        "daemon",
        _cli(
            "serve", "--port", "0", "--port-file", str(tmp / "port"),
            "--store", str(tmp / "results.jsonl"),
            "--cache-dir", str(tmp / "cache"),
            "--trace-cache", str(tmp / "traces"),
            "--processes", "1", "--lease-ttl", "5",
        ),
        tmp / "port",
    )
    pool: list[_Proc] = []
    try:
        daemon.start()
        port = daemon.await_port()
        client = ServiceClient("127.0.0.1", port, timeout=30.0)
        for i in range(workers):
            # Workers report no port; this port_file is never written.
            worker = _Proc(
                f"w{i}",
                _cli(
                    "worker", "--server", f"http://127.0.0.1:{port}",
                    "--worker-id", f"bench-w{i}", "--concurrency", "2",
                    "--poll-interval", "0.2",
                    "--trace-cache", str(tmp / f"traces-w{i}"),
                ),
                tmp / f"w{i}.port",
            )
            pool.append(worker)
            worker.start()
        deadline = time.monotonic() + 30.0
        while client.metrics()["workers"]["active"] < workers:
            assert time.monotonic() < deadline, "workers never registered"
            time.sleep(0.1)

        t0 = time.monotonic()
        jobs = [client.submit(spec) for spec in SPECS]
        for job in jobs:
            record = client.wait(job["id"], timeout=600.0)
            assert record["state"] == "done", record
            assert record["result"]["throughput"] > 0, record
        secs = time.monotonic() - t0
        if workers:
            m = client.metrics()["workers"]
            assert m["worker_results"] >= len(SPECS), m
        return secs
    finally:
        for proc in (daemon, *pool):
            proc.stop()


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="2 workers x concurrency 2 need >= 4 CPUs for a meaningful ratio",
)
def test_bench_worker_pool_speedup(benchmark, tmp_path):
    base_secs = _sweep_secs(tmp_path / "daemon", workers=0)
    pool_secs = benchmark.pedantic(
        _sweep_secs, args=(tmp_path / "pool", 2), rounds=1, iterations=1
    )
    speedup = base_secs / pool_secs
    benchmark.extra_info["daemon_secs"] = round(base_secs, 2)
    benchmark.extra_info["pool_secs"] = round(pool_secs, 2)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= MIN_SPEEDUP, (
        f"2 workers x concurrency 2 took {pool_secs:.1f}s vs {base_secs:.1f}s "
        f"for a lone daemon: {speedup:.2f}x < {MIN_SPEEDUP}x"
    )
