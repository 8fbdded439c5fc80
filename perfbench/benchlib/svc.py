"""The ``svc-mixed`` workload: closed-loop clients against a sharded fleet.

A fresh fleet — ``dwarn-sim route`` in front of two ``dwarn-sim serve``
shards, each executing jobs on one in-process thread — is booted through
``repro.service.loadtest.Fleet``. Two client threads then run closed loops
(each submits its next job only after the previous result arrived) through
the router, one per shard: a client submits only specs that the router's
hash ring places on its shard (:mod:`benchlib.specgen` builds its plan:
every miss spec once, and every other submission a repeat of a spec it
completed). So the shards simulate side by side and no job queues behind
the other client's. With both clients free to land on either shard, about
40% of jobs did, which put the median latency on the border between
queued and unqueued jobs and moved it 30% between runs. Latency runs from
the start of the submit to the arrival of the result, polled far more
often than the client's 50 ms default so it is not quantized.
"""

from __future__ import annotations

import json
import shutil
import statistics
import threading
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any

from repro.experiments import figure1
from repro.experiments.parallel import run_pairs
from repro.service.client import ServiceClient, ServiceError
from repro.service.loadtest import Fleet, LoadTestConfig
from repro.service.protocol import JobSpec, result_from_payload
from repro.service.router import HashRing

from benchlib.checks import compare, digest_hash, load_expected, result_digest
from benchlib.outcome import Outcome, units_for
from benchlib.spans import Span
from benchlib.specgen import (
    POLICIES,
    REPEAT_EVERY,
    WORKLOADS,
    Dispatcher,
    build_plan,
    spec_key,
    spec_pool,
)
from benchlib.stats import peak_rss_mb, pct

__all__ = ["SPEC_SEEDS", "expected_results", "run_svc_mixed"]

SHARDS = 2  # one closed-loop client per shard
SETUP_REPEATS = 3
#: Trace seeds in the spec pool: more distinct misses than a run can use.
SPEC_SEEDS = 50
#: Result poll interval: well under the ~65 ms median simulated job, so
#: latency is not quantized like with the client's 50 ms default. Polls
#: also load the router: over ten runs each, the store-hit p95 spread 26%
#: between runs at 10 ms and 14% at 15 ms.
POLL_S = 0.015
BACKPRESSURE_RETRIES = 20
#: Completed submissions per second on the reference host; --seconds times
#: this is the number of plan operations a run submits.
OPS_PER_SECOND = 44.0


def _boot(state: Path) -> tuple[float, Fleet, int]:
    """Boot a fresh fleet; seconds until the router's /healthz reports ok."""
    fleet = Fleet(LoadTestConfig(shards=SHARDS), state)
    t0 = time.perf_counter()
    try:
        port = fleet.boot()
        probe = ServiceClient("127.0.0.1", port, timeout=5.0, retries=40, backoff=0.01)
        while probe.healthz().get("status") != "ok":
            time.sleep(0.01)
    except BaseException:
        fleet.stop()
        raise
    return time.perf_counter() - t0, fleet, port


class _Record:
    """Thread-safe log of every operation's outcome."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.ops: list[dict[str, Any]] = []
        self.errors: list[str] = []
        self.backpressure_retries = 0

    def add(self, op: dict[str, Any]) -> None:
        with self.lock:
            self.ops.append(op)

    def error(self, msg: str) -> None:
        with self.lock:
            self.errors.append(msg)

    def retried(self) -> None:
        with self.lock:
            self.backpressure_retries += 1


def _client(
    shard: str, port: int, disp: Dispatcher, rec: _Record, traced: bool
) -> None:
    c = ServiceClient("127.0.0.1", port, timeout=30.0, client_id=f"perfbench-{shard}")
    while (op := disp.next()) is not None:
        idx, kind, spec = op
        try:
            t0 = time.time()
            for attempt in range(BACKPRESSURE_RETRIES + 1):
                try:
                    job = c.submit(spec)
                    break
                except ServiceError as exc:
                    if exc.status not in (429, 503) or attempt == BACKPRESSURE_RETRIES:
                        raise
                    rec.retried()
                    time.sleep(0.05)
            t_sub = time.time()
            if job.get("state") == "done":  # answered at admission: fetch it
                payload = c.result(job["id"])
            else:
                payload = c.wait(job["id"], timeout=60.0, poll=POLL_S)
            t_done = time.time()
            status = c.status(job["id"]) if traced else {}
        except Exception as exc:  # every failure is counted, the loop goes on
            rec.error(f"{shard} op {idx} ({kind} {spec_key(spec)}): {exc!r}")
            continue
        if kind == "miss":
            disp.completed(spec)
        if not str(job["id"]).startswith(f"{shard}@"):
            rec.error(f"{spec_key(spec)} was routed to {job['id']}, not {shard}")
        rec.add(
            {
                "idx": idx,
                "kind": kind,
                "key": spec_key(spec),
                "id": job["id"],
                "source": payload.get("source"),
                "result": payload.get("result"),
                "t0": t0,
                "t_sub": t_sub,
                "t_done": t_done,
                "status": status,
            }
        )


def _lanes(seed: int) -> dict[str, Dispatcher]:
    """One plan per shard, over the pool specs the router places there."""
    ring = HashRing([f"s{i}" for i in range(SHARDS)])
    owned: dict[str, list[dict[str, Any]]] = {name: [] for name in ring.names}
    for spec in spec_pool(SPEC_SEEDS):
        owned[ring.owner(JobSpec.from_dict(spec).cache_key())].append(spec)
    return {name: Dispatcher(build_plan(seed, specs), seed) for name, specs in owned.items()}


def _drive(port: int, lanes: dict[str, Dispatcher], ops: int, traced: bool) -> _Record:
    """Run every lane's closed loop until it has handed out ``ops`` operations."""
    rec = _Record()
    threads = []
    for shard, disp in lanes.items():
        disp.limit = ops
        threads.append(
            threading.Thread(target=_client, args=(shard, port, disp, rec, traced))
        )
    for t in threads:
        t.start()
    for t, disp in zip(threads, lanes.values()):
        t.join(timeout=150.0)
        if t.is_alive():
            disp.limit = 0
            rec.error("client thread did not finish")
    return rec


def _digest(result: dict[str, Any]) -> dict[str, Any]:
    return result_digest(result["cycles"], result["committed"], result["ipc"])


class _MatrixRunner:
    """Answers ``figure1.run`` from service results of the 2-thread mixes.

    figure1 reads ``runner.run(workload, policy)`` and the machine's context
    count, which picks the workloads; two contexts select exactly the
    2-ILP/2-MIX/2-MEM matrix this workload simulates.
    """

    def __init__(self, results: dict[tuple[str, str], Any]) -> None:
        self.machine = SimpleNamespace(name="baseline", proc=SimpleNamespace(max_contexts=2))
        self._results = results

    def run(self, workload: str, policy: str) -> Any:
        return self._results[(workload, policy)]


def _paper_checks(ops: list[dict[str, Any]]) -> tuple[dict[str, bool], list[str]]:
    """Figure 1 shape checks on the service's spec-seed-0 results."""
    results = {
        tuple(o["key"].split("/")[:2]): result_from_payload(o["result"])
        for o in ops
        if o["kind"] == "miss" and o["key"].endswith("/s0")
    }
    missing = [(wl, pol) for wl in WORKLOADS for pol in POLICIES if (wl, pol) not in results]
    if missing:
        return {}, [f"spec seed 0 incomplete: {len(missing)} of its specs did not run"]
    checks = figure1.run(_MatrixRunner(results)).checks
    return {f"figure1 (2-thread): {k}": v for k, v in checks.items()}, []


def _check(rec: _Record) -> tuple[list[str], dict[str, Any]]:
    problems = list(rec.errors)
    seen: dict[str, set[str]] = {}
    misses: dict[str, int] = {}
    for o in rec.ops:
        seen.setdefault(o["key"], set()).add(json.dumps(_digest(o["result"]), sort_keys=True))
        if o["kind"] == "miss":
            misses[o["key"]] = misses.get(o["key"], 0) + 1
            if o["source"] != "simulated":
                problems.append(f"miss {o['key']} answered from {o['source']}")
        elif o["source"] != "store":
            problems.append(f"repeat {o['key']} answered from {o['source']}, not the store")
    problems += [f"{k}: {len(v)} distinct results" for k, v in seen.items() if len(v) != 1]
    problems += [f"{k}: submitted {n} times as a miss" for k, n in misses.items() if n != 1]
    digests = {o["key"]: _digest(o["result"]) for o in rec.ops}
    expected = load_expected().get("svc-mixed", {}).get("specs")
    if expected:
        problems += [f"{k}: result differs from the committed expectation"
                     for k in compare(expected, digests)]
    return problems, {"digest": digest_hash(digests), "distinct_specs": len(digests)}


def _wall(rec: _Record) -> float:
    """Seconds from the first submit to the last result."""
    return max(o["t_done"] for o in rec.ops) - min(o["t0"] for o in rec.ops)


def _e2e(rec: _Record) -> tuple[dict[str, float], dict[str, int]]:
    ops = rec.ops
    wall = _wall(rec)
    sims = [o for o in ops if o["kind"] == "miss"]
    hits = [o for o in ops if o["kind"] == "repeat"]
    sim_lat = [o["t_done"] - o["t0"] for o in sims]
    hit_lat = [o["t_done"] - o["t0"] for o in hits]
    committed = sum(sum(o["result"]["committed"]) for o in sims)
    e2e = {
        "sim_kips": committed / wall / 1000.0,
        "jobs_per_min": len(ops) / wall * 60.0,
        "sim_job_p50_s": pct(sim_lat, 50),
        "sim_job_p95_s": pct(sim_lat, 95),
        "hit_p50_s": pct(hit_lat, 50),
        "hit_p95_s": pct(hit_lat, 95),
    }
    return e2e, {"sim_job": len(sim_lat), "hit": len(hit_lat), "ops": len(ops)}


def _layers(rec: _Record, metrics: dict[str, Any]) -> tuple[dict[str, float], list[Span]]:
    """Service per-layer table from client timings and job status stamps."""
    spans: list[Span] = []
    queue_wait, exec_s, submit_s, notify_s = [], [], [], []
    for o in rec.ops:
        st = o["status"]
        root = len(spans)
        spans.append(Span("client.op", o["t0"], o["t_done"], None, o["id"]))
        spans.append(Span("client.submit", o["t0"], o["t_sub"], root, o["id"]))
        submit_s.append(o["t_sub"] - o["t0"])
        if st.get("finished_at") is not None:
            notify_s.append(o["t_done"] - st["finished_at"])
            spans.append(Span("client.notify", st["finished_at"], o["t_done"], root, o["id"]))
        if st.get("started_at") is not None and o["kind"] == "miss":
            queue_wait.append(st["started_at"] - st["submitted_at"])
            exec_s.append(st["finished_at"] - st["started_at"])
            spans.append(
                Span("service.queue_wait", st["submitted_at"], st["started_at"], root, o["id"])
            )
            spans.append(Span("service.exec", st["started_at"], st["finished_at"], root, o["id"]))
    jobs = metrics.get("jobs", {})
    stored = sum(1 for o in rec.ops if o["source"] == "store")

    def p(values: list[float], q: float) -> float:
        return pct(values, q) if values else 0.0

    layer = {
        "service.queue_wait_s.p50": p(queue_wait, 50),
        "service.queue_wait_s.p95": p(queue_wait, 95),
        "service.exec_s.p50": p(exec_s, 50),
        "service.exec_s.p95": p(exec_s, 95),
        "service.submit_s.p50": p(submit_s, 50),
        "service.notify_s.p50": p(notify_s, 50),
        "service.jobs_per_batch": jobs.get("queued", 0) / jobs["batches"]
        if jobs.get("batches")
        else 0.0,
        "service.store_hit_ratio": stored / len(rec.ops) if rec.ops else 0.0,
        "service.backpressure_retries": float(rec.backpressure_retries),
        "router.unavailable": float(metrics.get("router", {}).get("unavailable", 0)),
    }
    return layer, spans


def run_svc_mixed(state: Path, seed: int, seconds: float, traced: bool) -> Outcome:
    """Boot a fleet (several times, for set-up time), then drive the loop."""
    out = Outcome()
    setup_secs = []
    fleet = None
    try:
        for rep in range(SETUP_REPEATS):
            if fleet is not None:
                fleet.stop()
            secs, fleet, port = _boot(state / f"fleet{rep}")
            setup_secs.append(secs)
        lanes = _lanes(seed)
        ops = units_for(seconds, SHARDS / OPS_PER_SECOND)  # per lane
        if traced:
            # Half the operations untraced, half traced, on the same plans:
            # the traced half costs one extra status request per job.
            plain = _drive(port, lanes, ops // 2, False)
            rec = _drive(port, lanes, ops, True)
        else:
            plain = rec = _drive(port, lanes, ops, False)
        metrics = ServiceClient("127.0.0.1", port, timeout=10.0).metrics()
    finally:
        if fleet is not None:
            fleet.stop()
        shutil.rmtree(state, ignore_errors=True)
    out.e2e["peak_rss_mb"] = peak_rss_mb()  # shards count once reaped

    both = _Record()
    for r in {id(plain): plain, id(rec): rec}.values():
        both.ops += r.ops
        both.errors += r.errors
    problems, info = _check(both)
    checks, missing = _paper_checks(both.ops)
    problems += missing
    n_repeats = sum(1 for o in both.ops if o["kind"] == "repeat")
    out.problems = problems
    out.attempted = len(both.ops) + len(both.errors)
    e2e, out.samples = _e2e(plain)
    out.e2e.update(e2e)
    out.e2e["setup_s"] = statistics.median(setup_secs)
    out.e2e["paper_checks_passed"] = float(sum(checks.values()))
    out.samples["setup"] = len(setup_secs)
    committed = load_expected().get("svc-mixed", {}).get("paper_checks_passed")
    if committed is not None and sum(checks.values()) != committed:
        problems.append(f"paper_checks_passed {sum(checks.values())} != committed {committed}")
    out.detail.update(
        {
            "digest": info["digest"],
            "distinct_specs": info["distinct_specs"],
            "repeats": n_repeats,
            "designed_repeat_share": 1 / REPEAT_EVERY,
            "paper_checks": checks,
        }
    )
    if traced:
        out.layer, out.spans = _layers(rec, metrics)
        plain_rate = len(plain.ops) / _wall(plain)
        out.detail["layers"] = {
            "tracing_overhead": plain_rate / (len(rec.ops) / _wall(rec)) - 1.0
        }
    return out


def expected_results() -> dict[str, Any]:
    """Reference digests of every pool spec, simulated in this process.

    Uses the same ``run_pairs`` entry the shards execute jobs through, one
    call per trace seed, outside the service.
    """
    specs = spec_pool(SPEC_SEEDS)
    digests: dict[str, Any] = {}
    by_seed: dict[int, list[dict[str, Any]]] = {}
    for spec in specs:
        by_seed.setdefault(spec["seed"], []).append(spec)
    for group in by_seed.values():
        js = JobSpec.from_dict(group[0])
        pairs = [(s["workload"], s["policy"]) for s in group]
        for (wl, pol, res), spec in zip(
            run_pairs(js.machine_config(), js.sim_config(), pairs, 1), group
        ):
            digests[spec_key(spec)] = result_digest(res.cycles, res.committed, res.ipc)
    return digests
