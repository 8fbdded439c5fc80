"""The ``fig1-warm`` workload: the Figure 1 sweep over filled trace artifacts.

The sweep runs through ``repro.experiments.parallel.run_pairs`` with two
worker processes, the way ``dwarn-sim report -j 2`` does, and stores every
result through ``ExperimentRunner.store_result``: the 12 Table 2(b)
workloads x 6 paper policies, the single-thread ICOUNT baselines Hmean
needs, and the committed DWIT fixture as an ingested workload under
ICOUNT, FLUSH and DWarn. Set-up walks every synthetic trace cold and
persists it, so set-up time carries the trace layer while the timed sweeps
load artifacts and spend their time stepping the core.

The traced pass hands run_pairs a span-recording worker
(:func:`traced_worker`), so its process layout is the one the timed pass
measures.

``--seed`` orders the work: it shuffles the pairs handed to run_pairs,
which decides which worker loads which artifacts. The trace seeds stay
those of the figures: shifting them moved ``paper_checks_passed`` between 8
and 13 and ``sim_kips`` by about 10% with the trace content over five seeds,
so runs on different seeds would not measure the same work.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from repro.config import SimulationConfig, get_preset
from repro.core import PAPER_POLICIES, Simulator, SimResult, make_policy
from repro.experiments import figure1, figure3, table4
from repro.experiments.parallel import run_pairs, sweep_pairs
from repro.experiments.runner import ExperimentRunner
from repro.trace import ingest
from repro.trace.artifact import TraceArtifactCache
from repro.trace.profiles import PROFILES
from repro.trace.synthetic import trace_cache_stats
from repro.workloads import build_programs, build_single, get_workload

from benchlib.checks import (
    compare,
    digest_hash,
    invariant_problems,
    load_expected,
    result_digest,
)
from benchlib.outcome import Outcome, units_for
from benchlib.spans import NullTracer, Span, Tracer, summarize
from benchlib.stats import peak_rss_mb, pct, tail_after_parallel

__all__ = ["run_fig1_warm", "traced_worker"]

WORKLOAD = "fig1-warm"
PROCESSES = 2
MACHINE = "baseline"
SIMCFG = SimulationConfig(warmup_cycles=1000, measure_cycles=6000, trace_length=30000)
INGEST_NAME = "bench-mcf"
INGEST_POLICIES = ("icount", "flush", "dwarn")
BENCH_DIR = Path(__file__).resolve().parents[1]
FIXTURE = BENCH_DIR.parent / "examples" / "traces" / "sample-mcf.dwit"
SETUP_REPEATS = 3
#: Seconds one sweep takes on the reference host; --seconds / this = sweeps.
UNIT_SECONDS = 10.0
#: Result-cache lookups timed each time a pair completes; see _sweep. Kept
#: short: a longer burst in the parent gets preempted by the busy workers,
#: and the share of lookups that straddle a preemption swung p95 tenfold.
HITS_PER_PAIR = 2
#: Pairs re-run on the staged reference engine after each run.
STAGED_SPOT_CHECKS = 2


# ----------------------------------------------------------------------
# Span-recording worker (runs inside run_pairs' worker processes)


class TimedArtifactCache(TraceArtifactCache):
    """Artifact cache that records load, walk and store spans.

    ``generate_trace`` probes ``load``; on a miss it walks the trace and then
    calls ``store``, so the walk is exactly the gap between the failed probe
    and the store.
    """

    def __init__(self, directory: str | Path) -> None:
        super().__init__(directory)
        self.tracer: Tracer | NullTracer = NullTracer()
        self.walked_records = 0
        self._miss_end: float | None = None

    def load(self, profile, length, base, seed, instance):  # type: ignore[no-untyped-def]
        t0 = time.perf_counter()
        trace = super().load(profile, length, base, seed, instance)
        t1 = time.perf_counter()
        if trace is None:
            self._miss_end = t1
            self.tracer.add("trace.artifact_probe", t0, t1)
        else:
            self.tracer.add("trace.artifact_load", t0, t1)
        return trace

    def store(self, trace):  # type: ignore[no-untyped-def]
        t0 = time.perf_counter()
        if self._miss_end is not None:
            self.tracer.add("trace.walk", self._miss_end, t0)
            self.walked_records += trace.length
            self._miss_end = None
        path = super().store(trace)
        self.tracer.add("trace.artifact_store", t0, time.perf_counter())
        return path


#: One cache per directory per worker process, like run_pairs' own worker.
_CACHES: dict[str, TimedArtifactCache] = {}


def _counters(cache: TimedArtifactCache) -> dict[str, int]:
    return {
        "memo_hits": trace_cache_stats()["mem_hits"],
        "disk_hits": cache.disk_hits,
        "walks": cache.stores,
        "walked_records": cache.walked_records,
    }


def _build(workload: str, simcfg: SimulationConfig, cache: TraceArtifactCache | None) -> list:
    try:
        spec = get_workload(workload)
    except KeyError:
        return build_single(workload, simcfg, trace_cache=cache)
    return build_programs(spec, simcfg, trace_cache=cache)


def _threads(workload: str) -> int:
    try:
        return len(get_workload(workload).benchmarks)
    except KeyError:
        return 1


def traced_worker(
    machine: Any,
    simcfg: SimulationConfig,
    workload: str,
    policy: str,
    trace_cache_dir: str | None = None,
) -> tuple[str, str, SimResult, float]:
    """``run_pairs`` worker that records one span per layer call.

    Splits ``Simulator.run`` into ``run_cycles(warmup)`` and ``run()``,
    which yields the same result as a plain ``run()``. Spans and trace
    counters ride back to the parent in ``result.extra["perfbench"]``.
    """
    if trace_cache_dir is None:
        raise ValueError("the traced worker needs the trace-artifact directory")
    cache = _CACHES.setdefault(trace_cache_dir, TimedArtifactCache(trace_cache_dir))
    tracer = cache.tracer = Tracer()
    before = _counters(cache)
    key = f"{workload}/{policy}"
    ingested = workload not in PROFILES and ingest.find_ingested(workload) is not None
    t0 = time.perf_counter()
    with tracer.span("pair", key):
        with tracer.span("ingest.read" if ingested else "trace.build", key):
            programs = _build(workload, simcfg, cache)
        with tracer.span("core.build", key):
            sim = Simulator(machine, programs, make_policy(policy), simcfg)
        with tracer.span("core.warmup", key):
            sim.run_cycles(simcfg.warmup_cycles)
        with tracer.span("core.measure", key):
            res = sim.run()
    secs = time.perf_counter() - t0
    cache.tracer = NullTracer()
    after = _counters(cache)
    res.extra["perfbench"] = {
        "spans": [tuple(s) for s in tracer.spans],
        "counts": {k: after[k] - before[k] for k in after},
    }
    return workload, policy, res, secs


# ----------------------------------------------------------------------
# Set-up: fill the trace artifacts from fresh processes, register the fixture


def _fill_traces(trace_dir: str, units: list[str], traced: bool):  # type: ignore[no-untyped-def]
    """Walk and persist every trace ``units`` need; returns spans + counts."""
    cache = TimedArtifactCache(trace_dir)
    tracer = cache.tracer = Tracer() if traced else NullTracer()
    for unit in units:
        with tracer.span("setup.fill", unit):
            _build(unit, SIMCFG, cache)
    return [tuple(s) for s in tracer.spans], _counters(cache)


def _fill_plan(pairs: list[tuple[str, str]]) -> list[list[str]]:
    """Two fill lists that rarely need the same trace at the same time.

    Thread ``i`` of a workload gets its own address-space slice, so two
    workloads share a trace only when they run the same benchmark in the
    same slot. The ILP and MIX families share few slots with the MEM family
    and the single-thread runs, and largest-first order lets a family's
    small workloads load the traces its largest member walked.
    """
    units = [u for u in dict.fromkeys(wl for wl, _ in pairs) if u != INGEST_NAME]
    multi = sorted((u for u in units if _threads(u) > 1), key=_threads, reverse=True)
    first = [u for u in multi if not u.endswith("MEM")]
    second = [u for u in multi if u.endswith("MEM")] + [u for u in units if u not in multi]
    return [first, second]


#: One fill process:
#: ``python3 -c _FILL_MAIN <perfbench dir> <out.json> <traced 0|1> <trace dir> <units...>``.
_FILL_MAIN = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); "
    "from benchlib.sweeps import _fill_traces; "
    "open(sys.argv[2], 'w').write(json.dumps("
    "_fill_traces(sys.argv[4], sys.argv[5:], sys.argv[3] == '1')))"
)
FILL_TIMEOUT_S = 150.0


def _run_fills(state: Path, rep: int, trace_dir: Path, plan: list[list[str]], traced: bool):  # type: ignore[no-untyped-def]
    """Run one fresh interpreter per fill list at once and wait for each.

    Plain child interpreters rather than a ``spawn`` pool: a spawn pool
    starts multiprocessing's resource tracker, which outlives the benchmark.
    """
    outs = [state / f"fill{rep}-{i}.json" for i in range(len(plan))]
    procs = []
    try:
        for out, units in zip(outs, plan):
            argv = [sys.executable, "-c", _FILL_MAIN, str(BENCH_DIR), str(out),
                    "1" if traced else "0", str(trace_dir), *units]
            procs.append(subprocess.Popen(argv, stdin=subprocess.DEVNULL))
        for proc in procs:
            if proc.wait(timeout=FILL_TIMEOUT_S) != 0:
                raise RuntimeError(f"trace fill exited with code {proc.returncode}")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    fills = [json.loads(out.read_text()) for out in outs]
    for out in outs:
        out.unlink()
    return fills


def _setup(state: Path, rep: int, pairs: list[tuple[str, str]], traced: bool):  # type: ignore[no-untyped-def]
    """One set-up: two fresh interpreters (so import cost counts) fill the
    trace artifacts; the fixture is registered where workers resolve it."""
    trace_dir = state / f"traces{rep}"
    ingest_dir = state / f"ingested{rep}"
    state.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    fills = _run_fills(state, rep, trace_dir, _fill_plan(pairs), traced)
    target = ingest_dir / f"{INGEST_NAME}{ingest.INGEST_SUFFIX}"
    ingest_dir.mkdir(parents=True)
    shutil.copyfile(FIXTURE, target)
    ingest.register_workload(INGEST_NAME, target)
    return time.perf_counter() - t0, trace_dir, ingest_dir, fills


# ----------------------------------------------------------------------
# One sweep (the timed unit)

#: Pairs already stored, as (workload, policy, result directory).
Stored = list[tuple[str, str, Path]]


@dataclasses.dataclass
class SweepRun:
    """What one pass over the sweep produced."""

    results: list[tuple[str, str, SimResult]] = dataclasses.field(default_factory=list)
    wall: float = 0.0  # run_pairs plus storing the results
    pair_secs: list[float] = dataclasses.field(default_factory=list)
    store_s: float = 0.0
    hit_secs: list[float] = dataclasses.field(default_factory=list)
    #: Traced pass: when run_pairs returned, and (key, spans, counts) per pair.
    call_end: float = 0.0
    pair_spans: list[tuple[str, list[Span], dict[str, int]]] = dataclasses.field(
        default_factory=list
    )


def _time_hit(stored: Stored, i: int) -> float:
    """Answer stored pair ``i`` from the on-disk result cache (a fresh
    runner, so the memory cache cannot answer)."""
    wl, pol, result_dir = stored[i % len(stored)]
    runner = ExperimentRunner(MACHINE, SIMCFG, cache_dir=result_dir)
    h0 = time.perf_counter()
    hit = runner.cached_result(wl, pol)
    secs = time.perf_counter() - h0
    if hit is None:
        raise RuntimeError(f"stored result for {wl}/{pol} not found")
    return secs


def _sweep(
    pairs: list[tuple[str, str]], trace_dir: Path, result_dir: Path, traced: bool, stored: Stored
) -> SweepRun:
    """Run the pairs through run_pairs and store the results.

    Each time a pair completes, the parent answers a few earlier pairs
    (``stored``, which this call extends) from the result cache while the
    workers keep simulating: hits are sampled beside simulation all through
    the run rather than in one burst that a moment of host contention
    could skew.
    """
    run = SweepRun()

    def progress(done: int, total: int, wl: str, pol: str, secs: float) -> None:
        run.pair_secs.append(secs)
        if stored:
            for _ in range(HITS_PER_PAIR):
                run.hit_secs.append(_time_hit(stored, len(run.hit_secs)))

    t0 = time.perf_counter()
    out = run_pairs(
        get_preset(MACHINE),
        SIMCFG,
        pairs,
        PROCESSES,
        trace_cache_dir=str(trace_dir),
        progress=progress,
        worker=traced_worker if traced else None,
    )
    run.call_end = time.perf_counter()
    runner = ExperimentRunner(MACHINE, SIMCFG, cache_dir=result_dir)
    for wl, pol, res in out:
        extra = res.extra.pop("perfbench", None)
        if extra is not None:
            spans = [Span(*s) for s in extra["spans"]]
            run.pair_spans.append((f"{wl}/{pol}", spans, extra["counts"]))
        s0 = time.perf_counter()
        runner.store_result(wl, pol, res)
        run.store_s += time.perf_counter() - s0
        run.results.append((wl, pol, res))
        stored.append((wl, pol, result_dir))
    run.wall = time.perf_counter() - t0
    return run


# ----------------------------------------------------------------------
# Output checks


def _digests(run: SweepRun) -> dict[str, dict[str, Any]]:
    return {
        f"{wl}/{pol}": result_digest(r.cycles, r.committed, r.ipc) for wl, pol, r in run.results
    }


def _check(runs: list[SweepRun], result_dir: Path, trace_dir: Path, seed: int) -> list[str]:
    """Determinism across sweeps, invariants, the committed expectation, the
    result cache's answers, and a staged-engine re-run of a few pairs."""
    problems = []
    digests = _digests(runs[0])
    for i, other in enumerate(runs[1:], 1):
        problems += [f"{k}: sweep {i} differs from sweep 0" for k in compare(digests, _digests(other))]
    for key, d in digests.items():
        problems += invariant_problems(key, d, _threads(key.split("/")[0]))
    expected = load_expected().get(WORKLOAD, {}).get("pairs")
    if expected:
        problems += [
            f"{k}: result differs from the committed expectation"
            for k in compare(expected, digests)
        ]
        problems += [f"{k}: expected pair not run" for k in sorted(set(expected) - set(digests))]

    fresh = ExperimentRunner(MACHINE, SIMCFG, cache_dir=result_dir)
    problems += [
        f"{wl}/{pol}: stored result differs"
        for wl, pol, res in runs[-1].results
        if fresh.cached_result(wl, pol) != res
    ]

    machine = get_preset(MACHINE)
    cache = TraceArtifactCache(trace_dir)
    for wl, pol, _ in random.Random(seed).sample(runs[-1].results, STAGED_SPOT_CHECKS):
        sim = Simulator(machine, _build(wl, SIMCFG, cache), make_policy(pol), SIMCFG)
        sim._step = sim._step  # an instance override selects the staged engine
        ref = sim.run()
        if result_digest(ref.cycles, ref.committed, ref.ipc) != digests[f"{wl}/{pol}"]:
            problems.append(f"{wl}/{pol}: fused result differs from the staged reference")
    return problems


# ----------------------------------------------------------------------
# Per-layer table (traced pass)


def _sim_stats(results: list[SimResult]) -> dict[str, float]:
    """Simulated statistics: deterministic, identical under host-only changes."""

    def ratio(num: str, den: str, rs: list[SimResult]) -> float:
        d = sum(sum(getattr(r, den)) for r in rs)
        return sum(sum(getattr(r, num)) for r in rs) / d if d else 0.0

    flush = [r for r in results if r.policy == "flush"]
    return {
        "core.ipc_mean": statistics.fmean(r.throughput for r in results),
        "core.useful_fetch_ratio": ratio("committed", "fetched", results),
        "mem.l1d_load_missrate": ratio("load_l1_misses", "loads", results),
        "mem.l2_load_missrate": ratio("load_l2_misses", "loads", results),
        "branch.mispredict_rate": ratio("mispredicts", "branches_resolved", results),
        "policies.flush.flushed_fraction": ratio("squashed_flush", "fetched", flush),
    }


def _layer_table(
    run: SweepRun, setup_spans: list[Span], setup_counts: list[dict[str, int]], trace_dir: Path
) -> tuple[dict[str, float], dict[str, Any], list[Span]]:
    """Per-layer metrics of one traced sweep plus the set-up fill before it."""
    results = {f"{wl}/{pol}": r for wl, pol, r in run.results}
    self_by_name: dict[str, float] = {}
    counts = {"memo_hits": 0, "disk_hits": 0, "walks": 0, "walked_records": 0}
    kcyc: dict[str, list[float]] = {}
    in_worker = residue = 0.0
    intervals = []
    everything = Tracer()
    everything.extend(setup_spans, None)
    for key, spans, c in run.pair_spans:
        for k in counts:
            counts[k] += c[k]
        summary = summarize(spans)
        for name, row in summary.items():
            self_by_name[name] = self_by_name.get(name, 0.0) + row["self_s"]
        root = spans[0]
        intervals.append((root.start, root.end))
        in_worker += root.duration
        residue += summary["pair"]["self_s"]
        res = results[key]
        core_s = summary["core.warmup"]["self_s"] + summary["core.measure"]["self_s"]
        for group in ("all", f"{res.num_threads}t", res.policy):
            acc = kcyc.setdefault(group, [0.0, 0.0])
            acc[0] += SIMCFG.warmup_cycles + res.cycles
            acc[1] += core_s
        everything.extend(spans, None)
    for c in setup_counts:
        for k in counts:
            counts[k] += c[k]
    for name, row in summarize(setup_spans).items():
        self_by_name[name] = self_by_name.get(name, 0.0) + row["self_s"]

    def rate(group: str) -> float:
        cyc, secs = kcyc.get(group, (0.0, 0.0))
        return cyc / secs / 1000.0 if secs else 0.0

    walk_s = self_by_name.get("trace.walk", 0.0)
    probes = counts["memo_hits"] + counts["disk_hits"] + counts["walks"]
    artifact_bytes = sum(f.stat().st_size for f in trace_dir.glob("*.dwtrace"))
    layer = {
        "trace.walk_s": walk_s,
        "trace.walk_krec_per_s": counts["walked_records"] / walk_s / 1000.0 if walk_s else 0.0,
        "trace.walks": float(counts["walks"]),
        "trace.memo_hit_ratio": counts["memo_hits"] / probes if probes else 0.0,
        "trace.artifact_store_s": self_by_name.get("trace.artifact_store", 0.0),
        "trace.artifact_mb": artifact_bytes / 1e6,
        "ingest.read_s": self_by_name.get("ingest.read", 0.0),
        "trace.artifact_load_s": self_by_name.get("trace.artifact_load", 0.0),
        "core.build_s": self_by_name.get("core.build", 0.0),
        "core.warmup_s": self_by_name.get("core.warmup", 0.0),
        "core.measure_s": self_by_name.get("core.measure", 0.0),
        "core.kcycles_per_s": rate("all"),
        **{f"core.kcycles_per_s.{n}t": rate(f"{n}t") for n in (2, 4, 6, 8)},
        **{f"policies.{p}.kcycles_per_s": rate(p) for p in PAPER_POLICIES},
        **_sim_stats(list(results.values())),
        "parallel.busy_share": in_worker / (run.wall * PROCESSES),
        "parallel.tail_s": tail_after_parallel(intervals, run.call_end, PROCESSES),
        "runner.store_s": run.store_s,
    }
    detail = {
        "self_s_by_span": self_by_name,
        "in_worker_s": in_worker,
        "residue_s": residue,
        "residue_share": residue / in_worker if in_worker else 0.0,
        "trace_counts": counts,
    }
    return layer, detail, everything.spans


# ----------------------------------------------------------------------
# Entry point


def run_fig1_warm(state: Path, seed: int, seconds: float, traced: bool) -> Outcome:
    """Set up three times, run the sweeps, check them; traced: one plain
    and one traced sweep plus the per-layer table."""
    out = Outcome()
    pairs = sweep_pairs(ExperimentRunner(MACHINE, SIMCFG), PAPER_POLICIES)
    pairs += [(INGEST_NAME, pol) for pol in INGEST_POLICIES]
    random.Random(seed).shuffle(pairs)

    setup_secs = []
    for rep in range(SETUP_REPEATS):
        secs, trace_dir, ingest_dir, fills = _setup(
            state, rep, pairs, traced and rep == SETUP_REPEATS - 1
        )
        setup_secs.append(secs)
        if rep < SETUP_REPEATS - 1:
            shutil.rmtree(trace_dir)
    os.environ[ingest.INGEST_DIR_ENV] = str(ingest_dir)  # run_pairs workers inherit it

    stored: Stored = []
    n = 2 if traced else units_for(seconds, UNIT_SECONDS)
    runs = [
        _sweep(pairs, trace_dir, state / f"results{i}", traced and i == n - 1, stored)
        for i in range(n)
    ]
    traced_run = runs.pop() if traced else None
    if not any(r.hit_secs for r in runs):  # one short sweep: time a round after it
        runs[-1].hit_secs += [_time_hit(stored, i) for i in range(len(stored))]
    rss = peak_rss_mb()  # before the checks load traces into this process

    result_dir = state / f"results{n - 1}"
    runner = ExperimentRunner(MACHINE, SIMCFG, cache_dir=result_dir)
    checks: dict[str, bool] = {}
    for mod in (figure1, figure3, table4):
        checks.update({f"{mod.NAME}: {k}": v for k, v in mod.run(runner).checks.items()})
    if runner.simulations_run:
        out.problems.append(f"paper checks simulated {runner.simulations_run} uncovered pairs")
    passed = sum(checks.values())
    committed = load_expected().get(WORKLOAD, {}).get("paper_checks_passed")
    if committed is not None and passed != committed:
        out.problems.append(f"paper_checks_passed {passed} != committed {committed}")
    every = runs + ([traced_run] if traced_run else [])
    out.problems += _check(every, result_dir, trace_dir, seed)
    out.attempted = sum(len(r.results) + len(r.hit_secs) for r in every)

    pair_secs = [s for r in runs for s in r.pair_secs]
    hit_secs = [s for r in runs for s in r.hit_secs]
    out.e2e = {
        "setup_s": statistics.median(setup_secs),
        "sim_kips": statistics.median(
            sum(sum(res.committed) for _, _, res in r.results) / r.wall / 1000.0 for r in runs
        ),
        "paper_checks_passed": float(passed),
        "jobs_per_min": statistics.median(len(r.results) / r.wall * 60.0 for r in runs),
        "sim_job_p50_s": pct(pair_secs, 50),
        "sim_job_p95_s": pct(pair_secs, 95),
        "hit_p50_s": pct(hit_secs, 50),
        "hit_p95_s": pct(hit_secs, 95),
        "peak_rss_mb": rss,
    }
    out.samples = {
        "sweeps": len(runs),
        "setup": len(setup_secs),
        "sim_job": len(pair_secs),
        "hit": len(hit_secs),
    }
    digests = _digests(runs[0])
    out.detail.update(
        {
            "digest": digest_hash(digests),
            "pairs": digests,
            "paper_checks": checks,
            "sweep_walls_s": [r.wall for r in runs],
        }
    )
    if traced_run is not None:
        fill_spans = Tracer()
        for spans, _ in fills:  # one list per fill process, indices local to it
            fill_spans.extend([Span(*s) for s in spans], None)
        out.layer, detail, out.spans = _layer_table(
            traced_run, fill_spans.spans, [c for _, c in fills], trace_dir
        )
        detail["tracing_overhead"] = traced_run.wall / runs[0].wall - 1.0
        out.detail["layers"] = detail
    return out
