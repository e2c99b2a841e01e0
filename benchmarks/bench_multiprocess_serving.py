"""Multiprocess serving: the worker pool must pay its way.

The cluster frontend (`repro.runtime.cluster`) moves batch execution into
real OS processes.  Three gates:

1. **Throughput**: on a CPU-bound trace over ``REPLICAS`` replicas, the
   process pool must reach at least ``SPEEDUP_GATE``x the throughput of
   the threaded front end, whose Python-level plan searches and pricing
   serialize on the GIL.  Worker startup (engine build, TileDB profile)
   is excluded from both timings.  The multiplier is only enforced when
   the machine actually has the cores (``os.cpu_count() >= REPLICAS``);
   on smaller hosts it is reported and skipped, loudly.
2. **Plan-cache sync**: serving the same workload through a 4-worker
   fleet must pay exactly as many cold plan searches as a single-worker
   fleet — the cache-delta broadcast makes N private caches behave like
   one, with zero duplicate searches.
3. **Decision equivalence**: ``cluster_replay_trace`` over real worker
   processes is bit-identical (timings included, under
   ``charge_selection=False``) to ``engine.run(policy="continuous")`` in
   one process on the same seeded trace — crossing a process boundary
   changed nothing the policy can observe.

Each run appends a record to the cumulative ``BENCH_serving.json``
trajectory so future PRs can regress against the history.

Run:  PYTHONPATH=src python benchmarks/bench_multiprocess_serving.py
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from pathlib import Path

from repro.hw import V100
from repro.models import bert_workload, switch_workload
from repro.models.workloads import (
    longformer_workload,
    museformer_workload,
    opt_inference_workload,
)
from repro.runtime import (
    AsyncServingFrontend,
    ClusterFrontend,
    ServingEngine,
    cluster_replay_trace,
    decision_trace,
    serve_cluster,
)

OUT_PATH = Path("BENCH_serving.json")

REPLICAS = 4
NUM_REQUESTS = 16
SPEEDUP_GATE = 1.5


def make_engine(replicas=REPLICAS, **kwargs):
    defaults = dict(
        max_batch_tokens=8192,
        max_batch_size=2,
        batch_window_us=1500.0,
        enforce_memory=False,
        replicas=replicas,
        overlap_selection=False,
        charge_selection=False,
    )
    defaults.update(kwargs)
    return ServingEngine(V100, **defaults)


def cpu_bound_trace(n=NUM_REQUESTS):
    """A trace of mostly-distinct batch signatures.

    Every new signature costs a cold plan search — pure-Python Algorithm 1
    work that serializes threads on the GIL but parallelizes across worker
    processes.  Four families with varied shapes give well over 12
    distinct signatures across the trace.
    """
    workloads = []
    for i in range(n):
        family, variant = i % 4, i // 4
        if family == 0:
            workloads.append(
                switch_workload((8, 16, 32, 64)[variant % 4],
                                batch_size=2, seed=i)
            )
        elif family == 1:
            workloads.append(
                longformer_workload(
                    "base", seq_len=512 * (1 + variant % 4), seed=i
                )
            )
        elif family == 2:
            # Big decoders: their cold plan searches are the most
            # expensive pure-Python work in the trace, exactly what the
            # GIL serializes and worker processes parallelize.
            size, sparsity = (
                ("125m", 0.90),
                ("350m", 0.95),
                ("1.3b", 0.99),
                ("350m", 0.80),
            )[variant % 4]
            workloads.append(
                opt_inference_workload(
                    size, batch_size=2, act_sparsity=sparsity, seed=i
                )
            )
        else:
            workloads.append(
                museformer_workload(
                    seq_len=1024 * (1 + variant % 2), seed=i
                )
            )
    return workloads


async def _timed_threaded(engine, workloads):
    frontend = AsyncServingFrontend(engine)
    await frontend.start()
    begin = time.perf_counter()
    futures = [await frontend.submit(w) for w in workloads]
    await frontend.drain()
    await asyncio.gather(*futures)
    elapsed = time.perf_counter() - begin
    await frontend.stop()
    return frontend.report(), elapsed


async def _timed_cluster(engine, workloads):
    frontend = ClusterFrontend(engine)
    # start() spawns the workers and blocks on their readiness pings, so
    # engine construction inside each process stays out of the timing.
    await frontend.start()
    begin = time.perf_counter()
    futures = [await frontend.submit(w) for w in workloads]
    await frontend.drain()
    await asyncio.gather(*futures)
    elapsed = time.perf_counter() - begin
    await frontend.stop()
    return frontend.report(), elapsed


def distinct_signatures(trace):
    """Distinct admission signatures across the trace's requests."""
    probe = make_engine(replicas=1)
    requests = probe.submit_many(trace)
    quantum = probe.plan_cache.quantum
    return len({r.batch_signature(quantum) for r in requests})


def append_trajectory(record: dict) -> None:
    runs = []
    if OUT_PATH.exists():
        try:
            runs = json.loads(OUT_PATH.read_text())
        except (ValueError, OSError):
            runs = []
        if not isinstance(runs, list):
            runs = []
    runs.append(record)
    OUT_PATH.write_text(json.dumps(runs, indent=2))


def main():
    failures = []
    cores = os.cpu_count() or 1

    # --- Gate 1: process pool beats the GIL on a CPU-bound trace ----------
    # Best of two runs each: cold caches every time (fresh engines), but
    # scheduler noise on shared CI runners is damped.
    trace = cpu_bound_trace()
    threaded_report, threaded_s = min(
        (asyncio.run(_timed_threaded(make_engine(), trace)) for _ in range(2)),
        key=lambda pair: pair[1],
    )
    cluster_report, cluster_s = min(
        (asyncio.run(_timed_cluster(make_engine(), trace)) for _ in range(2)),
        key=lambda pair: pair[1],
    )
    for label, report in (
        ("threaded", threaded_report),
        ("cluster", cluster_report),
    ):
        if len(report.requests) != NUM_REQUESTS or not all(
            r.ok for r in report.requests
        ):
            failures.append(f"{label} run did not serve every request")
    speedup = threaded_s / cluster_s if cluster_s > 0 else 0.0
    enforce = cores >= REPLICAS
    if enforce and speedup < SPEEDUP_GATE:
        failures.append(
            f"throughput: process pool at {speedup:.2f}x the threaded "
            f"front end (need >= {SPEEDUP_GATE}x on {cores} cores)"
        )
    print(
        f"throughput gate: threaded {threaded_s * 1e3:.0f} ms vs "
        f"cluster {cluster_s * 1e3:.0f} ms -> {speedup:.2f}x "
        + (
            f"(gate >= {SPEEDUP_GATE}x)"
            if enforce
            else f"(SKIPPED: only {cores} core(s); gate needs {REPLICAS})"
        )
    )
    signatures = distinct_signatures(cpu_bound_trace())
    if signatures < 12:
        failures.append(
            f"trace too uniform: {signatures} distinct request signatures "
            f"(need >= 12 for a meaningful CPU-bound gate)"
        )
    print(f"trace: {signatures} distinct request signatures over "
          f"{len(threaded_report.batches)} batches")

    # --- Gate 2: N workers, one process's worth of cold searches ----------
    workload = bert_workload("mnli", 2, seed=0)
    single = serve_cluster(
        make_engine(replicas=1, max_batch_size=1), [workload] * 8
    )
    fleet = serve_cluster(
        make_engine(replicas=REPLICAS, max_batch_size=1), [workload] * 8
    )
    single_misses = sum(b.cache_misses for b in single.batches)
    fleet_misses = sum(b.cache_misses for b in fleet.batches)
    if fleet_misses != single_misses:
        failures.append(
            f"plan sync: {REPLICAS}-worker fleet paid {fleet_misses} cold "
            f"searches vs {single_misses} for one worker (duplicates "
            f"survived the cache-delta sync)"
        )
    print(
        f"plan-sync gate: {fleet_misses} cold searches across "
        f"{REPLICAS} workers vs {single_misses} in one process"
    )

    # --- Gate 3: decisions identical to the simulated scheduler -----------
    sim_engine = make_engine()
    sim_engine.submit_many(cpu_bound_trace(), interarrival_us=400.0)
    simulated = sim_engine.run(policy="continuous")
    clu_engine = make_engine()
    requests = clu_engine.submit_many(cpu_bound_trace(), interarrival_us=400.0)
    replayed = cluster_replay_trace(clu_engine, requests)
    equivalent = decision_trace(simulated, include_timing=True) == (
        decision_trace(replayed, include_timing=True)
    )
    if not equivalent:
        failures.append(
            "equivalence: worker processes forked the decision trace from "
            "the simulated scheduler"
        )
    print(
        f"equivalence gate: simulated vs cluster replay -> "
        f"{'decision-identical' if equivalent else 'DIVERGED'} "
        f"({len(replayed.batches)} batches)"
    )

    append_trajectory(
        {
            "bench": "multiprocess_serving",
            "timestamp": time.time(),
            "requests": NUM_REQUESTS,
            "replicas": REPLICAS,
            "cores": cores,
            "threaded_s": threaded_s,
            "cluster_s": cluster_s,
            "speedup": speedup,
            "speedup_enforced": enforce,
            "distinct_signatures": signatures,
            "fleet_cold_searches": fleet_misses,
            "single_cold_searches": single_misses,
            "replay_equivalent": equivalent,
            "ok": not failures,
        }
    )
    print(f"trajectory: appended run record to {OUT_PATH}")

    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))
    print("OK: multiprocess serving gates hold")


if __name__ == "__main__":
    main()
