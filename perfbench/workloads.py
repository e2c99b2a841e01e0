"""The benchmark's seeded inputs and the four workload runners.

Every input is generated here from the ``--seed`` argument; the program under
test only ever receives the generated workloads.  A workload is set up once
(:meth:`setup`, repeated to time set-up) and then replays *rounds*: one
round is one pass over the seeded trace, timed on the host.  Serving rounds
are identical to each other by construction, so their decision-trace
digests must agree; training rounds use a fresh pruning run each.

Serving arrivals are an open loop in *simulated* time: request ``i`` arrives
at ``i * interarrival_us``, at about 70% of the simulated fleet's capacity.
The host replays that trace as fast as it can.  Every engine uses
``charge_selection=False``, so decisions and simulated times do not depend
on host speed, and only host wall time varies from run to run.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro import runtime as rt
from repro.core import PlanCache, TileDB
from repro.hw import V100
from repro.hw.profiler import clear_profile_cache
from repro.models import bert_workload, switch_workload
from repro.models.workloads import longformer_workload, opt_inference_workload

#: Simulated batching window of every serving engine.
BATCH_WINDOW_US = 10_000.0
MAX_BATCH_TOKENS = 8192
MAX_BATCH_SIZE = 8

#: serve-warm: requests per round, replicas, and the arrival gap that puts
#: the 4 simulated V100s at about 70% utilisation.
WARM_REQUESTS = 400
WARM_REPLICAS = 4
WARM_GAP_US = 2650.0

#: serve-churn-chaos: requests per round (200+ so a p95 has 10 samples
#: beyond it), arrival gap, and a plan cache smaller than the working set.
CHURN_REQUESTS = 200
CHURN_REPLICAS = 4
CHURN_GAP_US = 3500.0
CHURN_CACHE_CAPACITY = 48
#: Retries are generous enough that no request fails terminally, and the
#: default deadline (simulated) is far beyond any latency the trace reaches.
CHURN_MAX_RETRIES = 6
CHURN_DEADLINE_US = 5e6

#: serve-cluster: the serve-warm mix through 2 worker processes.
CLUSTER_REQUESTS = 400
CLUSTER_REPLICAS = 2
CLUSTER_GAP_US = 5800.0

#: train-prune: a weight-sparse pruning ramp with drifting weights plus
#: 2:4 nm-sparse steps with a learned permutation policy, repeated for one
#: cold and three warm epochs on one plan cache.
TRAIN_SPARSITIES = (0.5, 0.7, 0.8, 0.9, 0.95, 0.98)
TRAIN_NM_SPARSITIES = (0.5, 0.9)
TRAIN_BLOCK = (32, 1)
TRAIN_SEED_STRIDE = 7
TRAIN_NM_PATTERN = (2, 4)
TRAIN_EPOCHS = 4
TRAIN_BATCH_TOKENS = 32 * 128


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def _rng(seed: int, stream: str) -> np.random.Generator:
    """A generator for one input stream of one seed."""
    tag = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "big")
    return np.random.default_rng([int(seed), tag])


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


@dataclass
class Trace:
    """A generated request stream and its simulated arrival gap."""

    workloads: list
    interarrival_us: float


def _stratified(rng: np.random.Generator, shares: dict, n: int) -> list:
    """Family labels in exact proportion to ``shares``, in seeded order.

    Fixed proportions keep the mix, and so the aggregate metrics, close
    across seeds; the seed still chooses the order and every variant.
    """
    labels = []
    for family, share in shares.items():
        labels += [family] * int(round(share * n))
    labels = labels[:n]
    labels += [next(iter(shares))] * (n - len(labels))
    return [labels[i] for i in rng.permutation(n)]


def _cycle(rng: np.random.Generator, variants: list, count: int) -> list:
    """``count`` picks that use every variant equally often, seeded order."""
    picks = [variants[i % len(variants)] for i in range(count)]
    return [picks[i] for i in rng.permutation(count)]


def warm_trace(seed: int, n: int = WARM_REQUESTS,
               gap_us: float = WARM_GAP_US) -> Trace:
    """The steady-state mix: a small pool of seeded variants per model, so
    the set of batch signatures is bounded and a warmed cache covers it."""
    rng = _rng(seed, "warm")
    pool = {
        "bert-mnli": [bert_workload("mnli", 4, seed=_seed(rng))
                      for _ in range(12)],
        "bert-cola": [bert_workload("cola", 4, seed=_seed(rng))
                      for _ in range(12)],
        "opt-act": [
            opt_inference_workload("125m", batch_size=2, act_sparsity=s,
                                   seed=_seed(rng))
            for s in (0.9, 0.95, 0.99) for _ in range(4)
        ],
        # One 16-sequence request per trace always exceeds 2048 tokens, so
        # every seed meets the largest activation-cover sample the PIT
        # backend draws, and peak memory does not depend on which batches
        # happen to merge.  Being one request, it stays beyond the p95.
        "opt-long": [opt_inference_workload("125m", batch_size=16,
                                            act_sparsity=0.95,
                                            seed=_seed(rng))],
        "switch": [switch_workload(16, batch_size=2, seed=_seed(rng))
                   for _ in range(12)],
        "longformer": [longformer_workload("base", seq_len=1024,
                                           seed=_seed(rng))
                       for _ in range(1)],
    }
    labels = _stratified(rng, {"bert-mnli": 0.25, "bert-cola": 0.2,
                               "opt-act": 0.245, "opt-long": 0.005,
                               "switch": 0.15, "longformer": 0.15}, n)
    picks = {family: iter(_cycle(rng, variants, labels.count(family)))
             for family, variants in pool.items()}
    return Trace([next(picks[family]) for family in labels], gap_us)


def churn_trace(seed: int, n: int = CHURN_REQUESTS) -> Trace:
    """High signature diversity: continuous OPT activation sparsity, varied
    MoE expert counts and routing, Longformer lengths from 512 to 2048."""
    rng = _rng(seed, "churn")
    labels = _stratified(rng, {"bert": 0.31, "opt": 0.3, "switch": 0.25,
                               "longformer": 0.14}, n)
    count = labels.count
    # OPT sparsities: one draw in each of count("opt") equal slices of
    # [0.5, 0.99), so every signature bucket is hit about equally often.
    n_opt = count("opt")
    slices = (np.arange(n_opt) + rng.random(n_opt)) / n_opt
    make = {
        "bert": iter(
            bert_workload(dataset, 4, seed=_seed(rng))
            for dataset in _cycle(rng, ["mnli", "cola"], count("bert"))
        ),
        "opt": iter(
            opt_inference_workload("125m", batch_size=2,
                                   act_sparsity=round(0.5 + 0.49 * s, 3),
                                   seed=_seed(rng))
            for s in rng.permutation(slices)
        ),
        "switch": iter(
            switch_workload(experts, batch_size=2, seed=_seed(rng))
            for experts in _cycle(rng, [8, 16, 32, 64], count("switch"))
        ),
        "longformer": iter(_cycle(rng, [
            longformer_workload("base", seq_len=length, seed=_seed(rng))
            for length in range(512, 2049, 256)
        ], count("longformer"))),
    }
    return Trace([next(make[family]) for family in labels], CHURN_GAP_US)


def cluster_trace(seed: int) -> Trace:
    """The serve-warm mix, at a rate for a 2-replica fleet."""
    return warm_trace(seed, n=CLUSTER_REQUESTS, gap_us=CLUSTER_GAP_US)


def chaos_config(seed: int, span_us: float) -> rt.ResilienceConfig:
    """The seeded chaos mix: transients, stragglers, failed searches (which
    degrade to dense plans) and one replica outage mid-trace."""
    fault = rt.FaultSpec(
        _seed(_rng(seed, "chaos")),
        transient_prob=0.08,
        straggler_prob=0.10,
        straggler_factor=1.5,
        search_fail_prob=0.05,
        outages=((1, 0.3 * span_us, 0.6 * span_us),),
    )
    return rt.ResilienceConfig(
        max_retries=CHURN_MAX_RETRIES,
        retry_backoff_us=400.0,
        default_deadline_us=CHURN_DEADLINE_US,
        fault=fault,
    )


def train_plan(seed: int, round_index: int) -> list:
    """One pruning run: ``(sparsity, seed, nm)`` per step, in step order."""
    base = _seed(_rng(seed, f"train-{round_index}"))
    steps = [
        (s, base + i * TRAIN_SEED_STRIDE, False)
        for i, s in enumerate(TRAIN_SPARSITIES)
    ]
    steps += [(s, base + 1000 + i, True)
              for i, s in enumerate(TRAIN_NM_SPARSITIES)]
    return steps


def _workload_summary(w) -> list:
    stats = w.attn_stats
    return [
        w.config.name,
        [int(x) for x in w.lengths],
        w.act_sparsity,
        w.seed,
        None if stats is None else [stats.seq, repr(stats.density)],
        {str(layer): [int(c) for c in np.asarray(r.counts)]
         for layer, r in sorted(w.routing_by_layer.items())},
    ]


def trace_digest(trace: Trace) -> str:
    """A stable hash of a serving trace's inputs."""
    body = [trace.interarrival_us] + [_workload_summary(w)
                                      for w in trace.workloads]
    return hashlib.sha256(json.dumps(body).encode()).hexdigest()


def _clear_tiledbs() -> None:
    """Drop the profiled tile databases, so set-up builds them again."""
    clear_profile_cache()
    TileDB.clear_shared()


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=repr).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
@dataclass
class Round:
    """What one measured round produced."""

    #: Host wall seconds of the measured call (worker spawn excluded).
    wall_s: float
    #: Digest of the round's decisions (serving) or pricing (training).
    digest: str
    attempted: int
    failed: int
    #: Batches executed (serving) or training steps priced.
    ops: int
    #: Summed simulated compute time, seconds.
    device_s: float
    #: Per-request simulated latency in ms (inf for a failed request), or
    #: per-step simulated latency for training.
    sim_latencies_ms: list
    sim_tokens_per_s: float
    counters: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def timed(recorder, fn):
    """Run ``fn`` with ``recorder`` recording; returns ``(result, wall_s)``
    with the recorder's muted spans (worker spawn) taken out."""
    muted = recorder.muted_s
    with recorder.active():
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
    return result, wall - (recorder.muted_s - muted)


def serving_round(report, requests, wall_s: float, evictions: int) -> Round:
    """Outcome of one serving round, with the request-accounting check."""
    problems = []
    submitted = sorted(r.request_id for r in requests)
    reported = sorted(r.request_id for r in report.requests)
    if reported != submitted:
        problems.append(
            f"{len(submitted)} requests submitted but {len(reported)} "
            f"reports ({len(set(reported))} distinct ids)"
        )
    unexplained = [r for r in report.requests
                   if not r.ok and not r.shed and not r.deadline_exceeded
                   and not r.error]
    if unexplained:
        problems.append(f"{len(unexplained)} failed requests have no outcome")
    failed = sum(1 for r in report.requests if not r.ok)
    latencies = [r.latency_us / 1e3 if r.ok else math.inf
                 for r in report.requests]
    failed_batches = {r.batch_id for r in report.requests
                      if not r.ok and not r.shed}
    attempts = len(report.batches) + report.retries + len(
        failed_batches - {b.batch_id for b in report.batches}
    )
    counters = {
        "batch_sizes": [b.size for b in report.batches],
        "queue_ms": [r.queue_us / 1e3 for r in report.requests if r.ok],
        "utilization": (
            float(np.mean([s.utilization for s in report.replica_stats]))
            if report.replica_stats else 0.0
        ),
        "evictions": evictions,
        "attempts": attempts,
        "retries": report.retries,
        "failovers": report.failovers,
        "deadline_exceeded": report.deadline_exceeded,
        "degraded_plans": report.degraded_plans,
    }
    return Round(
        wall_s=wall_s,
        digest=digest(rt.decision_trace(report, include_timing=True)),
        attempted=len(submitted),
        failed=failed,
        ops=len(report.batches),
        device_s=sum(b.compute_us for b in report.batches) / 1e6,
        sim_latencies_ms=latencies,
        sim_tokens_per_s=report.throughput_tokens_per_s,
        counters=counters,
        problems=problems,
    )


def _engine(cache, *, replicas, overlap_selection=True, resilience=None):
    return rt.ServingEngine(
        V100,
        max_batch_tokens=MAX_BATCH_TOKENS,
        max_batch_size=MAX_BATCH_SIZE,
        replicas=replicas,
        batch_window_us=BATCH_WINDOW_US,
        overlap_selection=overlap_selection,
        charge_selection=False,
        plan_cache=cache,
        resilience=resilience,
    )


class ServeWarm:
    """Steady state: the plan cache is warmed during set-up, so measured
    rounds pay no cold search; pricing and the plan-hit path do the work."""

    name = "serve-warm"
    kind = "serve"
    #: Probe span timing one batch (or step) for ``batch_host_ms_*``.
    op_span = "serving.execute_batch"
    #: Whether the cold searches are paid in set-up (a warmed cache).
    cold_in_setup = True

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.trace = warm_trace(self.seed)
        _clear_tiledbs()
        self.cache = PlanCache()
        engine = self._engine()
        engine.submit_many(self.trace.workloads,
                           interarrival_us=self.trace.interarrival_us)
        engine.run(policy="continuous")

    def _engine(self):
        return _engine(self.cache, replicas=WARM_REPLICAS)

    def run_round(self, index: int, recorder) -> Round:
        engine = self._engine()
        requests = engine.submit_many(
            self.trace.workloads, interarrival_us=self.trace.interarrival_us
        )
        evictions = self.cache.evictions
        report, wall = timed(recorder,
                             lambda: engine.run(policy="continuous"))
        return serving_round(report, requests, wall,
                             self.cache.evictions - evictions)

    def input_digest(self) -> str:
        return trace_digest(self.trace)


class ServeChurnChaos:
    """Dynamic sparsity under faults: every round starts from a fresh plan
    cache smaller than its working set, under the seeded chaos mix."""

    name = "serve-churn-chaos"
    kind = "serve"
    #: Probe span timing one batch (or step) for ``batch_host_ms_*``.
    op_span = "serving.execute_batch"
    #: Whether the cold searches are paid in set-up (a warmed cache).
    cold_in_setup = False

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.trace = churn_trace(self.seed)
        span_us = len(self.trace.workloads) * self.trace.interarrival_us
        self.resilience = chaos_config(self.seed, span_us)
        _clear_tiledbs()
        # Build the engine once so its tile database is profiled here.
        _engine(PlanCache(CHURN_CACHE_CAPACITY), replicas=CHURN_REPLICAS,
                resilience=self.resilience)

    def run_round(self, index: int, recorder) -> Round:
        cache = PlanCache(CHURN_CACHE_CAPACITY)
        engine = _engine(cache, replicas=CHURN_REPLICAS,
                         resilience=self.resilience)
        requests = engine.submit_many(
            self.trace.workloads, interarrival_us=self.trace.interarrival_us
        )
        report, wall = timed(recorder,
                             lambda: engine.run(policy="continuous"))
        return serving_round(report, requests, wall, cache.evictions)

    def input_digest(self) -> str:
        return trace_digest(self.trace)


class ServeCluster:
    """The warm mix through ``cluster_replay_trace`` with 2 worker
    processes.  Set-up warms the host's plan cache in process (the workers
    are seeded with it) and spawns the pool once; every cluster round must
    reproduce the decision digest of a warm in-process run."""

    name = "serve-cluster"
    kind = "serve"
    #: Probe span timing one batch (or step) for ``batch_host_ms_*``.
    op_span = "transport.request"
    #: Whether the cold searches are paid in set-up (a warmed cache).
    cold_in_setup = True

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.trace = cluster_trace(self.seed)
        _clear_tiledbs()
        self.cache = PlanCache()
        self._run_in_process()
        self.reference_digest = None
        frontend = rt.ClusterFrontend(
            self._engine(), clock=rt.VirtualClock(), inline_execution=True
        )
        frontend.start_workers()
        frontend.shutdown_workers()

    def _engine(self):
        return _engine(self.cache, replicas=CLUSTER_REPLICAS,
                       overlap_selection=False)

    def _run_in_process(self):
        engine = self._engine()
        engine.submit_many(self.trace.workloads,
                           interarrival_us=self.trace.interarrival_us)
        return engine.run(policy="continuous")

    def run_round(self, index: int, recorder) -> Round:
        if self.reference_digest is None:
            # The warm in-process run every cluster round must reproduce;
            # a check, so it runs outside set-up and outside the timing.
            self.reference_digest = digest(rt.decision_trace(
                self._run_in_process(), include_timing=True
            ))
        engine = self._engine()
        requests = engine.submit_many(
            self.trace.workloads, interarrival_us=self.trace.interarrival_us
        )
        evictions = self.cache.evictions
        report, wall = timed(
            recorder, lambda: rt.cluster_replay_trace(engine, requests)
        )
        out = serving_round(report, requests, wall,
                            self.cache.evictions - evictions)
        if out.digest != self.reference_digest:
            out.problems.append(
                "cluster decision digest differs from the in-process "
                "engine.run(policy='continuous') digest of the same trace"
            )
        return out

    def input_digest(self) -> str:
        return trace_digest(self.trace)


class TrainPrune:
    """A pruning run per round: one cold epoch, then warm epochs that must
    price bit-identically on the shared plan cache."""

    name = "train-prune"
    kind = "train"
    #: Probe span timing one batch (or step) for ``batch_host_ms_*``.
    op_span = "training.step"
    #: Whether the cold searches are paid in set-up (a warmed cache).
    cold_in_setup = False

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        _clear_tiledbs()
        TileDB.shared(V100, "float32")
        # A warm-up step on a throwaway cache, with weights no round uses:
        # the first pruning step of a process pays lazy set-up once.
        sparsity, seed, _ = train_plan(self.seed, -1)[0]
        rt.sparse_training_step(
            "pit", V100, block=TRAIN_BLOCK, sparsity=sparsity,
            batch_tokens=TRAIN_BATCH_TOKENS, seed=seed, plan_cache=PlanCache(),
        )

    def _epoch(self, steps, cache) -> list:
        weight = [(s, seed) for s, seed, nm in steps if not nm]
        reports = rt.sparse_training_run(
            "pit", V100,
            sparsities=[s for s, _ in weight],
            block=TRAIN_BLOCK,
            batch_tokens=TRAIN_BATCH_TOKENS,
            seed=weight[0][1],
            seed_stride=TRAIN_SEED_STRIDE,
            plan_cache=cache,
        )
        for sparsity, seed, nm in steps:
            if nm:
                reports.append(rt.sparse_training_step(
                    "pit", V100,
                    block=TRAIN_BLOCK,
                    sparsity=sparsity,
                    batch_tokens=TRAIN_BATCH_TOKENS,
                    seed=seed,
                    plan_cache=cache,
                    pattern=TRAIN_NM_PATTERN,
                    permutation=("learned", 2, seed),
                ))
        return reports

    def run_round(self, index: int, recorder) -> Round:
        steps = train_plan(self.seed, index)
        cache = PlanCache()
        epochs, wall = timed(
            recorder,
            lambda: [self._epoch(steps, cache) for _ in range(TRAIN_EPOCHS)],
        )
        cold = epochs[0]
        problems = []
        cold_latencies = [r.latency_ms for r in cold]
        for number, epoch in enumerate(epochs[1:], start=1):
            if [r.latency_ms for r in epoch] != cold_latencies:
                problems.append(
                    f"warm epoch {number} priced differently from the cold "
                    f"epoch (round {index})"
                )
        reports = [r for epoch in epochs for r in epoch]
        latencies = [r.latency_ms for r in reports]
        device_s = sum(latencies) / 1e3
        return Round(
            wall_s=wall,
            digest=digest([[r.latency_ms, r.plan_misses, r.plan_hits]
                           for r in reports]),
            attempted=len(reports),
            failed=0,
            ops=len(reports),
            device_s=device_s,
            sim_latencies_ms=latencies,
            sim_tokens_per_s=TRAIN_BATCH_TOKENS * len(reports) / device_s,
            counters={
                "cold_misses": sum(r.plan_misses for r in cold),
                "warm_misses": sum(r.plan_misses for epoch in epochs[1:]
                                   for r in epoch),
                "plan_hits": sum(r.plan_hits for r in reports),
                "plan_misses": sum(r.plan_misses for r in reports),
                "search_ms": sum(r.search_us for r in reports) / 1e3,
                "evictions": cache.evictions,
            },
            problems=problems,
        )

    def input_digest(self) -> str:
        return digest([train_plan(self.seed, r) for r in range(4)])


WORKLOADS = {
    cls.name: cls for cls in (ServeWarm, ServeChurnChaos, TrainPrune,
                              ServeCluster)
}
