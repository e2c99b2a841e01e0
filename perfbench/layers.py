"""Where the benchmark wraps the program, and the per-layer metrics.

:data:`PROBES` are installed in every run: they time the few calls the
end-to-end metrics need (one batch, one cluster round trip, one training
step, one plan resolve) and mark worker spawn so it stays out of the
measured time.  :data:`SPANS` adds the rest of the layer boundaries for the
traced run.  Layer names follow the modules of ``src/repro``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from spans import Point

R = "repro.runtime"


def _hit_or_miss(result, kids) -> str:
    return "hit" if result.cache_hit else "miss"


def _priced(result, kids) -> str:
    """An exec-time estimate misses its memo when it had to price a run."""
    return "miss" if "pricing.run_transformer" in kids else "hit"


PROBES = (
    Point(f"{R}.serving:ServingEngine.execute_batch",
          "serving.execute_batch", "serving", group_root=True),
    Point("repro.core.plan:Planner.resolve", "plan.resolve", "plan",
          tag=_hit_or_miss),
    Point(f"{R}.cluster.worker:WorkerProcess.request",
          "transport.request", "transport", group_root=True),
    Point(f"{R}.cluster.frontend:ClusterFrontend.start_workers",
          "cluster.start_workers", "lifecycle", mute=True),
    Point(f"{R}.cluster.frontend:ClusterFrontend.shutdown_workers",
          "cluster.shutdown_workers", "lifecycle", mute=True),
    Point(f"{R}.training:sparse_training_step", "training.step", "training",
          group_root=True),
)

_SCHEDULER = tuple(
    Point(f"{R}.scheduler:SchedulingPolicy.{method}",
          f"scheduler.{method}", "scheduler")
    for method in ("admit", "place", "account", "account_failure",
                   "close_due", "flush")
)

_COLD_PYRAMID = tuple(
    Point(f"repro.core.cover:{target}", "plan.cold.pyramid", "selection",
          export=False, cold_only=True)
    for target in ("SampleStack.__init__", "SampleStack.prime",
                   "SampleStack.num_microtiles", "SampleStack.grid_cells",
                   "CoverCache.grid")
)

SPANS = PROBES + _SCHEDULER + _COLD_PYRAMID + (
    Point(f"{R}.scheduler:ContinuousScheduler.run", "scheduler.run",
          "scheduler"),
    Point(f"{R}.serving:ServingEngine.speculate_plans", "serving.speculate",
          "serving", group_root=True),
    Point(f"{R}.serving:ServingEngine.estimate_exec_us", "serving.estimate",
          "serving", tag=_priced),
    Point(f"{R}.serving:merge_workloads", "serving.merge", "serving"),
    Point("repro.core.plan:Planner.memo", "plan.memo", "plan"),
    Point("repro.core.selection:kernel_selection", "plan.cold.search",
          "selection", cold=True),
    Point("repro.core.selection:nm_kernel_selection", "plan.cold.nm",
          "selection", cold=True),
    Point("repro.core.cover:batched_matmul_workload", "plan.cold.workload",
          "selection", export=False, cold_only=True),
    Point("repro.hw.costmodel:sparse_matmul_time_us", "plan.cold.costmodel",
          "selection", export=False, cold_only=True),
    Point("repro.core.detector:index_construction_time_us",
          "plan.cold.costmodel", "selection", export=False, cold_only=True),
    Point("repro.sparsity.masks:nm_prune_mask", "sparsity.nm_prune",
          "sparsity", export=False, cold_name="plan.cold.nm_project",
          cold_layer="selection"),
    Point("repro.sparsity.masks:MagnitudePruner.mask",
          "sparsity.magnitude_mask", "sparsity"),
    Point(f"{R}.engine:run_transformer", "pricing.run_transformer",
          "pricing"),
    Point("repro.baselines.pit_backend:PITBackend.linear",
          "pit_backend.linear", "pricing", export=False),
    Point("repro.core.tiledb:TileDB.best_dense_tile",
          "tiledb.best_dense_tile", "tiledb", export=False),
    Point(f"{R}.cluster.frontend:cluster_replay_trace",
          "frontend.cluster_replay_trace", "frontend"),
    Point(f"{R}.cluster.codec:encode_wire", "codec.encode", "codec",
          reentrant=False),
    Point(f"{R}.cluster.codec:decode_wire", "codec.decode", "codec",
          reentrant=False),
    Point(f"{R}.cluster.transport:Channel.send", "transport.send",
          "transport", keep_arg=1),
    Point(f"{R}.cluster.transport:Channel.recv", "transport.recv",
          "transport"),
)

#: Layers whose self times partition the traced wall time (with the
#: unattributed rest).
LAYERS = ("scheduler", "serving", "plan", "selection", "pricing", "tiledb",
          "frontend", "codec", "transport", "training", "sparsity")

#: ``(name, unit)`` of every per-layer metric, in report order.  Counts and
#: times are per measured round.
PER_LAYER = (
    ("scheduler.calls", "count"),
    ("scheduler.self_ms", "ms"),
    ("scheduler.batch_size_mean", "req/batch"),
    ("scheduler.sim_queue_ms_p50", "ms"),
    ("scheduler.utilization", "fraction"),
    ("serving.execute_self_ms", "ms"),
    ("serving.speculate_ms", "ms"),
    ("serving.estimate_calls", "count"),
    ("serving.estimate_misses", "count"),
    ("serving.estimate_ms", "ms"),
    ("serving.merge_ms", "ms"),
    ("plan.resolve_calls", "count"),
    ("plan.hit_us_p50", "us"),
    ("plan.hit_rate", "fraction"),
    ("plan.evictions", "count"),
    ("plan.self_ms", "ms"),
    ("plan.memo_calls", "count"),
    ("plan.misses", "count"),
    ("plan.cold_ms", "ms"),
    ("plan.cold.search_self_ms", "ms"),
    ("plan.cold.pyramid_ms", "ms"),
    ("plan.cold.workload_ms", "ms"),
    ("plan.cold.costmodel_ms", "ms"),
    ("plan.cold.nm_ms", "ms"),
    ("pricing.calls", "count"),
    ("pricing.self_ms", "ms"),
    ("pricing.us_p50", "us"),
    ("tiledb.best_dense_tile_calls", "count"),
    ("tiledb.best_dense_tile_ms", "ms"),
    ("pit_backend.linear_calls", "count"),
    ("frontend.self_ms", "ms"),
    ("codec.encode_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("codec.bytes_per_frame", "bytes"),
    ("transport.frames", "count"),
    ("transport.send_ms", "ms"),
    ("transport.recv_wait_ms", "ms"),
    ("transport.round_trip_ms_p50", "ms"),
    ("resilience.attempts", "count"),
    ("resilience.retries", "count"),
    ("resilience.failovers", "count"),
    ("resilience.deadline_exceeded", "count"),
    ("resilience.degraded_plans", "count"),
    ("resilience.useful_attempt_frac", "fraction"),
    ("training.step_self_ms", "ms"),
    ("training.plan_hits", "count"),
    ("training.plan_misses", "count"),
    ("training.warm_plan_misses", "count"),
    ("training.search_ms", "ms"),
    ("sparsity.mask_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
    ("trace.wall_ms", "ms"),
) + tuple((f"share.{layer}", "fraction") for layer in LAYERS) + (
    ("calib.numpy_ms", "ms"),
    ("calib.python_ms", "ms"),
)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; ``inf`` entries count as misses."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def layer_metrics(rec, rounds: list, *, untraced_round_s: float,
                  calib: dict) -> dict:
    """Per-layer metrics of a traced phase, per measured round.

    ``rec`` holds the traced rounds' spans; ``rounds`` their outcomes.
    ``untraced_round_s`` is the median untraced round wall time, the base of
    ``trace.overhead_frac``.
    """
    n = max(1, len(rounds))
    wall_s = sum(r.wall_s for r in rounds)
    ms = 1e3 / n

    def calls(*names):
        return sum(rec.calls(name) for name in names) / n

    def self_ms(*names):
        return sum(rec.self_s(name) for name in names) * ms

    def incl_ms(*names):
        return sum(rec.inclusive_s(name) for name in names) * ms

    def layer_ms(layer):
        return rec.layer_self.get(layer, 0.0) * ms

    counters = [r.counters for r in rounds]

    def total(key):
        return sum(c.get(key, 0) for c in counters) / n

    batch_sizes = [s for c in counters for s in c.get("batch_sizes", [])]
    queue_ms = [q for c in counters for q in c.get("queue_ms", [])]
    resolves = calls("plan.resolve.hit", "plan.resolve.miss")
    frames = [json.dumps(message, separators=(",", ":"), sort_keys=True)
              for _, message in rec.kept]
    attempts = total("attempts")
    traced_round_s = float(np.median([r.wall_s for r in rounds]))

    metrics = {
        "scheduler.calls": calls(*(p.name for p in _SCHEDULER)),
        "scheduler.self_ms": layer_ms("scheduler"),
        "scheduler.batch_size_mean": (
            float(np.mean(batch_sizes)) if batch_sizes else 0.0
        ),
        "scheduler.sim_queue_ms_p50": percentile(queue_ms, 50),
        "scheduler.utilization": total("utilization"),
        "serving.execute_self_ms": self_ms("serving.execute_batch"),
        "serving.speculate_ms": self_ms("serving.speculate"),
        "serving.estimate_calls": calls("serving.estimate.hit",
                                        "serving.estimate.miss"),
        "serving.estimate_misses": calls("serving.estimate.miss"),
        "serving.estimate_ms": self_ms("serving.estimate.hit",
                                       "serving.estimate.miss"),
        "serving.merge_ms": self_ms("serving.merge"),
        "plan.resolve_calls": resolves,
        "plan.hit_us_p50": percentile(rec.durations("plan.resolve.hit"),
                                      50) * 1e6,
        "plan.hit_rate": calls("plan.resolve.hit") / resolves
        if resolves else 0.0,
        "plan.evictions": total("evictions"),
        "plan.self_ms": layer_ms("plan"),
        "plan.memo_calls": calls("plan.memo"),
        "plan.misses": calls("plan.resolve.miss"),
        "plan.cold_ms": incl_ms("plan.cold.search", "plan.cold.nm"),
        "plan.cold.search_self_ms": self_ms("plan.cold.search"),
        "plan.cold.pyramid_ms": self_ms("plan.cold.pyramid"),
        "plan.cold.workload_ms": self_ms("plan.cold.workload"),
        "plan.cold.costmodel_ms": self_ms("plan.cold.costmodel"),
        "plan.cold.nm_ms": self_ms("plan.cold.nm", "plan.cold.nm_project"),
        "pricing.calls": calls("pricing.run_transformer"),
        "pricing.self_ms": layer_ms("pricing"),
        "pricing.us_p50": percentile(
            rec.durations("pricing.run_transformer"), 50) * 1e6,
        "tiledb.best_dense_tile_calls": calls("tiledb.best_dense_tile"),
        "tiledb.best_dense_tile_ms": self_ms("tiledb.best_dense_tile"),
        "pit_backend.linear_calls": calls("pit_backend.linear"),
        "frontend.self_ms": layer_ms("frontend"),
        "codec.encode_ms": incl_ms("codec.encode"),
        "codec.decode_ms": incl_ms("codec.decode"),
        "codec.bytes_per_frame": (
            float(np.mean([len(f) for f in frames])) if frames else 0.0
        ),
        "transport.frames": calls("transport.send"),
        "transport.send_ms": incl_ms("transport.send"),
        "transport.recv_wait_ms": incl_ms("transport.recv"),
        "transport.round_trip_ms_p50": percentile(
            rec.durations("transport.request"), 50) * 1e3,
        "resilience.attempts": attempts,
        "resilience.retries": total("retries"),
        "resilience.failovers": total("failovers"),
        "resilience.deadline_exceeded": total("deadline_exceeded"),
        "resilience.degraded_plans": total("degraded_plans"),
        "resilience.useful_attempt_frac": (
            sum(r.ops for r in rounds) / n / attempts if attempts else 0.0
        ),
        "training.step_self_ms": self_ms("training.step"),
        "training.plan_hits": total("plan_hits"),
        "training.plan_misses": total("plan_misses"),
        "training.warm_plan_misses": total("warm_misses"),
        "training.search_ms": total("search_ms"),
        "sparsity.mask_ms": layer_ms("sparsity"),
        "trace.overhead_frac": (
            traced_round_s / untraced_round_s - 1.0
            if untraced_round_s > 0 else 0.0
        ),
        "trace.unattributed_frac": (
            (wall_s - rec.root_s) / wall_s if wall_s > 0 else 0.0
        ),
        "trace.wall_ms": wall_s * ms,
        "calib.numpy_ms": calib["numpy_ms"],
        "calib.python_ms": calib["python_ms"],
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = (
            rec.layer_self.get(layer, 0.0) / wall_s if wall_s > 0 else 0.0
        )
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"per-layer metric {name} is {value}")
    return metrics
