"""The repository benchmark: host wall time of the PIT reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 10 --trace 0

One process runs one workload (see ``perfbench/README.md``).  It times a
fixed calibration loop, sets the workload up several times, replays its
seeded trace in rounds for ``--seconds`` and checks the outputs.  With
``--trace 0`` the last stdout line is a JSON object whose ``metrics`` are
the end-to-end metrics.  With ``--trace 1`` half the time runs untraced and
half traced, and the metrics are the per-layer ones; the spans are written
to ``perfbench/out/`` as Chrome trace-event JSON.  Any failed check makes
the exit code nonzero.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Set-up runs at least this many times and for at least this long;
#: ``setup_s`` is the median.
SETUP_REPS = 3
SETUP_MIN_S = 0.5

#: ``(name, unit)`` of the end-to-end metrics, reported with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("requests_per_s", "req/s"),
    ("steps_per_s", "steps/s"),
    ("batch_host_ms_p50", "ms"),
    ("batch_host_ms_p95", "ms"),
    ("step_host_ms_p50", "ms"),
    ("host_device_ratio", "us/us"),
    ("cold_search_ms_p50", "ms"),
    ("sim_latency_ms_p50", "ms"),
    ("sim_latency_ms_p95", "ms"),
    ("sim_tokens_per_s", "tok/s"),
    ("peak_rss_mb", "MB"),
)


def import_program() -> None:
    """Put the checkout's ``src`` on the path, or exit if there is none."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {src / 'repro'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def calibrate() -> dict:
    """A fixed numpy and pure-Python loop, timed on this machine.

    Recorded beside the results so trajectories from different machines can
    be normalised; nothing is gated on it.
    """
    import numpy as np

    # Boolean-mask pooling and reductions, the array work cover grids do
    # (no BLAS call, whose thread pool varies by machine).
    mask = np.random.default_rng(0).random((512, 512)) < 0.1
    start = time.perf_counter()
    for tile in (2, 4, 8, 16, 32) * 4:
        pooled = mask.reshape(512 // tile, tile, 512 // tile, tile)
        np.cumsum(pooled.any(axis=(1, 3)).sum(axis=0))
    numpy_ms = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += (i * i) % 7
    python_ms = (time.perf_counter() - start) * 1e3
    return {"numpy_ms": numpy_ms, "python_ms": python_ms}


def run_rounds(workload, recorder, seconds: float, first_index: int = 0):
    """Replay rounds until ``seconds`` have passed (at least one round)."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(
            workload.run_round(first_index + len(rounds), recorder)
        )
    return rounds


def end_to_end(workload, rounds, probes, setup_s, search_ms) -> dict:
    from layers import percentile

    op_ms = [d * 1e3 for d in probes.durations(workload.op_span)]
    if workload.kind == "train":
        latencies = [x for r in rounds for x in r.sim_latencies_ms]
    else:
        latencies = rounds[0].sim_latencies_ms
    return {
        "setup_s": statistics.median(setup_s),
        "requests_per_s": statistics.median((r.attempted - r.failed)
                                            / r.wall_s for r in rounds),
        "steps_per_s": statistics.median(r.ops / r.wall_s for r in rounds),
        "batch_host_ms_p50": percentile(op_ms, 50),
        "batch_host_ms_p95": percentile(op_ms, 95),
        "step_host_ms_p50": percentile(op_ms, 50),
        "host_device_ratio": statistics.median(r.wall_s / r.device_s
                                               for r in rounds),
        # Set-up searches are few and of mixed plan kinds, so their median
        # jumps between kinds with the seed; their mean does not.
        "cold_search_ms_p50": (statistics.mean(search_ms)
                               if workload.cold_in_setup
                               else percentile(search_ms, 50)),
        "sim_latency_ms_p50": percentile(latencies, 50),
        "sim_latency_ms_p95": percentile(latencies, 95),
        "sim_tokens_per_s": statistics.median(
            r.sim_tokens_per_s for r in rounds
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def job_checks(workload, rounds, probes) -> list:
    """Each workload must exercise what it was chosen for."""
    problems = []
    counters = [r.counters for r in rounds]
    misses = probes.calls("plan.resolve.miss")
    if workload.name == "serve-warm" and misses:
        problems.append(f"serve-warm paid {misses} cold searches after "
                        f"warm-up (expected 0)")
    if workload.name == "serve-churn-chaos":
        for key, value in (
            ("plan misses", misses),
            ("plan evictions", sum(c["evictions"] for c in counters)),
            ("retries", sum(c["retries"] for c in counters)),
        ):
            if value <= 0:
                problems.append(f"serve-churn-chaos had no {key}")
    if workload.name == "train-prune":
        if any(c["cold_misses"] <= 0 for c in counters):
            problems.append("a train-prune cold epoch paid no search")
        if any(c["warm_misses"] for c in counters):
            problems.append("a train-prune warm epoch paid a search")
    if workload.name == "serve-cluster" and not probes.calls(
        "transport.request"
    ):
        problems.append("serve-cluster made no worker round trip")
    return problems


def trace_checks(workload, tracer, traced_rounds) -> list:
    from layers import LAYERS

    problems = []
    stray = set(tracer.layer_self) - set(LAYERS)
    if stray:
        problems.append(f"spans in unaccounted layers: {sorted(stray)}")
    wall = sum(r.wall_s for r in traced_rounds)
    accounted = sum(tracer.layer_self.values()) + (wall - tracer.root_s)
    if abs(accounted - wall) > 1e-6 * max(1.0, wall):
        problems.append(
            f"layer self times and unattributed time cover {accounted:.6f}s "
            f"of {wall:.6f}s traced wall time"
        )
    pricing = (tracer.layer_self.get("pricing", 0.0)
               + tracer.layer_self.get("tiledb", 0.0))
    planning = (tracer.layer_self.get("plan", 0.0)
                + tracer.layer_self.get("selection", 0.0))
    if workload.name == "serve-warm":
        if tracer.calls("plan.resolve.miss"):
            problems.append("traced serve-warm paid cold searches")
        if not pricing > planning:
            problems.append(
                f"serve-warm pricing self time {pricing:.3f}s does not "
                f"exceed planning's {planning:.3f}s"
            )
    if workload.name == "serve-cluster" and not tracer.calls(
        "transport.send"
    ):
        problems.append("serve-cluster sent no frames")
    return problems


def fmt(value: float) -> str:
    return f"{value:.6g}" if math.isfinite(value) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from layers import PER_LAYER, PROBES, SPANS, layer_metrics
    from spans import SpanRecorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload](args.seed)
    calib = calibrate()

    probes = SpanRecorder(PROBES)
    with probes.installed():
        setup_s = []
        while len(setup_s) < SETUP_REPS or sum(setup_s) < SETUP_MIN_S:
            with probes.active():
                start = time.perf_counter()
                workload.setup()
                setup_s.append(time.perf_counter() - start)
        search_ms = [d * 1e3 for d in probes.durations("plan.resolve.miss")]
        probes.reset()
        budget = args.seconds / 2 if args.trace else args.seconds
        rounds = run_rounds(workload, probes, budget)
    if not workload.cold_in_setup:
        search_ms = [d * 1e3 for d in probes.durations("plan.resolve.miss")]
    metrics = end_to_end(workload, rounds, probes, setup_s, search_ms)

    problems = [p for r in rounds for p in r.problems]
    problems += job_checks(workload, rounds, probes)
    traced, tracer = [], None
    if args.trace:
        tracer = SpanRecorder(SPANS)
        with tracer.installed():
            # Training rounds are fresh pruning runs; serving rounds repeat
            # one trace, so the traced ones start again from round 0.
            first = len(rounds) if workload.kind == "train" else 0
            traced = run_rounds(workload, tracer, args.seconds / 2, first)
        problems += [p for r in traced for p in r.problems]
        problems += trace_checks(workload, tracer, traced)
    if workload.kind == "serve":
        digests = {r.digest for r in rounds + traced}
        if len(digests) != 1:
            problems.append(
                f"{len(digests)} distinct decision digests across the timed "
                f"and traced rounds of one seed (expected 1)"
            )
    # Every run has a round 0, so its digest compares across commits.
    run_digest = rounds[0].digest

    every = rounds + traced
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    searches = len(search_ms)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(rounds)} timed + {len(traced)} traced rounds, "
          f"{attempted} operations, {failed} failed")
    for name, unit in END_TO_END:
        print(f"  {name:<24} {fmt(metrics[name]):>12} {unit}")
    print(f"  {'failed_frac':<24} {fmt(failed / attempted):>12} fraction")
    p95 = (fmt(statistics.quantiles(search_ms, n=20)[-1])
           if searches >= 200 else "n/a")
    print(f"  {'cold_search_ms_p95':<24} {p95:>12} ms "
          f"({searches} cold searches)")
    print(f"calibration: numpy {calib['numpy_ms']:.2f} ms, "
          f"python {calib['python_ms']:.2f} ms")
    print(f"digest {workload.name} seed={args.seed}: decisions={run_digest} "
          f"inputs={workload.input_digest()}")

    result = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "calibration": calib,
              "end_to_end": metrics, "digest": run_digest,
              "problems": problems}
    units = dict(END_TO_END)
    if tracer is not None:
        per_layer = layer_metrics(
            tracer, traced,
            untraced_round_s=statistics.median(r.wall_s for r in rounds),
            calib=calib,
        )
        result["per_layer"] = per_layer
        units = dict(PER_LAYER)
        reported = per_layer
        for name, unit in PER_LAYER:
            print(f"  {name:<30} {fmt(per_layer[name]):>12} {unit}")
    else:
        reported = metrics
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if tracer is not None:
        (OUT_DIR / f"{stem}.trace.json").write_text(
            json.dumps(tracer.chrome_trace())
        )
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in reported.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
