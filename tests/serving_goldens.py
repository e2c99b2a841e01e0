"""Golden serving decisions the virtual-time serving loop must reproduce.

Each ``fixtures/serving/<case>.json`` was written by the event-heap
``ContinuousScheduler`` that ``engine.run(policy="continuous")`` drove at
commit 2845d96, on the engine and trace the named test module builds for
that case.  The heap loop is gone; every serving driver now runs
``AsyncServingFrontend.replay``, and these files are the reference it is
held to.
"""

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "fixtures" / "serving"


def load_golden(case: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{case}.json").read_text())


def outcome(report) -> dict:
    """The comparable record of a serving report, shaped like a golden.

    Timings are included: every golden case runs with
    ``charge_selection=False``, so the simulated schedule is exact.
    """
    from repro.runtime import decision_trace

    return {
        "decisions": decision_trace(report, include_timing=True),
        "retries": report.retries,
        "failovers": report.failovers,
        "health_timeline": [list(t) for t in report.health_timeline],
        "request_ids": sorted(r.request_id for r in report.requests),
        "makespan_us": report.makespan_us,
        "plan_cache": {
            key: report.plan_cache_stats[key] for key in ("hits", "misses")
        },
        "replica_stats": [
            [r.replica_id, r.device, r.batches, r.tokens]
            for r in report.replica_stats
        ],
    }


def compositions(report) -> list:
    """Batch compositions alone (request ids per batch, in dispatch order)."""
    from repro.runtime import decision_trace

    return [entry["requests"] for entry in decision_trace(report)]
