"""Process-level worker pool behind the ``SchedulingPolicy`` seam.

The cluster subsystem runs each serving replica as a real OS process with
its own engine (backend, profiled TileDB, planner), connected to the
admission host by a length-prefixed socket transport.  The host keeps the
policy — admission, batching, placement, retries — and ships only the
execution across the boundary, so the decision trace of a virtual-time
replay stays bit-identical to the same loop run in one process.

Layers:

* :mod:`.transport` — framed JSON channels over ``socketpair`` and
  :class:`WorkerLostError`;
* :mod:`.codec` — the wire codec over the plan codec: requests,
  workloads, reports, faults, cache deltas;
* :mod:`.worker` — the worker process (engine, message loop, heartbeats)
  and the host-side :class:`WorkerProcess` handle;
* :mod:`.frontend` — :class:`ClusterFrontend` (the async frontend over
  the pool), heartbeat monitoring into the health tracker, plan-cache
  delta sync, and the replay/serve entry points.
"""

from .codec import decode_wire, encode_wire
from .frontend import (
    ClusterConfig,
    ClusterFrontend,
    cluster_replay_trace,
    serve_cluster,
    serve_cluster_async,
)
from .transport import Channel, WorkerLostError, channel_pair
from .worker import WorkerConfig, WorkerProcess, worker_main

__all__ = [
    "Channel",
    "ClusterConfig",
    "ClusterFrontend",
    "WorkerConfig",
    "WorkerLostError",
    "WorkerProcess",
    "channel_pair",
    "cluster_replay_trace",
    "decode_wire",
    "encode_wire",
    "serve_cluster",
    "serve_cluster_async",
    "worker_main",
]
