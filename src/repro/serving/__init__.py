"""The multi-process serving tier: replicas, snapshots, scheduling.

The paper's deployment model is "precompute once, serve sub-millisecond
queries forever"; this package is the *forever* part at multi-core
scale.  One writer, many readers, a filesystem of immutable snapshots
between them:

- :mod:`repro.serving.snapshot` — :class:`SnapshotStore`, epoch-tagged
  atomic publication of v4 index archives (which persist the
  ``PreparedIndex`` caches, so adopting a snapshot skips
  re-preparation);
- :mod:`repro.serving.publisher` — :class:`SnapshotPublisher`, the
  single writer: dynamic update batches in (through
  ``DynamicKDash``/``RebuildPolicy``), compacted snapshots out;
- :mod:`repro.serving.replica` — :class:`ReplicaPool`, N worker
  processes each serving a read-only engine over the current snapshot,
  hot-swapping between micro-batches; its ``worker_main`` is the one
  worker message loop of both pools, and its docstring holds the one
  wire-protocol table;
- :mod:`repro.serving.router` — :class:`RoundRobinRouter` (load
  spread) and :class:`ConsistentHashRouter` (root→replica affinity);
- :mod:`repro.serving.scheduler` — :class:`MicroBatchScheduler`, the
  gather-side answer cache + request routing + micro-batch formation +
  the barrier that makes a snapshot swap invisible to in-flight
  queries, written once for both pools and driven by a plan of rounds;
- :mod:`repro.serving.sharded` — :class:`ShardPool` (the replica pool
  with one worker per shard of a format-v6 manifest, each holding
  ``1/n_shards`` of the index) and
  :class:`ShardedScheduler` (the scheduler with a home-first
  scatter-gather plan and cross-shard bound skipping; results
  bit-identical to a single engine);
- :mod:`repro.serving.frontdoor` — :class:`FrontDoor`, the asyncio TCP
  service over either scheduler: length-prefixed JSON frames, bounded
  in-flight admission with backpressure, per-request deadlines, and
  graceful drain — every request gets a terminal response (``ok`` /
  ``rejected`` / ``deadline_exceeded`` / ``draining`` / ``error``) and
  accepted answers stay bit-identical over the wire;
- :mod:`repro.serving.loadgen` — seeded workload generation, the
  closed-loop driver behind ``cli loadgen`` and
  ``benchmarks/bench_serving_scaleout.py``, plus the open-loop Poisson
  driver (:func:`run_open_loop`, :func:`saturation_sweep`) that pushes
  a :class:`FrontDoorClient` past saturation.

Exactness contract: a query stream served by the pool — including
streams interleaved with update batches across snapshot hot-swaps — is
bit-identical to the same stream served by one
:class:`~repro.query.engine.QueryEngine`.
"""

from .frontdoor import FrontDoor, FrontDoorClient
from .loadgen import (
    LoadgenReport,
    OpenLoopReport,
    make_queries,
    make_update_batch,
    poisson_arrivals,
    run_load,
    run_open_loop,
    saturation_sweep,
)
from .publisher import SnapshotPublisher
from .replica import ReplicaPool
from .router import (
    ConsistentHashRouter,
    ROUTER_NAMES,
    RoundRobinRouter,
    Router,
    make_router,
)
from .scheduler import MicroBatchScheduler
from .sharded import ShardPool, ShardedScheduler
from .snapshot import Snapshot, SnapshotStore

__all__ = [
    "Snapshot",
    "SnapshotStore",
    "SnapshotPublisher",
    "ReplicaPool",
    "MicroBatchScheduler",
    "ShardPool",
    "ShardedScheduler",
    "Router",
    "RoundRobinRouter",
    "ConsistentHashRouter",
    "make_router",
    "ROUTER_NAMES",
    "make_queries",
    "make_update_batch",
    "run_load",
    "LoadgenReport",
    "FrontDoor",
    "FrontDoorClient",
    "OpenLoopReport",
    "poisson_arrivals",
    "run_open_loop",
    "saturation_sweep",
]
