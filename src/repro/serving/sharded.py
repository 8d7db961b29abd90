"""Distributed scatter-gather: shard-owning workers, a gathering scheduler.

The replica pool (:mod:`repro.serving.replica`) scales *throughput* by
replicating the whole index per worker; this module scales the **index
itself**: each worker process owns one shard of a format-v6 archive —
the manifest's shared state (the assignment and the shard summaries)
plus only its own shard's payload, its members' ``U^-1`` rows and
``L^-1`` columns, roughly ``1/n_shards`` of the index — and queries
run the same home-first / bound-ordered / skip-below-θ plan as the
in-process :class:`~repro.query.planner.ScatterGatherPlanner`, spread
over processes:

1. the scheduler routes each query to its **home shard** worker, which
   holds the query's seed column: it scans its members, contracts
   every other shard's summary bound against the scattered column (it
   holds the manifest, so the bounds are one sparse dot each), and
   returns the column with its reply;
2. the gather side sorts the surviving shards by descending bound and
   visits them **one at a time**, micro-batched per worker; a remote
   request carries the query's seed column and the gather's running
   candidates, and the worker scatters the one and scans from a heap
   primed with the other, so it prunes under the running K-th
   proximity θ;
3. a shard whose bound falls below θ is **skipped** — and because
   bounds are sorted and θ only grows, every shard after it is skipped
   too.

The gather itself is the planner's :class:`~repro.query.planner.Gather`,
so the pool runs the in-process planner's plan exactly: the same
answers, the same skips, the same scan counters.

Both halves reuse the replica tier's machinery.  Shard workers run the
one :func:`~repro.serving.replica.worker_main` loop with a
:class:`ShardServer`, and speak the ``home``/``remote`` rows of the wire
protocol table in :mod:`repro.serving.replica`.
:class:`ShardedScheduler` is the
:class:`~repro.serving.scheduler.MicroBatchScheduler` with a two-round
plan: only the routing, the gather's rounds and the stats fold are
written here.

Exactness contract: per-shard scans compute the identical float dot
products as the single-index kernel and candidates merge through the
same canonical heap discipline, so a stream served by the shard pool is
**bit-identical** to the same stream through one
:class:`~repro.query.engine.QueryEngine` — including across sharded
snapshot hot-swaps, which use the scheduler's barrier publish.
"""

from __future__ import annotations

import itertools
from time import perf_counter
from typing import Dict, Optional, Sequence

import numpy as np

from ..core.index_io import load_sharded_index
from ..exceptions import ServingError
from ..obs.metrics import MetricsRegistry
from ..query.backends import resolve_backend_name
from ..query.planner import Gather, PlannerStats
from .replica import (
    DEFAULT_TIMEOUT,
    ReplicaPool,
    _check_snapshot_format,
    _span_pair,
    read_snapshot_header,
)
from .router import Router
from .scheduler import MicroBatchScheduler, _max_epoch
from .snapshot import Snapshot


class ShardServer:
    """What a shard worker serves: scans of its own shard.

    Loads the manifest plus **only its own shard payload**: its members'
    ``U^-1`` rows and ``L^-1`` columns, and no other shard's.  Both
    rounds run the same
    :meth:`~repro.core.sharded.ShardedIndex.scan_request`: a ``home``
    request scatters the query's seed column from this payload, starts
    from an empty heap, and also returns every shard's summary bound and
    the seed column; a ``remote`` request scatters the seed column it
    carries and starts from the gather's running candidates.

    The scan dispatches to the kernel backend: worker processes
    inherit ``REPRO_KERNEL_BACKEND`` from the parent, so one environment
    variable selects the backend for the whole shard pool (all backends
    are bit-identical; see :mod:`repro.query.backends`).  ``cache_size``
    is unused — partial results merge at the gather side, so caching
    whole answers belongs there, not here.
    """

    #: Request kind -> reply kind.
    REPLIES = {"home": "partial", "remote": "candidates"}

    def __init__(self, worker_id: int, path: str, epoch: int, cache_size: int) -> None:
        self.worker_id = worker_id
        self._stats: Dict[str, int] = {
            "worker_id": worker_id,
            "shard_id": worker_id,
            "home_queries": 0,
            "remote_queries": 0,
            "nodes_checked": 0,
            "nodes_computed": 0,
            "snapshot_epoch": epoch,
            "snapshot_swaps": 0,
        }
        self._backend = resolve_backend_name()
        self.registry = MetricsRegistry()
        self._scan_hist = {
            phase: self.registry.histogram(
                "repro_worker_scan_seconds",
                help="per-request shard-scan seconds",
                labels={"phase": phase},
            )
            for phase in self.REPLIES
        }
        self._span_ids = itertools.count(1)  # process-lifetime span ordinals
        self._load(path)

    def _load(self, path: str) -> None:
        self.sharded = load_sharded_index(path, only=[self.worker_id])
        self._y = self.sharded.workspace()

    def serve(self, kind: str, requests, ctxs):
        """Answer one ``home``/``remote`` batch, one scan per request; a
        traced request gets a ``worker.<kind>`` span with a
        ``kernel.scan`` leaf holding the shard id and scan counters."""
        home = kind == "home"
        replies, spans = [], []
        for i, request in enumerate(requests):
            t0 = perf_counter()
            # The seed column crosses the pipes as the raw bytes of its
            # rows and values: pickling bytes is one copy, while
            # pickling and unpickling the two arrays costs about 25 µs.
            if home:
                query, k = request
                reply = self.sharded.scan_request(
                    self._y, self.worker_id, query, k, home=True
                )
                reply = reply[:4] + (tuple(a.tobytes() for a in reply[4]),)
            else:
                query, k, candidates, (rows, vals) = request
                seed = (np.frombuffer(rows, np.int64), np.frombuffer(vals))
                reply = self.sharded.scan_request(
                    self._y, self.worker_id, query, k, candidates, seed
                )
            seconds = perf_counter() - t0
            checked, computed = reply[2:4]
            self._stats[f"{kind}_queries"] += 1
            self._stats["nodes_checked"] += checked
            self._stats["nodes_computed"] += computed
            self._scan_hist[kind].observe(seconds)
            if ctxs is not None and ctxs[i] is not None:
                leaf = {
                    "backend": self._backend,
                    "shard": self.worker_id,
                    "n_visited": checked,
                    "n_computed": computed,
                }
                spans.extend(
                    _span_pair(
                        self._span_ids, ctxs[i], f"worker.{kind}", seconds,
                        {"shard": self.worker_id}, seconds, leaf,
                    )
                )
            replies.append(reply)
        return replies, spans

    def swap(self, path: str, epoch: int) -> None:
        self._load(path)
        self._stats["snapshot_epoch"] = epoch
        self._stats["snapshot_swaps"] += 1

    def stats(self) -> dict:
        return dict(self._stats)


class ShardPool(ReplicaPool):
    """One worker process per shard of a format-v6 sharded snapshot.

    Parameters
    ----------
    snapshot:
        A :class:`~repro.serving.snapshot.Snapshot` whose path is a v6
        (or v5) manifest, or a plain manifest path, treated as epoch 0.  The
        worker count **is** the manifest's shard count — worker ``i``
        owns shard ``i``.
    timeout:
        As for :class:`~repro.serving.replica.ReplicaPool`.

    Construction, pipes, error surfacing, the swap broadcast and the
    shutdown barrier are the replica pool's; only the worker's server
    and the manifest-derived metadata differ.
    """

    _SERVER = ShardServer
    _WORKER_NAME = "kdash-shard"

    #: Shard count of the adopted manifest (``None`` before the first).
    n_shards: Optional[int] = None

    def __init__(self, snapshot, timeout: float = DEFAULT_TIMEOUT) -> None:
        path = snapshot.path if isinstance(snapshot, Snapshot) else str(snapshot)
        self._load_snapshot_meta(path)
        super().__init__(
            snapshot, n_workers=self.n_shards, cache_size=0, timeout=timeout
        )

    def _load_snapshot_meta(self, path: str) -> None:
        """Read the routing metadata every gather side needs.

        A manifest with a different shard count than the one adopted
        before is refused before anything changes: re-sharding to
        another count needs a new pool (worker ``i`` owns shard ``i``).
        """
        with read_snapshot_header(path, "sharded manifest") as manifest:
            version = int(manifest["format_version"])
            _check_snapshot_format(path, version, sharded=True)
            n_shards = int(manifest["n_shards"])
            n_nodes = int(manifest["n_nodes"])
            assignment = np.asarray(manifest["assignment"], dtype=np.int64)
        if self.n_shards not in (None, n_shards):
            raise ServingError(
                f"snapshot {path!r} has {n_shards} shards but the pool "
                f"runs {self.n_shards} workers; re-sharding to a "
                "different shard count needs a new pool"
            )
        self.n_shards, self.n_nodes, self.assignment = n_shards, n_nodes, assignment

    def home_worker(self, query: int) -> int:
        """The worker owning ``query``'s home shard."""
        return int(self.assignment[query])

    def submit_home(self, worker_id: int, batch_id: int, requests, ctxs=None) -> None:
        """Dispatch one home-round micro-batch of ``(query, k)`` pairs."""
        self._send_batch("home", worker_id, batch_id, requests, ctxs)

    def submit_remote(self, worker_id: int, batch_id: int, requests, ctxs=None) -> None:
        """Dispatch one remote-round micro-batch of ``(query, k,
        candidates, seed)``."""
        self._send_batch("remote", worker_id, batch_id, requests, ctxs)


class _HomeShard(Router):
    """Route each query to the worker owning its home shard in the
    pool's current manifest (a swap may re-shard, so ask the pool)."""

    def __init__(self, pool: ShardPool) -> None:
        self._pool = pool

    def route(self, query: int, n_workers: int) -> int:
        return self._pool.home_worker(query)


class ShardedScheduler(MicroBatchScheduler):
    """Scatter-gather scheduling over a :class:`ShardPool`.

    The :class:`~repro.serving.scheduler.MicroBatchScheduler` surface
    and machinery with a two-round plan: requests route by **home
    shard** (the partition is the router), and completing one query may
    take several worker round-trips — a ``home`` round, then one
    ``remote`` round per bound-surviving shard — each micro-batched per
    worker.  Results come back in submission order, bit-identical to a
    single-process engine serving the same stream.

    Parameters
    ----------
    pool:
        The :class:`ShardPool` to drive.
    batch_size:
        Flush threshold of both the home-round and remote-round
        per-worker buffers.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`: submit-to-
        finalise latency histogram (``repro_request_seconds`` with
        ``tier="sharded"``), per-phase dispatch counters and plan
        counters.  ``None`` = telemetry off.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer`: sampled requests
        get a ``scheduler.query`` root span with one ``scheduler.route``
        child per dispatched round; worker-side ``worker.home`` /
        ``worker.remote`` / ``kernel.scan`` spans are absorbed from the
        replies.  ``None`` = tracing off (wire-identical envelopes).
    """

    _TIER = "sharded"
    _ROUNDS = {
        "home": ("submit_home", "partial"),
        "remote": ("submit_remote", "candidates"),
    }

    def __init__(
        self,
        pool: ShardPool,
        batch_size: int = 32,
        registry=None,
        tracer=None,
    ) -> None:
        super().__init__(
            pool,
            router=_HomeShard(pool),
            batch_size=batch_size,
            registry=registry,
            tracer=tracer,
        )
        self._gathers: Dict[int, Gather] = {}
        #: Lifetime plan accounting, the planner's own.
        self.stats = PlannerStats()

    # ------------------------------------------------------------------
    # The plan
    # ------------------------------------------------------------------
    def _on_reply(
        self, round_: str, worker_id: int, seq: int, request: tuple, reply
    ) -> None:
        """Start (home) or advance (remote) the query's gather, then queue
        its next shard with the running candidates or finalise it."""
        if round_ == "home":
            gather = self._gathers[seq] = Gather(
                request[0], request[1], self.pool.n_nodes, worker_id, reply
            )
        else:
            gather = self._gathers[seq]
            gather.absorb(reply)
        shard = gather.next_shard()
        if shard is None:
            self._finalise(seq, self._gathers.pop(seq))
        else:
            self._enqueue(
                "remote",
                shard,
                seq,
                (gather.query, gather.k, gather.candidates, gather.seed),
            )

    def _finalise(self, seq: int, gather: Gather) -> None:
        """Turn a finished gather into the query's result."""
        plan = gather.plan()
        self.stats.record(plan, self.pool.n_workers)
        if self.metrics.enabled:
            self.metrics.counter(
                "repro_sharded_queries_total", help="queries finalised"
            ).inc()
            self.metrics.counter(
                "repro_sharded_shards_visited_total", help="shards scanned"
            ).inc(plan.shards_visited)
            self.metrics.counter(
                "repro_sharded_shards_skipped_total",
                help="shards skipped by the cross-shard bound",
            ).inc(plan.shards_skipped)
        result = gather.result()
        self._finish(
            seq,
            result,
            {
                "n_visited": result.n_visited,
                "n_computed": result.n_computed,
                "n_pruned": result.n_pruned,
                "shards_visited": plan.shards_visited,
                "shards_skipped": plan.shards_skipped,
            },
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def aggregate_stats(self, per_worker: Sequence[dict]) -> dict:
        """Fold per-worker dicts plus the gather-side plan accounting."""
        total: Dict[str, object] = {
            "workers": len(per_worker),
            "home_queries": 0,
            "remote_queries": 0,
            "nodes_checked": 0,
            "nodes_computed": 0,
            "snapshot_swaps": 0,
        }
        for stats in per_worker:
            for key in list(total)[1:]:  # every counter after "workers"
                total[key] += stats[key]
        total["snapshot_epoch"] = _max_epoch(per_worker)
        plan = self.stats
        total["queries_served"] = plan.queries
        total["shards_visited"] = plan.shards_visited
        total["shards_skipped"] = plan.shards_skipped
        total["skip_rate"] = plan.skip_rate
        total["mean_fan_out"] = plan.mean_fan_out
        return total
