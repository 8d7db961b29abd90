"""Distributed scatter-gather: shard-owning workers, a gathering scheduler.

The replica pool (:mod:`repro.serving.replica`) scales *throughput* by
replicating the whole index per worker; this module scales the **index
itself**: each worker process owns one shard of a format-v3 archive —
the manifest's shared seed-side state plus only its own ``U^-1`` row
payload, roughly ``1/n_shards`` of the answer-side index — and queries
run the same home-first / bound-ordered / skip-below-θ plan as the
in-process :class:`~repro.query.planner.ScatterGatherPlanner`, spread
over processes:

1. the scheduler routes each query to its **home shard** worker, which
   scans its members and also contracts every other shard's summary
   bound against the scattered seed column (it holds the manifest, so
   the bounds are one sparse dot each);
2. the gather side sorts the surviving shards by descending bound and
   visits them **one at a time**, micro-batched per worker, carrying
   the running K-th proximity θ as the pruning floor;
3. a shard whose bound falls below θ is **skipped** — and because
   bounds are sorted and θ only grows, every shard after it is skipped
   too.

Exactness contract: per-shard scans compute the identical float dot
products as the single-index kernel and candidates merge through the
same canonical heap discipline, so a stream served by the shard pool is
**bit-identical** to the same stream through one
:class:`~repro.query.engine.QueryEngine` — including across sharded
snapshot hot-swaps, which reuse the barrier semantics of
:meth:`~repro.serving.scheduler.MicroBatchScheduler.publish`.

Wire protocol (extends the replica-pool table):

===========  ====================================================  ===========
direction    message                                               reply
===========  ====================================================  ===========
to worker    ``("home", batch_id, [(query, k), ...])``             ``("partial", wid, batch_id, [(items, bounds, checked, computed), ...])``
to worker    ``("remote", batch_id, [(query, k, floor), ...])``    ``("candidates", wid, batch_id, [(items, checked, computed), ...])``
to worker    ``("swap", epoch, manifest_path)``                    ``("swapped", wid, epoch)``
to worker    ``("stats",)``                                        ``("stats", wid, stats_dict)``
to worker    ``("metrics",)``                                      ``("metrics", wid, registry_snapshot)``
to worker    ``("stop",)``                                         ``("stopped", wid, stats_dict)``
===========  ====================================================  ===========

As in the replica protocol, ``home``/``remote`` envelopes may carry a
trailing per-request trace-context list; the worker then appends
finished span records (``worker.home``/``worker.remote`` with a
``kernel.scan`` leaf holding the shard id, scan counters and backend
name) as a fifth reply element.  ``metrics`` returns the worker's
per-phase scan-latency registry snapshot for pool-level merging.
"""

from __future__ import annotations

import itertools
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.index_io import load_sharded_index
from ..core.sharded import canonical_heap, heap_items, merge_candidates, scan_shard
from ..core.topk import TopKResult
from ..exceptions import InvalidParameterError, ServingError
from ..obs.metrics import MetricsRegistry, NULL_REGISTRY
from ..obs.tracing import NULL_TRACER, remote_span
from ..query.approx import PrecisionPolicy
from ..query.kernel import ScanResult, scan_to_topk
from ..validation import check_k, check_node_id, check_positive_int
from .replica import ReplicaPool, _report_worker_crash, read_snapshot_header
from .snapshot import Snapshot


def _plan_home(sharded, worker_id: int, y, query: int, k: int):
    """One home-phase evaluation inside a shard worker.

    ``scan_shard`` here is the kernel-backend dispatcher: worker
    processes inherit ``REPRO_KERNEL_BACKEND`` from the parent, so one
    environment variable selects the backend for the whole shard pool
    (all backends are bit-identical; see :mod:`repro.query.backends`).
    """
    rows, vals = sharded.scatter_column(y, query)
    ymax = float(vals.max()) if vals.size else 0.0
    heap = canonical_heap(sharded.n, k)
    checked, computed = scan_shard(
        sharded.shard(worker_id), sharded.c, y, ymax, heap
    )
    bounds = sharded.shard_bounds(rows, vals)
    sharded.clear_rows(y, rows)
    return heap_items(heap), bounds, checked, computed


def _plan_remote(sharded, worker_id: int, y, query: int, k: int, floor: float):
    """One remote-phase evaluation: scan own shard with the θ floor."""
    rows, vals = sharded.scatter_column(y, query)
    ymax = float(vals.max()) if vals.size else 0.0
    heap = canonical_heap(sharded.n, k)
    checked, computed = scan_shard(
        sharded.shard(worker_id), sharded.c, y, ymax, heap, floor=floor
    )
    sharded.clear_rows(y, rows)
    return heap_items(heap), checked, computed


def shard_worker_main(
    worker_id: int,
    manifest_path: str,
    snapshot_epoch: int,
    request_q,
    result_q,
    cache_size: int,
) -> None:
    """Entry point of one shard-owning worker process.

    Loads the manifest plus **only its own shard payload**; serves home
    and remote phases until told to stop.  ``cache_size`` is accepted
    for spawn-signature parity with the replica worker and unused —
    partial results are merged at the gather side, so caching whole
    answers belongs there, not here.
    """
    del cache_size  # see docstring
    stats: Dict[str, object] = {
        "worker_id": worker_id,
        "shard_id": worker_id,
        "home_queries": 0,
        "remote_queries": 0,
        "nodes_checked": 0,
        "nodes_computed": 0,
        "snapshot_epoch": int(snapshot_epoch),
        "snapshot_swaps": 0,
    }
    try:
        from ..query.backends import resolve_backend_name

        backend_name = resolve_backend_name()
        registry = MetricsRegistry()
        scan_hist = {
            phase: registry.histogram(
                "repro_worker_scan_seconds",
                help="per-request shard-scan seconds",
                labels={"phase": phase},
            )
            for phase in ("home", "remote")
        }
        span_ids = itertools.count(1)  # process-lifetime span ordinals

        def scan_spans(phase, ctx, shard_seconds, checked, computed):
            """worker.<phase> span + kernel.scan leaf for one traced scan."""
            phase_id = next(span_ids)
            leaf_id = next(span_ids)
            return [
                remote_span(
                    ctx,
                    phase_id,
                    f"worker.{phase}",
                    shard_seconds,
                    tags={"shard": worker_id},
                ),
                remote_span(
                    ctx,
                    leaf_id,
                    "kernel.scan",
                    shard_seconds,
                    tags={
                        "backend": backend_name,
                        "shard": worker_id,
                        "n_visited": checked,
                        "n_computed": computed,
                    },
                    parent_id=phase_id,
                ),
            ]

        sharded = load_sharded_index(manifest_path, only=[worker_id])
        y = sharded.workspace()
        result_q.put(("ready", worker_id, int(snapshot_epoch)))
        while True:
            message = request_q.get()
            kind = message[0]
            if kind == "home":
                batch_id, requests = message[1], message[2]
                ctxs = message[3] if len(message) > 3 else None
                replies = []
                spans: List[dict] = []
                for i, (query, k) in enumerate(requests):
                    t0 = perf_counter()
                    items, bounds, checked, computed = _plan_home(
                        sharded, worker_id, y, int(query), int(k)
                    )
                    seconds = perf_counter() - t0
                    stats["home_queries"] += 1
                    stats["nodes_checked"] += checked
                    stats["nodes_computed"] += computed
                    scan_hist["home"].observe(seconds)
                    if ctxs is not None and ctxs[i] is not None:
                        spans.extend(
                            scan_spans("home", ctxs[i], seconds, checked, computed)
                        )
                    replies.append((items, bounds, checked, computed))
                if spans:
                    result_q.put(("partial", worker_id, batch_id, replies, spans))
                else:
                    result_q.put(("partial", worker_id, batch_id, replies))
            elif kind == "remote":
                batch_id, requests = message[1], message[2]
                ctxs = message[3] if len(message) > 3 else None
                replies = []
                spans = []
                for i, (query, k, floor) in enumerate(requests):
                    t0 = perf_counter()
                    items, checked, computed = _plan_remote(
                        sharded, worker_id, y, int(query), int(k), float(floor)
                    )
                    seconds = perf_counter() - t0
                    stats["remote_queries"] += 1
                    stats["nodes_checked"] += checked
                    stats["nodes_computed"] += computed
                    scan_hist["remote"].observe(seconds)
                    if ctxs is not None and ctxs[i] is not None:
                        spans.extend(
                            scan_spans("remote", ctxs[i], seconds, checked, computed)
                        )
                    replies.append((items, checked, computed))
                if spans:
                    result_q.put(("candidates", worker_id, batch_id, replies, spans))
                else:
                    result_q.put(("candidates", worker_id, batch_id, replies))
            elif kind == "swap":
                _, epoch, path = message
                if epoch > stats["snapshot_epoch"]:
                    sharded = load_sharded_index(path, only=[worker_id])
                    y = sharded.workspace()
                    stats["snapshot_epoch"] = int(epoch)
                    stats["snapshot_swaps"] += 1
                result_q.put(("swapped", worker_id, int(epoch)))
            elif kind == "stats":
                result_q.put(("stats", worker_id, dict(stats)))
            elif kind == "metrics":
                result_q.put(("metrics", worker_id, registry.snapshot()))
            elif kind == "stop":
                result_q.put(("stopped", worker_id, dict(stats)))
                break
            else:
                result_q.put(
                    ("error", worker_id, f"unknown message kind {kind!r}")
                )
                break
    except Exception:  # surface crashes instead of hanging the pool
        _report_worker_crash(result_q, worker_id)
    finally:
        result_q.close()
        result_q.join_thread()


class ShardPool(ReplicaPool):
    """One worker process per shard of a format-v3 sharded snapshot.

    Parameters
    ----------
    snapshot:
        A :class:`~repro.serving.snapshot.Snapshot` whose path is a v3
        manifest (or a plain manifest path, treated as epoch 0).  The
        worker count **is** the manifest's shard count — worker ``i``
        owns shard ``i``.
    start_method / timeout:
        As for :class:`~repro.serving.replica.ReplicaPool`.

    The queue scaffolding, error surfacing, swap broadcast and shutdown
    barrier are inherited unchanged; only the worker entry point and the
    manifest-derived metadata differ.
    """

    _WORKER_TARGET = staticmethod(shard_worker_main)
    _WORKER_NAME = "kdash-shard"

    #: Shard count of the adopted manifest (``None`` before the first).
    n_shards: Optional[int] = None

    def __init__(
        self,
        snapshot,
        start_method: Optional[str] = None,
        timeout: float = 120.0,
    ) -> None:
        path = snapshot.path if isinstance(snapshot, Snapshot) else str(snapshot)
        self._load_snapshot_meta(path)
        super().__init__(
            snapshot,
            n_workers=self.n_shards,
            cache_size=0,
            start_method=start_method,
            timeout=timeout,
        )

    def _load_snapshot_meta(self, path: str) -> None:
        """Read the routing metadata every gather side needs.

        A manifest with a different shard count than the one adopted
        before is refused before anything changes: re-sharding to
        another count needs a new pool (worker ``i`` owns shard ``i``).
        """
        with read_snapshot_header(path, "sharded manifest") as manifest:
            version = int(manifest["format_version"])
            if version != 3:
                raise ServingError(
                    f"ShardPool needs a format-v3 sharded manifest; "
                    f"{path!r} has format version {version} (serve v1/v2 "
                    "archives through ReplicaPool, or shard them first)"
                )
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
        """Dispatch one home-phase micro-batch of ``(query, k)`` pairs.

        ``ctxs`` optionally carries one trace context (or ``None``) per
        request; untraced batches stay wire-identical to the base
        protocol.
        """
        if ctxs is None:
            self.send(worker_id, ("home", batch_id, list(requests)))
        else:
            self.send(worker_id, ("home", batch_id, list(requests), list(ctxs)))

    def submit_remote(self, worker_id: int, batch_id: int, requests, ctxs=None) -> None:
        """Dispatch one remote-phase micro-batch of ``(query, k, floor)``."""
        if ctxs is None:
            self.send(worker_id, ("remote", batch_id, list(requests)))
        else:
            self.send(worker_id, ("remote", batch_id, list(requests), list(ctxs)))


class _Gather:
    """Per-query gather state: the canonical heap plus the visit plan."""

    __slots__ = (
        "query",
        "k",
        "heap",
        "order",
        "bounds",
        "cursor",
        "visited",
        "skipped",
        "checked",
        "computed",
    )

    def __init__(self, query: int, k: int, home: int, reply, n: int) -> None:
        items, bounds, checked, computed = reply
        self.query = query
        self.k = k
        self.heap = canonical_heap(n, k)
        merge_candidates(self.heap, items)
        self.bounds = bounds
        self.order = sorted(
            (s for s in range(len(bounds)) if s != home),
            key=lambda s: (-bounds[s], s),
        )
        self.cursor = 0
        self.visited = 1
        self.skipped = 0
        self.checked = checked
        self.computed = computed

    def next_shard(self) -> Optional[int]:
        """The next shard to visit, or ``None`` when the plan is done.

        Skips (and counts) the whole sorted tail as soon as the next
        bound falls below θ — the cross-shard Lemma 2 argument.
        """
        if self.cursor >= len(self.order):
            return None
        theta = self.heap[0][0]
        if self.bounds[self.order[self.cursor]] < theta:
            self.skipped += len(self.order) - self.cursor
            self.cursor = len(self.order)
            return None
        shard = self.order[self.cursor]
        self.cursor += 1
        self.visited += 1
        return shard


class ShardedScheduler:
    """Scatter-gather scheduling over a :class:`ShardPool`.

    Mirrors the :class:`~repro.serving.scheduler.MicroBatchScheduler`
    surface — ``submit`` / ``flush`` / ``drain`` / ``take_results`` /
    ``run`` / ``publish`` / ``collect_stats`` — but requests route by
    **home shard** (the partition is the router) and completing one
    query may take several worker round-trips, each micro-batched per
    worker.  Results come back in submission order, bit-identical to a
    single-process engine serving the same stream.

    Parameters
    ----------
    pool:
        The :class:`ShardPool` to drive.
    batch_size:
        Flush threshold of both the home-phase and remote-phase per-
        worker buffers.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`: submit-to-
        finalise latency histogram (``repro_request_seconds`` with
        ``tier="sharded"``) plus plan counters.  ``None`` = telemetry
        off.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer`: sampled requests
        get a ``scheduler.query`` root span with one ``scheduler.route``
        child per phase dispatch; worker-side ``worker.home`` /
        ``worker.remote`` / ``kernel.scan`` spans are absorbed from the
        replies.  ``None`` = tracing off (wire-identical envelopes).
    """

    #: Label of this scheduler's request-latency histogram series.
    _TIER = "sharded"

    def __init__(
        self,
        pool: ShardPool,
        batch_size: int = 32,
        registry=None,
        tracer=None,
    ) -> None:
        self.pool = pool
        self.batch_size = check_positive_int(batch_size, "batch_size")
        self.metrics = NULL_REGISTRY if registry is None else registry
        self.tracer = NULL_TRACER if tracer is None else tracer
        # Telemetry side tables: submit timestamps and open root spans.
        self._submit_times: Dict[int, float] = {}
        self._spans: Dict[int, object] = {}
        self.latency = self.metrics.histogram(
            "repro_request_seconds",
            help="submit-to-result seconds per request",
            labels={"tier": self._TIER},
        )
        self._home_buffers: List[List[Tuple[int, int, int]]] = [
            [] for _ in range(pool.n_workers)
        ]
        self._remote_buffers: List[List[Tuple[int, int, int, float]]] = [
            [] for _ in range(pool.n_workers)
        ]
        # batch_id -> ("home" | "remote", [seq, ...])
        self._pending: Dict[int, Tuple[str, List[int]]] = {}
        # seq -> (query, k) until the home reply arrives.
        self._inflight: Dict[int, Tuple[int, int]] = {}
        self._gathers: Dict[int, _Gather] = {}
        self._results: Dict[int, TopKResult] = {}
        self._next_seq = 0
        self._next_batch = 0
        #: Queries routed to each home worker (observability).
        self.routed_counts = [0] * pool.n_workers
        #: Lifetime plan accounting (feeds ``skip_rate`` / ``fan_out``).
        self.queries_done = 0
        self.shards_visited = 0
        self.shards_skipped = 0
        #: Non-exact requests served by escalation (no shard worker holds
        #: the full-graph adjacency the CPI fast path multiplies by, so
        #: the sharded tier answers every precision tier exactly and
        #: counts the approximate ones as escalated).
        self.escalated_queries = 0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, query: int, k: int = 5, precision=None) -> int:
        """Route one request to its home shard; returns its sequence number.

        ``precision`` is accepted for surface parity with the replica
        scheduler: the plan is exact regardless (see
        :attr:`escalated_queries`), so a ``bounded`` request gets a
        byte-identical exact answer and is counted as escalated, and a
        ``best_effort`` request is promoted to exact — never a looser
        answer than asked for.
        """
        query = check_node_id(int(query), self.pool.n_nodes, "query")
        k = check_k(int(k))
        policy = PrecisionPolicy.resolve(precision) if precision is not None else None
        if policy is not None and not policy.is_exact:
            self.escalated_queries += 1
        seq = self._next_seq
        self._next_seq += 1
        worker_id = self.pool.home_worker(query)
        self.routed_counts[worker_id] += 1
        self._inflight[seq] = (query, k)
        if self.metrics.enabled:
            self._submit_times[seq] = perf_counter()
        if self.tracer.enabled and self.tracer.sample():
            root = self.tracer.start(
                "scheduler.query", tags={"seq": seq, "query": query, "k": k}
            )
            self._spans[seq] = root
        buffer = self._home_buffers[worker_id]
        buffer.append((seq, query, k))
        if len(buffer) >= self.batch_size:
            self._dispatch_home(worker_id)
        return seq

    def _route_span(self, seq: int, phase: str, worker_id: int) -> None:
        """Record one finished scheduler.route child for a traced seq."""
        root = self._spans.get(seq)
        if root is None:
            return
        route = self.tracer.start(
            "scheduler.route",
            parent=root,
            tags={"phase": phase, "worker": worker_id},
        )
        self.tracer.finish(route)

    def _ctxs_for(self, seqs: List[int], phase: str, worker_id: int):
        """Trace contexts for a dispatch (None when nothing is traced)."""
        if not self._spans:
            return None
        traced = []
        any_traced = False
        for seq in seqs:
            span = self._spans.get(seq)
            if span is None:
                traced.append(None)
            else:
                self._route_span(seq, phase, worker_id)
                traced.append(span.context())
                any_traced = True
        return traced if any_traced else None

    def _dispatch_home(self, worker_id: int) -> None:
        buffer = self._home_buffers[worker_id]
        if not buffer:
            return
        batch_id = self._next_batch
        self._next_batch += 1
        seqs = [seq for seq, _, _ in buffer]
        self._pending[batch_id] = ("home", seqs)
        ctxs = self._ctxs_for(seqs, "home", worker_id)
        if self.metrics.enabled:
            self.metrics.counter(
                "repro_scheduler_batches_total",
                help="micro-batches dispatched",
                labels={"phase": "home"},
            ).inc()
        self.pool.submit_home(
            worker_id, batch_id, [(q, k) for _, q, k in buffer], ctxs=ctxs
        )
        self._home_buffers[worker_id] = []

    def _dispatch_remote(self, worker_id: int) -> None:
        buffer = self._remote_buffers[worker_id]
        if not buffer:
            return
        batch_id = self._next_batch
        self._next_batch += 1
        seqs = [seq for seq, _, _, _ in buffer]
        self._pending[batch_id] = ("remote", seqs)
        ctxs = self._ctxs_for(seqs, "remote", worker_id)
        if self.metrics.enabled:
            self.metrics.counter(
                "repro_scheduler_batches_total",
                help="micro-batches dispatched",
                labels={"phase": "remote"},
            ).inc()
        self.pool.submit_remote(
            worker_id, batch_id, [(q, k, f) for _, q, k, f in buffer], ctxs=ctxs
        )
        self._remote_buffers[worker_id] = []

    def flush(self) -> None:
        """Dispatch every non-empty buffer, regardless of fill level."""
        for worker_id in range(self.pool.n_workers):
            self._dispatch_home(worker_id)
            self._dispatch_remote(worker_id)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Dispatched batches whose replies have not arrived yet."""
        return len(self._pending)

    def _advance(self, seq: int) -> None:
        """Move one query's plan forward: queue its next shard or finish."""
        gather = self._gathers[seq]
        shard = gather.next_shard()
        if shard is None:
            self._finalise(seq)
            return
        buffer = self._remote_buffers[shard]
        buffer.append((seq, gather.query, gather.k, gather.heap[0][0]))
        if len(buffer) >= self.batch_size:
            self._dispatch_remote(shard)

    def _finalise(self, seq: int) -> None:
        gather = self._gathers.pop(seq)
        n = self.pool.n_nodes
        scan = ScanResult(
            items=heap_items(gather.heap),
            n_visited=gather.checked,
            n_computed=gather.computed,
            n_pruned=n - gather.computed,
            terminated_early=gather.computed < n,
        )
        self._results[seq] = scan_to_topk(gather.query, gather.k, n, scan)
        self.queries_done += 1
        self.shards_visited += gather.visited
        self.shards_skipped += gather.skipped
        t_submit = self._submit_times.pop(seq, None)
        if t_submit is not None:
            self.latency.observe(perf_counter() - t_submit)
        if self.metrics.enabled:
            self.metrics.counter(
                "repro_sharded_queries_total", help="queries finalised"
            ).inc()
            self.metrics.counter(
                "repro_sharded_shards_visited_total", help="shards scanned"
            ).inc(gather.visited)
            self.metrics.counter(
                "repro_sharded_shards_skipped_total",
                help="shards skipped by the cross-shard bound",
            ).inc(gather.skipped)
        span = self._spans.pop(seq, None)
        if span is not None:
            self.tracer.finish(
                span,
                tags={
                    "n_visited": gather.checked,
                    "n_computed": gather.computed,
                    "n_pruned": n - gather.computed,
                    "shards_visited": gather.visited,
                    "shards_skipped": gather.skipped,
                },
            )

    def _absorb(self, message: tuple) -> None:
        kind = message[0]
        if kind not in ("partial", "candidates"):
            raise ServingError(
                f"unexpected reply while awaiting plan phases: {message!r}"
            )
        worker_id, batch_id, replies = message[1], message[2], message[3]
        if len(message) > 4:
            self.tracer.absorb(message[4], namespace=worker_id)
        phase, seqs = self._pending.pop(batch_id)
        if len(seqs) != len(replies):
            raise ServingError(
                f"batch {batch_id}: {len(seqs)} requests but "
                f"{len(replies)} replies"
            )
        if phase == "home":
            if kind != "partial":
                raise ServingError(
                    f"home batch {batch_id} answered with {kind!r}"
                )
            for seq, reply in zip(seqs, replies):
                self._gathers[seq] = _Gather(
                    *self._request_of(seq, reply), n=self.pool.n_nodes
                )
                self._advance(seq)
        else:
            if kind != "candidates":
                raise ServingError(
                    f"remote batch {batch_id} answered with {kind!r}"
                )
            for seq, (items, checked, computed) in zip(seqs, replies):
                gather = self._gathers[seq]
                merge_candidates(gather.heap, items)
                gather.checked += checked
                gather.computed += computed
                self._advance(seq)

    def _request_of(self, seq: int, reply):
        """Rebuild the (query, k, home, reply) tuple for a home reply."""
        # The home buffers record (seq, query, k); by the time the reply
        # arrives the buffer entry is gone, so the query/k travel in the
        # pending map instead — reconstructed here from the seq ledger.
        query, k = self._inflight.pop(seq)
        home = self.pool.home_worker(query)
        return query, k, home, reply

    def drain(self) -> None:
        """Flush, then block until every submitted query has finalised."""
        self.flush()
        while self._pending or self._gathers or any(
            self._remote_buffers[w] for w in range(self.pool.n_workers)
        ):
            if not self._pending:
                # Everything in flight is parked in remote buffers below
                # the batch threshold; push it out.
                for worker_id in range(self.pool.n_workers):
                    self._dispatch_remote(worker_id)
                continue
            self._absorb(self.pool.recv())

    def take_results(self, seqs: Sequence[int]) -> List[TopKResult]:
        """Pop completed results for ``seqs`` (drain first)."""
        missing = [s for s in seqs if s not in self._results]
        if missing:
            raise ServingError(
                f"results not yet collected for sequence numbers {missing[:5]}"
                f"{'…' if len(missing) > 5 else ''}; call drain() first"
            )
        return [self._results.pop(s) for s in seqs]

    def run(
        self, queries: Sequence[int], k: int = 5, precision=None
    ) -> List[TopKResult]:
        """Serve a query stream end-to-end; results in input order."""
        seqs = [self.submit(q, k, precision=precision) for q in queries]
        self.drain()
        return self.take_results(seqs)

    # ------------------------------------------------------------------
    # Snapshot hot-swap
    # ------------------------------------------------------------------
    def publish(self, snapshot: Snapshot) -> None:
        """Barrier-swap every shard worker to a new sharded snapshot.

        Same semantics as the replica scheduler's publish: in-flight
        plans complete on their scheduled epoch, then every worker acks
        the new manifest before any later query is dispatched.
        """
        if snapshot.epoch <= self.pool.snapshot.epoch:
            raise InvalidParameterError(
                f"snapshot epochs must advance: have "
                f"{self.pool.snapshot.epoch}, got {snapshot.epoch}"
            )
        self.drain()
        self.pool.broadcast_swap(snapshot)
        acks = 0
        while acks < self.pool.n_workers:
            message = self.pool.recv()
            if message[0] != "swapped":
                raise ServingError(
                    f"unexpected reply while awaiting swap acks: {message!r}"
                )
            acks += 1

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def skip_rate(self) -> float:
        """Skipped share of possible non-home shard visits so far."""
        possible = self.queries_done * max(self.pool.n_workers - 1, 0)
        return (self.shards_skipped / possible) if possible else 0.0

    @property
    def mean_fan_out(self) -> float:
        """Average shards scanned per completed query."""
        return (
            (self.shards_visited / self.queries_done)
            if self.queries_done
            else 0.0
        )

    def collect_stats(self) -> List[dict]:
        """Per-worker stats dicts (drains outstanding plans first)."""
        self.drain()
        return self.pool.collect_stats()

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
            for key in (
                "home_queries",
                "remote_queries",
                "nodes_checked",
                "nodes_computed",
                "snapshot_swaps",
            ):
                total[key] += stats[key]
        epochs = [s.get("snapshot_epoch") for s in per_worker]
        total["snapshot_epoch"] = max(
            (e for e in epochs if e is not None), default=None
        )
        total["queries_served"] = self.queries_done
        total["shards_visited"] = self.shards_visited
        total["shards_skipped"] = self.shards_skipped
        total["skip_rate"] = self.skip_rate
        total["mean_fan_out"] = self.mean_fan_out
        total["fast_path_queries"] = 0
        total["escalated_queries"] = self.escalated_queries
        return total
