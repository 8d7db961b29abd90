"""Micro-batched request scheduling over a replica pool.

The scan behind one top-k query costs ~100µs on a warm index, which is
the same order as one queue round-trip — dispatching queries one at a
time would spend the cluster on IPC.  The scheduler therefore forms
**micro-batches**: requests are routed to a worker as they arrive
(round-robin or consistent-hash, see :mod:`repro.serving.router`) and
buffered per worker; a buffer is flushed as one
:meth:`~repro.query.engine.QueryEngine.top_k_many` batch when it
reaches ``batch_size`` (or on :meth:`flush`).  Batching also feeds the
engine's within-batch dedup — skewed traffic repeats roots, and a batch
of 64 zipf-distributed queries typically executes far fewer scans.

Ordering contract: results are keyed by a monotone sequence number
assigned at :meth:`submit`, and :meth:`run` returns them in submission
order — the pool's answers for a query stream are positionally
identical to a single-process engine serving the same stream.

Snapshot hot-swap (:meth:`publish`) is a **barrier**:

1. flush and drain every outstanding batch — in-flight queries complete
   on the epoch that was current when they were scheduled (nothing is
   dropped, nothing is re-run);
2. broadcast the new snapshot to all workers;
3. await one ack per worker.

After step 3 every subsequent query is served from the new epoch, so a
stream interleaved with update batches gets *exactly* the semantics of
a single engine applying the same updates at the same stream positions
— the equivalence the serving tests assert bit-for-bit.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.topk import TopKResult
from ..exceptions import InvalidParameterError, ServingError
from ..obs.metrics import NULL_REGISTRY
from ..obs.tracing import NULL_TRACER
from ..query.approx import PrecisionPolicy
from ..validation import check_k, check_node_id, check_positive_int
from .replica import ReplicaPool
from .router import Router, make_router
from .snapshot import Snapshot


class MicroBatchScheduler:
    """Route, batch, dispatch, and reorder requests for a replica pool.

    Parameters
    ----------
    pool:
        The :class:`~repro.serving.replica.ReplicaPool` to drive.
    router:
        ``"rr"``, ``"hash"``, or a :class:`~repro.serving.router.Router`
        instance.
    batch_size:
        Flush threshold per worker buffer.  1 degenerates to
        request-per-message (useful as the IPC-overhead baseline in the
        scale-out benchmark).
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`: per-request
        submit→result latency histogram (``repro_request_seconds``,
        the p50/p95/p99 source of the loadgen envelope) plus dispatch
        counters.  ``None`` = telemetry off.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer`: sampled requests
        get a ``scheduler.query`` root span with a ``scheduler.route``
        child; the trace context rides the batch envelope to the worker,
        whose ``worker.batch``/``kernel.scan`` spans are absorbed from
        the reply.  ``None`` = tracing off (wire-identical envelopes).
    """

    #: Label of this scheduler's request-latency histogram series.
    _TIER = "replica"

    def __init__(
        self,
        pool: ReplicaPool,
        router="rr",
        batch_size: int = 32,
        registry=None,
        tracer=None,
    ) -> None:
        self.pool = pool
        self.router: Router = make_router(router)
        self.batch_size = check_positive_int(batch_size, "batch_size")
        self.metrics = NULL_REGISTRY if registry is None else registry
        self.tracer = NULL_TRACER if tracer is None else tracer
        # Buffered requests: (seq, query, k, precision spec or None).
        self._buffers: List[List[Tuple[int, int, int, Optional[str]]]] = [
            [] for _ in range(pool.n_workers)
        ]
        self._pending: Dict[int, List[int]] = {}  # batch_id -> seqs
        self._results: Dict[int, TopKResult] = {}
        self._next_seq = 0
        self._next_batch = 0
        #: Queries routed to each worker (router-balance observability).
        self.routed_counts = [0] * pool.n_workers
        # Telemetry side tables: submit timestamps and open root spans.
        self._submit_times: Dict[int, float] = {}
        self._spans: Dict[int, object] = {}
        self.latency = self.metrics.histogram(
            "repro_request_seconds",
            help="submit-to-result seconds per request",
            labels={"tier": self._TIER},
        )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, query: int, k: int = 5, precision=None) -> int:
        """Route one request; returns its sequence number.

        Dispatches the target worker's buffer when it reaches
        ``batch_size``.  ``precision`` (a spec string or
        :class:`~repro.query.approx.PrecisionPolicy`, ``None`` = the
        worker engine's default tier) rides the batch envelope as its
        canonical spec string, so mixed-precision traffic batches
        freely.  An unknown node id or a non-positive ``k`` raises
        here, before any state changes, instead of reaching a worker.
        """
        query = check_node_id(int(query), self.pool.n_nodes, "query")
        k = check_k(int(k))
        spec = None if precision is None else PrecisionPolicy.parse(precision).spec
        seq = self._next_seq
        self._next_seq += 1
        worker_id = self.router.route(query, self.pool.n_workers)
        self.routed_counts[worker_id] += 1
        if self.metrics.enabled:
            self._submit_times[seq] = perf_counter()
        if self.tracer.enabled and self.tracer.sample():
            root = self.tracer.start(
                "scheduler.query", tags={"seq": seq, "query": query, "k": k}
            )
            route = self.tracer.start(
                "scheduler.route", parent=root, tags={"worker": worker_id}
            )
            self.tracer.finish(route)
            self._spans[seq] = root
        buffer = self._buffers[worker_id]
        buffer.append((seq, query, k, spec))
        if len(buffer) >= self.batch_size:
            self._dispatch(worker_id)
        return seq

    def _dispatch(self, worker_id: int) -> None:
        buffer = self._buffers[worker_id]
        if not buffer:
            return
        batch_id = self._next_batch
        self._next_batch += 1
        self._pending[batch_id] = [seq for seq, _, _, _ in buffer]
        ctxs = None
        if self._spans:
            traced = [
                self._spans[seq].context() if seq in self._spans else None
                for seq, _, _, _ in buffer
            ]
            if any(c is not None for c in traced):
                ctxs = traced
        if self.metrics.enabled:
            self.metrics.counter(
                "repro_scheduler_batches_total", help="micro-batches dispatched"
            ).inc()
            self.metrics.histogram(
                "repro_scheduler_batch_fill",
                help="requests per dispatched micro-batch",
                bounds=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
            ).observe(len(buffer))
        # Default-tier batches stay 2-tuples — byte-identical envelopes
        # to the pre-precision protocol; any non-default request widens
        # the whole batch to 3-tuples.
        if any(spec is not None for _, _, _, spec in buffer):
            requests = [(q, k, spec) for _, q, k, spec in buffer]
        else:
            requests = [(q, k) for _, q, k, _ in buffer]
        self.pool.submit(worker_id, batch_id, requests, ctxs=ctxs)
        self._buffers[worker_id] = []

    def flush(self) -> None:
        """Dispatch every non-empty buffer, regardless of fill level."""
        for worker_id in range(self.pool.n_workers):
            self._dispatch(worker_id)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Dispatched batches whose results have not arrived yet."""
        return len(self._pending)

    def _absorb(self, message: tuple) -> None:
        kind = message[0]
        if kind != "results":
            raise ServingError(
                f"unexpected reply while awaiting batch results: {message!r}"
            )
        worker_id, batch_id, results = message[1], message[2], message[3]
        seqs = self._pending.pop(batch_id)
        if len(seqs) != len(results):
            raise ServingError(
                f"batch {batch_id}: {len(seqs)} requests but "
                f"{len(results)} results"
            )
        if len(message) > 4:
            self.tracer.absorb(message[4], namespace=worker_id)
        now = perf_counter() if self._submit_times else 0.0
        for seq, result in zip(seqs, results):
            self._results[seq] = result
            t_submit = self._submit_times.pop(seq, None)
            if t_submit is not None:
                self.latency.observe(now - t_submit)
            span = self._spans.pop(seq, None)
            if span is not None:
                self.tracer.finish(span, tags={"worker": worker_id})

    def drain(self) -> None:
        """Flush, then block until every dispatched batch has reported."""
        self.flush()
        while self._pending:
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
        """Serve a query stream end-to-end; results in input order.

        The drop-in pool equivalent of
        ``engine.top_k_many(queries, k, precision=precision)`` — same
        answers, same order.
        """
        seqs = [self.submit(q, k, precision=precision) for q in queries]
        self.drain()
        return self.take_results(seqs)

    # ------------------------------------------------------------------
    # Snapshot hot-swap
    # ------------------------------------------------------------------
    def publish(self, snapshot: Snapshot) -> None:
        """Barrier-swap every replica to ``snapshot`` (see module docs).

        In-flight batches complete on their scheduled epoch before the
        swap broadcast; queries submitted after :meth:`publish` returns
        are served from the new epoch.  Completed-but-untaken results
        are kept.
        """
        if snapshot.epoch <= self.pool.snapshot.epoch:
            raise InvalidParameterError(
                f"snapshot epochs must advance: have {self.pool.snapshot.epoch}, "
                f"got {snapshot.epoch}"
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
    def collect_stats(self) -> List[dict]:
        """Per-worker stats dicts (drains outstanding batches first)."""
        self.drain()
        return self.pool.collect_stats()

    @staticmethod
    def aggregate_stats(per_worker: Sequence[dict]) -> dict:
        """Fold per-worker ``EngineStats`` dicts into one pool-level view."""
        total: Dict[str, object] = {
            "workers": len(per_worker),
            "queries_served": 0,
            "cache_hits": 0,
            "dedup_hits": 0,
            "scans_executed": 0,
            "invalidations": 0,
            "snapshot_swaps": 0,
            "fast_path_queries": 0,
            "escalated_queries": 0,
        }
        for stats in per_worker:
            for key in (
                "queries_served",
                "cache_hits",
                "dedup_hits",
                "scans_executed",
                "invalidations",
                "snapshot_swaps",
                "fast_path_queries",
                "escalated_queries",
            ):
                total[key] += stats.get(key, 0)
        served = total["queries_served"]
        hits = total["cache_hits"] + total["dedup_hits"]
        total["hit_rate"] = (hits / served) if served else 0.0
        attempts = total["fast_path_queries"] + total["escalated_queries"]
        total["escalation_rate"] = (
            (total["escalated_queries"] / attempts) if attempts else 0.0
        )
        epochs = [s.get("snapshot_epoch") for s in per_worker]
        total["snapshot_epoch"] = max(
            (e for e in epochs if e is not None), default=None
        )
        return total
