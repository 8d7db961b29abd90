"""Micro-batched request scheduling over a worker pool.

The scan behind one top-k query costs ~100µs on a warm index, which is
the same order as one pipe round-trip — dispatching queries one at a
time would spend the cluster on IPC.  The scheduler therefore forms
**micro-batches**: requests are routed to a worker as they arrive
(round-robin or consistent-hash, see :mod:`repro.serving.router`) and
buffered per worker; a buffer is flushed as one
:meth:`~repro.query.engine.QueryEngine.top_k_many` batch when it
reaches ``batch_size`` (or on :meth:`~MicroBatchScheduler.flush`).
Batching also feeds the engine's within-batch dedup — skewed traffic
repeats roots, and a batch of 64 zipf-distributed queries typically
executes far fewer scans.

One scheduler serves both pools.  A **plan** is a table of rounds, each
with the pool method that dispatches it and the reply kind that answers
it: the replica plan is the single round ``batch``; the shard plan
(:class:`~repro.serving.sharded.ShardedScheduler`) is a ``home`` round
followed by ``remote`` rounds that carry the gather's running
candidates.  Everything around the plan is written once here —
submit-time validation, per-round buffers and dispatch, reply
absorption, drain, ordered results, the swap barrier, stats collection,
the ``scheduler.query``/``scheduler.route`` spans and the dispatch
metrics.  A plan supplies only its router, what one reply does, and
its stats fold; every plan's first round carries ``(query, k)``.

Ordering contract: results are keyed by a monotone sequence number
assigned at :meth:`~MicroBatchScheduler.submit`, and
:meth:`~MicroBatchScheduler.run` returns them in submission order — the
pool's answers for a query stream are positionally identical to a
single-process engine serving the same stream.

Snapshot hot-swap (:meth:`~MicroBatchScheduler.publish`) is a
**barrier**:

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
        Flush threshold of every per-worker buffer.  1 degenerates to
        request-per-message (useful as the IPC-overhead baseline in the
        scale-out benchmark).
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`: per-request
        submit→result latency histogram (``repro_request_seconds``,
        the p50/p95/p99 source of the loadgen envelope) plus dispatch
        counters.  ``None`` = telemetry off.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer`: sampled requests
        get a ``scheduler.query`` root span with one ``scheduler.route``
        child per dispatched round; the trace context rides the batch
        envelope to the worker, whose ``worker.*``/``kernel.scan`` spans
        are absorbed from the reply.  ``None`` = tracing off
        (wire-identical envelopes).
    """

    #: Label of this scheduler's request-latency histogram series.
    _TIER = "replica"
    #: The plan's rounds, first round first: round -> (the pool method
    #: that dispatches one micro-batch of it, the reply kind answering it).
    _ROUNDS: Dict[str, Tuple[str, str]] = {"batch": ("submit", "results")}

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
        # round -> per-worker buffer of (seq, request tuple).
        self._buffers: Dict[str, List[List[Tuple[int, tuple]]]] = {
            round_: [[] for _ in range(pool.n_workers)] for round_ in self._ROUNDS
        }
        # batch_id -> (round, the dispatched buffer).
        self._pending: Dict[int, Tuple[str, List[Tuple[int, tuple]]]] = {}
        self._reply_kinds = {reply for _, reply in self._ROUNDS.values()}
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
    # The plan (the shard tier overrides these and the router)
    # ------------------------------------------------------------------
    def _on_reply(
        self, round_: str, worker_id: int, seq: int, request: tuple, reply
    ) -> None:
        """Act on one request's reply: a replica answers in one round."""
        self._finish(seq, reply, {"worker": worker_id})

    def _phase(self, round_: str) -> Dict[str, str]:
        """Telemetry labels of one round: a multi-round plan names it."""
        return {"phase": round_} if len(self._ROUNDS) > 1 else {}

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, query: int, k: int = 5, precision=None) -> int:
        """Route one request; returns its sequence number.

        Dispatches the target worker's buffer when it reaches
        ``batch_size``.  Every request is served exactly: ``precision``
        may be ``None`` or ``"exact"`` (see
        :class:`~repro.query.approx.PrecisionPolicy`).  An unknown node
        id, a non-positive ``k`` or another ``precision`` raises here,
        before any state changes, instead of reaching a worker.
        """
        query = check_node_id(int(query), self.pool.n_nodes, "query")
        k = check_k(int(k))
        PrecisionPolicy.resolve(precision)
        seq = self._next_seq
        self._next_seq += 1
        worker_id = self.router.route(query, self.pool.n_workers)
        self.routed_counts[worker_id] += 1
        if self.metrics.enabled:
            self._submit_times[seq] = perf_counter()
        if self.tracer.enabled and self.tracer.sample():
            self._spans[seq] = self.tracer.start(
                "scheduler.query", tags={"seq": seq, "query": query, "k": k}
            )
        self._enqueue(next(iter(self._ROUNDS)), worker_id, seq, (query, k))
        return seq

    def _enqueue(self, round_: str, worker_id: int, seq: int, request: tuple) -> None:
        """Buffer one request; dispatch the buffer once it is full."""
        buffer = self._buffers[round_][worker_id]
        buffer.append((seq, request))
        if len(buffer) >= self.batch_size:
            self._dispatch(round_, worker_id)

    def _dispatch(self, round_: str, worker_id: int) -> None:
        batch = self._buffers[round_][worker_id]
        if not batch:
            return
        self._buffers[round_][worker_id] = []
        batch_id = self._next_batch
        self._next_batch += 1
        self._pending[batch_id] = (round_, batch)
        ctxs = self._trace_contexts(round_, worker_id, batch) if self._spans else None
        if self.metrics.enabled:
            labels = self._phase(round_)
            self.metrics.counter(
                "repro_scheduler_batches_total",
                help="micro-batches dispatched",
                labels=labels,
            ).inc()
            self.metrics.histogram(
                "repro_scheduler_batch_fill",
                help="requests per dispatched micro-batch",
                labels=labels,
                bounds=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
            ).observe(len(batch))
        send = getattr(self.pool, self._ROUNDS[round_][0])
        send(worker_id, batch_id, [request for _, request in batch], ctxs=ctxs)

    def _trace_contexts(self, round_: str, worker_id: int, batch):
        """One trace context (or ``None``) per request of a dispatch.

        Each traced request gets a finished ``scheduler.route`` child
        naming the worker; an untraced batch returns ``None`` so its
        envelope stays wire-identical to the untraced protocol.
        """
        ctxs = []
        for seq, _ in batch:
            root = self._spans.get(seq)
            if root is None:
                ctxs.append(None)
                continue
            route = self.tracer.start(
                "scheduler.route",
                parent=root,
                tags={**self._phase(round_), "worker": worker_id},
            )
            self.tracer.finish(route)
            ctxs.append(root.context())
        return ctxs if any(c is not None for c in ctxs) else None

    def flush(self) -> None:
        """Dispatch every non-empty buffer, regardless of fill level."""
        for worker_id in range(self.pool.n_workers):
            for round_ in self._ROUNDS:
                self._dispatch(round_, worker_id)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Dispatched batches whose results have not arrived yet."""
        return len(self._pending)

    def _absorb(self, message: tuple) -> None:
        kind = message[0]
        if kind not in self._reply_kinds:
            raise ServingError(
                f"unexpected reply while awaiting batch results: {message!r}"
            )
        worker_id, batch_id, replies = message[1], message[2], message[3]
        round_, batch = self._pending.pop(batch_id)
        if kind != self._ROUNDS[round_][1]:
            raise ServingError(f"{round_} batch {batch_id} answered with {kind!r}")
        if len(batch) != len(replies):
            raise ServingError(
                f"batch {batch_id}: {len(batch)} requests but "
                f"{len(replies)} results"
            )
        if len(message) > 4:
            self.tracer.absorb(message[4], namespace=worker_id)
        for (seq, request), reply in zip(batch, replies):
            self._on_reply(round_, worker_id, seq, request, reply)

    def _finish(self, seq: int, result: TopKResult, tags: dict) -> None:
        """Record one request's final answer and close its telemetry."""
        self._results[seq] = result
        t_submit = self._submit_times.pop(seq, None)
        if t_submit is not None:
            self.latency.observe(perf_counter() - t_submit)
        span = self._spans.pop(seq, None)
        if span is not None:
            self.tracer.finish(span, tags=tags)

    def drain(self) -> None:
        """Flush, then block until every submitted request has its result."""
        self.flush()
        while self._pending:
            self._absorb(self.pool.recv())
            if not self._pending:
                # Later rounds parked below the batch threshold.
                self.flush()

    def take_results(self, seqs: Sequence[int]) -> List[TopKResult]:
        """Pop completed results for ``seqs`` (drain first)."""
        missing = [s for s in seqs if s not in self._results]
        if missing:
            raise ServingError(
                f"results not yet collected for sequence numbers {missing[:5]}"
                f"{'…' if len(missing) > 5 else ''}; call drain() first"
            )
        return [self._results.pop(s) for s in seqs]

    def run(self, queries: Sequence[int], k: int = 5) -> List[TopKResult]:
        """Serve a query stream end-to-end; results in input order.

        The drop-in pool equivalent of ``engine.top_k_many(queries, k)``
        — same answers, same order.
        """
        seqs = [self.submit(q, k) for q in queries]
        self.drain()
        return self.take_results(seqs)

    # ------------------------------------------------------------------
    # Snapshot hot-swap
    # ------------------------------------------------------------------
    def publish(self, snapshot: Snapshot) -> None:
        """Barrier-swap every worker to ``snapshot`` (see module docs).

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
        for _ in range(self.pool.n_workers):
            message = self.pool.recv()
            if message[0] != "swapped":
                raise ServingError(
                    f"unexpected reply while awaiting swap acks: {message!r}"
                )

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
        }
        for stats in per_worker:
            for key in list(total)[1:]:  # every counter after "workers"
                total[key] += stats.get(key, 0)
        served = total["queries_served"]
        hits = total["cache_hits"] + total["dedup_hits"]
        total["hit_rate"] = (hits / served) if served else 0.0
        total["snapshot_epoch"] = _max_epoch(per_worker)
        return total


def _max_epoch(per_worker: Sequence[dict]) -> Optional[int]:
    """The newest snapshot epoch any worker reports (``None`` if none)."""
    epochs = [s.get("snapshot_epoch") for s in per_worker]
    return max((e for e in epochs if e is not None), default=None)
