"""The replica pool: worker processes serving one snapshot each.

One Python process can run exactly one pruned scan at a time — the
kernel is a Python-level loop, so threads share the GIL and a single
``QueryEngine`` caps out far below a multi-core box.  The pool fixes
that the way the paper's deployment model invites: the index is
**read-only at serving time**, so replication is free of coherence
traffic.  Each worker process

1. loads the published snapshot (the v2 archive restores the
   ``PreparedIndex`` caches directly — no re-preparation),
2. wraps it in its own static :class:`~repro.query.engine.QueryEngine`
   (private LRU result cache, private workspace),
3. serves micro-batches from its request queue until told to stop,
4. hot-swaps to a newer snapshot epoch when the scheduler broadcasts
   one — the swap lands *between* batches, so no in-flight query is
   dropped and every query is answered by exactly the snapshot that was
   current when it was scheduled.

The pool is deliberately dumb about ordering: it moves messages.  All
scheduling policy (micro-batch formation, routing, the swap barrier)
lives in :class:`~repro.serving.scheduler.MicroBatchScheduler`.

Wire protocol (tuples, first element is the kind):

===========  =============================================  ===========
direction    message                                        reply
===========  =============================================  ===========
to worker    ``("batch", batch_id, [(query, k), ...])``     ``("results", wid, batch_id, [TopKResult, ...])``
to worker    ``("batch", batch_id, [(query, k, prec), ...])``  same reply shape
to worker    ``("swap", epoch, path)``                      ``("swapped", wid, epoch)``
to worker    ``("stats",)``                                 ``("stats", wid, stats_dict)``
to worker    ``("metrics",)``                               ``("metrics", wid, registry_snapshot)``
to worker    ``("stop",)``                                  ``("stopped", wid, stats_dict)``
===========  =============================================  ===========

Tracing rides the same envelopes: a ``batch`` message may carry a
fourth element — one trace context (or ``None``) per request — and the
worker then answers ``("results", wid, batch_id, results, spans)``
where ``spans`` are finished :func:`~repro.obs.tracing.remote_span`
records (``worker.batch`` plus a ``kernel.scan`` leaf carrying the
batch's scan counters and kernel-backend name).  Untraced batches use
the original 3/4-element shapes, so tracing-off serving is wire-
identical to PR 3.  ``metrics`` returns the worker engine's
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`; per-worker latency
histograms share bucket bounds, so the pool folds them with
:meth:`~repro.obs.metrics.MetricsRegistry.merge`.

Precision tiers ride the request tuples: a batch whose requests are
3-tuples carries a per-request precision spec string (``"exact"``,
``"bounded(1e-06)"``, ``"best_effort(0.001)"``, or ``None`` for the
worker engine's default — see :mod:`repro.query.approx`).  A
default-tier stream keeps the original 2-tuple envelope, so
precision-off serving is wire-identical to PR 9.

A worker that hits an unexpected exception reports
``("error", wid, message)`` and exits; the pool surfaces it as a
:class:`~repro.exceptions.ServingError` on the next receive.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import pickle
import queue as queue_module
import time
import zipfile
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.index_io import load_index
from ..exceptions import InvalidParameterError, ServingError
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import remote_span
from ..query.engine import QueryEngine
from .snapshot import Snapshot

#: Default seconds the pool waits on worker replies before declaring
#: the worker dead.  Generous: snapshot loads on large graphs are slow.
DEFAULT_TIMEOUT = 120.0


@contextlib.contextmanager
def read_snapshot_header(path: str, what: str = "snapshot"):
    """The lazily read ``.npz`` archive of a snapshot, for header fields.

    Only the members the caller indexes are read, so the payload stays
    on disk.  An unreadable archive, or one missing a requested field,
    raises :class:`~repro.exceptions.ServingError` naming ``what`` and
    the path.
    """
    try:
        with np.load(path, allow_pickle=True) as archive:
            yield archive
    except (
        OSError,
        ValueError,
        KeyError,
        EOFError,
        pickle.UnpicklingError,
        zipfile.BadZipFile,
    ) as exc:
        raise ServingError(f"cannot read {what} {path!r}: {exc}") from exc


def _report_worker_crash(result_q, worker_id: int) -> None:
    """Ship the crashing worker's full traceback to the gather side.

    The reply carries ``traceback.format_exc()`` as a plain string —
    always picklable, unlike the exception object itself (a crash whose
    exception can't cross the queue would otherwise be silently
    swallowed and the pool would only see an opaque dead worker).  If
    even the string can't be enqueued (queue torn down mid-crash), the
    traceback goes to the worker's stderr instead of vanishing.
    """
    import sys
    import traceback

    detail = traceback.format_exc()
    try:
        result_q.put(("error", worker_id, detail))
    except Exception:
        print(
            f"[worker {worker_id}] crash report lost to a dead queue:\n{detail}",
            file=sys.stderr,
            flush=True,
        )


def _serve_batch(engine: QueryEngine, requests: Sequence[Tuple]):
    """Serve one micro-batch of ``(query, k[, precision])`` requests,
    input order kept.

    Requests are grouped by ``(k, precision)`` so each group runs
    through one :meth:`~repro.query.engine.QueryEngine.top_k_many` call
    (shared workspace + within-batch dedup); answers are identical to
    per-query ``top_k`` calls, so grouping is purely an execution
    detail.  A 2-tuple request (the pre-precision envelope) means the
    engine's default tier.

    Returns ``(results, group_stats)`` — one
    :class:`~repro.query.stats.QueryStats` per executed group, which is
    what the trace leaf span sums its scan counters from.
    """
    groups: Dict[Tuple[int, Optional[str]], List[int]] = {}
    for i, request in enumerate(requests):
        spec = request[2] if len(request) > 2 else None
        groups.setdefault((int(request[1]), spec), []).append(i)
    results: List = [None] * len(requests)
    group_stats: List = []
    for (k, spec), idxs in groups.items():
        answers = engine.top_k_many(
            [requests[i][0] for i in idxs], k, precision=spec
        )
        for i, answer in zip(idxs, answers):
            results[i] = answer
        group_stats.append(engine.last_stats)
    return results, group_stats


def _batch_spans(
    engine: QueryEngine,
    n_requests: int,
    ctxs,
    group_stats,
    seconds: float,
    span_ids,
) -> List[dict]:
    """The worker half of one traced batch's span tree.

    One ``worker.batch`` span parented to the (first) propagated trace
    context, with a ``kernel.scan`` leaf carrying the batch's summed
    :class:`~repro.query.stats.QueryStats` counters and the resolved
    kernel-backend name — the numbers the acceptance test matches
    bit-for-bit against a single-process engine serving the same
    stream.
    """
    ctx = next(c for c in ctxs if c is not None)
    batch_id_local = next(span_ids)
    scan_id_local = next(span_ids)
    return [
        remote_span(
            ctx,
            batch_id_local,
            "worker.batch",
            seconds,
            tags={"batch_size": n_requests},
        ),
        remote_span(
            ctx,
            scan_id_local,
            "kernel.scan",
            sum(s.seconds for s in group_stats),
            tags={
                "backend": engine.index._prepared.backend,
                "n_queries": sum(s.n_queries for s in group_stats),
                "cache_hits": sum(s.cache_hits for s in group_stats),
                "dedup_hits": sum(s.dedup_hits for s in group_stats),
                "executed": sum(s.executed for s in group_stats),
                "n_visited": sum(s.n_visited for s in group_stats),
                "n_computed": sum(s.n_computed for s in group_stats),
                "n_pruned": sum(s.n_pruned for s in group_stats),
            },
            parent_id=batch_id_local,
        ),
    ]


def worker_main(
    worker_id: int,
    snapshot_path: str,
    snapshot_epoch: int,
    request_q,
    result_q,
    cache_size: int,
) -> None:
    """Entry point of one replica process (module-level for spawn support)."""
    try:
        engine = QueryEngine(
            load_index(snapshot_path),
            cache_size=cache_size,
            registry=MetricsRegistry(),
        )
        engine.snapshot_epoch = int(snapshot_epoch)
        engine.stats.snapshot_epoch = engine.snapshot_epoch
        span_ids = itertools.count(1)  # process-lifetime span ordinals
        result_q.put(("ready", worker_id, int(snapshot_epoch)))
        while True:
            message = request_q.get()
            kind = message[0]
            if kind == "batch":
                batch_id, requests = message[1], message[2]
                ctxs = message[3] if len(message) > 3 else None
                t0 = perf_counter()
                results, group_stats = _serve_batch(engine, requests)
                if ctxs is not None and any(c is not None for c in ctxs):
                    spans = _batch_spans(
                        engine,
                        len(requests),
                        ctxs,
                        group_stats,
                        perf_counter() - t0,
                        span_ids,
                    )
                    result_q.put(
                        ("results", worker_id, batch_id, results, spans)
                    )
                else:
                    result_q.put(("results", worker_id, batch_id, results))
            elif kind == "swap":
                _, epoch, path = message
                # Only move forward: a stale broadcast (scheduler retry,
                # replayed queue) must not roll the replica back.
                if engine.snapshot_epoch is None or epoch > engine.snapshot_epoch:
                    engine.swap_index(load_index(path), source_epoch=epoch)
                result_q.put(("swapped", worker_id, int(epoch)))
            elif kind == "stats":
                result_q.put(("stats", worker_id, engine.stats.as_dict()))
            elif kind == "metrics":
                result_q.put(("metrics", worker_id, engine.metrics.snapshot()))
            elif kind == "stop":
                result_q.put(("stopped", worker_id, engine.stats.as_dict()))
                break
            else:
                result_q.put(
                    ("error", worker_id, f"unknown message kind {kind!r}")
                )
                break
    except Exception:  # surface crashes instead of hanging the pool
        _report_worker_crash(result_q, worker_id)
    finally:
        # Flush the queue feeder thread before the process exits so the
        # final message is never lost.
        result_q.close()
        result_q.join_thread()


class ReplicaPool:
    """N worker processes, each serving the same published snapshot.

    Parameters
    ----------
    snapshot:
        A :class:`~repro.serving.snapshot.Snapshot` (or a plain archive
        path, treated as epoch 0) every worker loads at startup.
    n_workers:
        Number of replica processes.
    cache_size:
        Per-worker LRU result-cache capacity (each replica caches
        independently — affinity routing is what makes those private
        caches effective).
    start_method:
        ``multiprocessing`` start method (``None`` = platform default;
        ``"fork"`` on Linux makes startup near-free).
    timeout:
        Seconds to wait on any worker reply before raising
        :class:`~repro.exceptions.ServingError`.

    The pool is a context manager; exiting it stops the workers and
    joins them.
    """

    #: Worker entry point and process-name stem; the sharded pool
    #: (:class:`repro.serving.sharded.ShardPool`) overrides both and
    #: inherits every queue/lifecycle mechanism below unchanged.
    _WORKER_TARGET = staticmethod(worker_main)
    _WORKER_NAME = "kdash-replica"

    def __init__(
        self,
        snapshot,
        n_workers: int,
        cache_size: int = 1024,
        start_method: Optional[str] = None,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        if n_workers < 1:
            raise InvalidParameterError(
                f"n_workers must be positive, got {n_workers!r}"
            )
        if not isinstance(snapshot, Snapshot):
            snapshot = Snapshot(epoch=0, path=str(snapshot))
        self._load_snapshot_meta(snapshot.path)
        self.snapshot = snapshot
        self.timeout = float(timeout)
        self._cache_size = cache_size
        self._ctx = multiprocessing.get_context(start_method)
        self._result_q = self._ctx.Queue()
        self._request_qs = [self._ctx.Queue() for _ in range(n_workers)]
        self._workers = []
        self._closed = False
        for worker_id in range(n_workers):
            process = self._ctx.Process(
                target=type(self)._WORKER_TARGET,
                args=self._worker_args(worker_id),
                name=f"{self._WORKER_NAME}-{worker_id}",
                daemon=True,
            )
            process.start()
            self._workers.append(process)
        ready = 0
        while ready < n_workers:
            message = self.recv()
            if message[0] != "ready":
                raise ServingError(
                    f"worker startup protocol violation: expected 'ready', "
                    f"got {message!r}"
                )
            ready += 1

    def _load_snapshot_meta(self, path: str) -> None:
        """Read what the gather side validates requests against: the
        snapshot's node count (subclass hook; the shard pool also reads
        its routing metadata)."""
        with read_snapshot_header(path) as archive:
            self.n_nodes = int(archive["n_nodes"])

    def _worker_args(self, worker_id: int) -> tuple:
        """The spawn arguments of one worker process (subclass hook)."""
        return (
            worker_id,
            self.snapshot.path,
            self.snapshot.epoch,
            self._request_qs[worker_id],
            self._result_q,
            self._cache_size,
        )

    # ------------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return len(self._workers)

    def send(self, worker_id: int, message: tuple) -> None:
        """Low-level: enqueue one protocol message to one worker."""
        if self._closed:
            raise ServingError("pool is closed")
        self._request_qs[worker_id].put(message)

    def submit(self, worker_id: int, batch_id: int, requests, ctxs=None) -> None:
        """Dispatch one micro-batch of ``(query, k[, precision])``
        requests to a worker.

        ``ctxs`` (one trace context or ``None`` per request) extends the
        envelope only when at least one request is traced — an untraced
        stream stays wire-identical to the pre-telemetry protocol.
        """
        if ctxs is None:
            self.send(worker_id, ("batch", batch_id, list(requests)))
        else:
            self.send(worker_id, ("batch", batch_id, list(requests), list(ctxs)))

    def broadcast_swap(self, snapshot: Snapshot) -> None:
        """Tell every worker to adopt ``snapshot`` (no barrier — the
        scheduler drains outstanding batches first and awaits the acks)."""
        self._load_snapshot_meta(snapshot.path)
        for worker_id in range(self.n_workers):
            self.send(worker_id, ("swap", snapshot.epoch, snapshot.path))
        self.snapshot = snapshot

    def recv(self, timeout: Optional[float] = None) -> tuple:
        """Next worker reply; raises :class:`ServingError` on worker death,
        protocol errors, or timeout."""
        try:
            message = self._result_q.get(timeout=timeout or self.timeout)
        except queue_module.Empty:
            dead = [p.name for p in self._workers if not p.is_alive()]
            detail = f"; dead workers: {dead}" if dead else ""
            raise ServingError(
                f"no worker reply within {timeout or self.timeout:.0f}s{detail}"
            ) from None
        if message[0] == "error":
            # message[2] is the worker's full traceback (a plain string;
            # see _report_worker_crash) — re-raised here with the worker
            # identity so the gather side sees the original crash site.
            raise ServingError(f"worker {message[1]} failed:\n{message[2]}")
        return message

    def collect_stats(self) -> List[dict]:
        """Per-worker ``EngineStats`` dicts (safe only with no batches
        outstanding — the scheduler guarantees that by draining first)."""
        for worker_id in range(self.n_workers):
            self.send(worker_id, ("stats",))
        stats: List[Optional[dict]] = [None] * self.n_workers
        needed = self.n_workers
        while needed:
            message = self.recv()
            if message[0] != "stats":
                raise ServingError(
                    f"unexpected reply while collecting stats: {message!r}"
                )
            stats[message[1]] = message[2]
            needed -= 1
        return stats  # type: ignore[return-value]

    def collect_metrics(self) -> MetricsRegistry:
        """One registry folding every worker's metrics snapshot.

        Counters add, per-worker latency histograms merge bucket-wise
        (same bounds by construction) — so pool-level p50/p95/p99 come
        out of the merged histograms directly.  Same no-outstanding-
        batches caveat as :meth:`collect_stats`.
        """
        for worker_id in range(self.n_workers):
            self.send(worker_id, ("metrics",))
        merged = MetricsRegistry()
        needed = self.n_workers
        while needed:
            message = self.recv()
            if message[0] != "metrics":
                raise ServingError(
                    f"unexpected reply while collecting metrics: {message!r}"
                )
            merged.merge(MetricsRegistry.from_snapshot(message[2]))
            needed -= 1
        return merged

    # ------------------------------------------------------------------
    def close(self) -> List[dict]:
        """Stop and join every worker; returns their final stats dicts.

        Idempotent: a second close returns an empty list.
        """
        if self._closed:
            return []
        self._closed = True
        final: List[dict] = []
        for request_q in self._request_qs:
            request_q.put(("stop",))
        # One "stopped" per worker; a worker that crashed earlier will
        # never reply, so bail once nobody is alive or the deadline hits.
        deadline = time.monotonic() + self.timeout
        remaining = self.n_workers
        while remaining and time.monotonic() < deadline:
            try:
                message = self._result_q.get(timeout=0.5)
            except queue_module.Empty:
                if not any(p.is_alive() for p in self._workers):
                    break
                continue
            if message[0] == "stopped":
                final.append(message[2])
                remaining -= 1
            # Late batch results / acks during shutdown are dropped.
        for process in self._workers:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=5.0)
        return final

    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
