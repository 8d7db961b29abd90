"""Worker pools: processes that each serve one snapshot, one message loop.

One Python process can run exactly one pruned scan at a time, so a
single ``QueryEngine`` caps out far below a multi-core box.  The pools
fix that the way the paper's deployment model invites: the index is
**read-only at serving time**, so worker processes need no coherence
traffic.  Two pools share every pipe and lifecycle mechanism here:

- :class:`ReplicaPool` — N replicas, each a static
  :class:`~repro.query.engine.QueryEngine` over the whole snapshot
  (private LRU result cache, private workspace);
- :class:`~repro.serving.sharded.ShardPool` — one worker per shard of a
  format-v6 manifest, each holding and scanning only its own shard.

Every worker runs :func:`worker_main`: load the snapshot, report
``ready``, then serve messages until told to stop.  A hot swap to a
newer snapshot epoch lands *between* batches, so no in-flight query is
dropped and every query is answered by the snapshot that was current
when it was scheduled.  The pools are deliberately dumb about ordering:
they move messages.  All scheduling policy (micro-batch formation,
routing, the swap barrier) lives in
:class:`~repro.serving.scheduler.MicroBatchScheduler`.

Wire protocol (tuples, first element is the kind):

===========  =============================================================  ===========
direction    message                                                        reply
===========  =============================================================  ===========
to replica   ``("batch", batch_id, [(query, k), ...])``                     ``("results", wid, batch_id, [TopKResult, ...])``
to shard     ``("home", batch_id, [(query, k), ...])``                      ``("partial", wid, batch_id, [(items, bounds, checked, computed, seed), ...])``
to shard     ``("remote", batch_id, [(query, k, candidates, seed), ...])``  ``("candidates", wid, batch_id, [(items, None, checked, computed), ...])``
to worker    ``("swap", epoch, path)``                                      ``("swapped", wid, epoch)``
to worker    ``("stats",)``                                                 ``("stats", wid, stats_dict)``
to worker    ``("metrics",)``                                               ``("metrics", wid, registry_snapshot)``
to worker    ``("stop",)``                                                  ``("stopped", wid, stats_dict)``
from worker  at boot                                                        ``("ready", wid, epoch)``
from worker  on a crash                                                     ``("error", wid, traceback_text)``
===========  =============================================================  ===========

A ``home`` reply's ``seed`` is the query's ``L^-1`` column as a
``(rows, vals)`` pair of ``bytes``, the raw int64 rows and float64
values; only the home shard holds the column, so the gather hands it
on unread with every ``remote`` request.  A ``remote`` request's
``candidates`` are the gather's running ``(node, proximity)`` answer
(at most ``k`` pairs); the worker scatters the ``seed``, primes its
scan's heap with the candidates, and both shard rounds reply with the
scanned heap's items (see
:meth:`~repro.core.sharded.ShardedIndex.scan_request`).  On
servebench's 2,000-node planted graph a seed column averages about 440
entries, about 7 KB.

Tracing rides the same envelopes: a ``batch``/``home``/``remote``
message may carry a fourth element — one trace context (or ``None``)
per request — and the worker then appends finished
:func:`~repro.obs.tracing.remote_span` records as a fifth reply
element: ``worker.batch``, ``worker.home`` or ``worker.remote`` with a
``kernel.scan`` leaf carrying the scan counters and kernel-backend name.
Untraced batches use the 3/4-element shapes, so tracing-off serving is
wire-identical to the untraced protocol.  ``metrics`` returns the
worker's :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`; per-worker
histograms share bucket bounds, so the pool folds them with
:meth:`~repro.obs.metrics.MetricsRegistry.merge`.

Each worker has two one-way pipes: requests in, replies out.  No
feeder thread stands between a call and its pipe: the worker blocks in
``recv``/``send``, and the gather side writes a request itself and
reads replies from whichever pipes are ready.  Its request ends are
non-blocking, because a worker may be blocked writing a large reply
while the gather side writes it a large batch; a send that finds the
pipe full reads the ready replies into an inbox, which
:meth:`ReplicaPool.recv` returns first, and retries.

A worker that hits an unexpected exception reports its traceback and
exits, and the pool raises it as a
:class:`~repro.exceptions.ServingError` on the next receive.  A worker
that dies without a word (``kill -9``) closes its pipes, so the next
receive or send to it raises a ``ServingError`` naming it at once,
instead of waiting out the pool timeout.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import multiprocessing
import os
import pickle
import select
import struct
import time
import zipfile
from multiprocessing import connection
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.index_io import is_legacy_version, is_sharded_version, load_index
from ..exceptions import InvalidParameterError, ServingError
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import remote_span
from ..query.engine import QueryEngine
from .snapshot import Snapshot

#: Default seconds the pool waits on worker replies before declaring
#: the worker dead.  Generous: snapshot loads on large graphs are slow.
DEFAULT_TIMEOUT = 120.0

#: Length prefix of one pickled message, as ``Connection.recv`` reads it.
_FRAME = struct.Struct("!i")


@contextlib.contextmanager
def read_snapshot_header(path: str, what: str = "snapshot"):
    """The lazily read ``.npz`` archive of a snapshot, for header fields.

    Only the members the caller indexes are read, so the payload stays
    on disk.  The header fields are plain int64 arrays, so nothing is
    unpickled: a member holding a pickled object is refused.  An
    unreadable archive, or one missing or pickling a requested field,
    raises :class:`~repro.exceptions.ServingError` naming ``what`` and
    the path.
    """
    try:
        with np.load(path, allow_pickle=False) as archive:
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


def _check_snapshot_format(path: str, version: int, sharded: bool) -> None:
    """Refuse, with a :class:`~repro.exceptions.ServingError`, a snapshot
    whose format the pool's workers must not load: a legacy (v1–v3) one,
    which only loads by unpickling, or one of the other tier's layout
    (a sharded manifest when ``sharded`` is false, or the reverse)."""
    if is_legacy_version(version):
        raise ServingError(
            f"snapshot {path!r} has legacy format version {version}, which "
            "loads only by unpickling, and pool workers unpickle nothing; "
            "re-publish it: load it with load_index (or load_sharded_index) "
            "and publish it through a SnapshotStore, which writes format v4 "
            "(or v6)"
        )
    if sharded and not is_sharded_version(version):
        raise ServingError(
            f"ShardPool needs a sharded (format-v3, v5 or v6) manifest; "
            f"{path!r} has single-index format version {version} (serve it "
            "through ReplicaPool, or shard it first)"
        )
    if not sharded and is_sharded_version(version):
        raise ServingError(
            f"ReplicaPool needs a single-index archive; {path!r} is a sharded "
            f"(format-v{version}) manifest (serve it through ShardPool)"
        )


def _report_worker_crash(replies, worker_id: int) -> None:
    """Ship the crashing worker's full traceback to the gather side.

    The reply carries ``traceback.format_exc()`` as a plain string —
    always picklable, unlike the exception object itself (a crash whose
    exception can't cross the pipe would otherwise be silently
    swallowed and the pool would only see an opaque dead worker).  If
    even the string can't be sent (the gather side is gone), the
    traceback goes to the worker's stderr instead of vanishing.
    """
    import sys
    import traceback

    detail = traceback.format_exc()
    try:
        replies.send(("error", worker_id, detail))
    except Exception:
        print(
            f"[worker {worker_id}] crash report lost to a closed pipe:\n{detail}",
            file=sys.stderr,
            flush=True,
        )


def _span_pair(
    span_ids,
    ctx,
    name: str,
    seconds: float,
    tags: dict,
    scan_seconds: float,
    scan_tags: dict,
) -> List[dict]:
    """One worker-side span and its ``kernel.scan`` leaf, both parented
    under the propagated trace context ``ctx``."""
    outer_id, scan_id = next(span_ids), next(span_ids)
    return [
        remote_span(ctx, outer_id, name, seconds, tags=tags),
        remote_span(
            ctx,
            scan_id,
            "kernel.scan",
            scan_seconds,
            tags=scan_tags,
            parent_id=outer_id,
        ),
    ]


class ReplicaServer:
    """What a replica worker serves: one engine over the whole snapshot.

    A worker's server answers the request kinds in :attr:`REPLIES`
    through :meth:`serve`, adopts a newer snapshot in :meth:`swap`, and
    reports :meth:`stats` and a metrics :attr:`registry`;
    :func:`worker_main` does everything else.
    """

    #: Request kind -> reply kind.
    REPLIES = {"batch": "results"}

    def __init__(self, worker_id: int, path: str, epoch: int, cache_size: int) -> None:
        self.engine = QueryEngine(
            load_index(path), cache_size=cache_size, registry=MetricsRegistry()
        )
        self.engine.snapshot_epoch = epoch
        self.engine.stats.snapshot_epoch = epoch
        self.registry = self.engine.metrics
        self._span_ids = itertools.count(1)  # process-lifetime span ordinals

    def serve(self, kind: str, requests: Sequence[Tuple], ctxs) -> Tuple[list, list]:
        """Answer one micro-batch of ``(query, k)`` requests.

        Requests are grouped by ``k`` so each group runs
        through one :meth:`~repro.query.engine.QueryEngine.top_k_many`
        call (shared workspace + within-batch dedup); answers are
        identical to per-query ``top_k`` calls, so grouping is purely an
        execution detail.  A traced batch gets one ``worker.batch`` span,
        parented to its first traced request, whose ``kernel.scan`` leaf
        sums the groups' :class:`~repro.query.stats.QueryStats` counters
        — the numbers the telemetry tests match bit-for-bit against a
        single-process engine.
        """
        t0 = perf_counter()
        engine = self.engine
        groups: Dict[int, List[int]] = {}
        for i, (_, k) in enumerate(requests):
            groups.setdefault(int(k), []).append(i)
        results: List = [None] * len(requests)
        group_stats: List = []
        for k, idxs in groups.items():
            answers = engine.top_k_many([requests[i][0] for i in idxs], k)
            for i, answer in zip(idxs, answers):
                results[i] = answer
            group_stats.append(engine.last_stats)
        seconds = perf_counter() - t0
        ctx = next((c for c in ctxs or () if c is not None), None)
        if ctx is None:
            return results, []
        counters = {
            name: sum(getattr(s, name) for s in group_stats)
            for name in (
                "n_queries", "cache_hits", "dedup_hits", "executed",
                "n_visited", "n_computed", "n_pruned",
            )
        }
        return results, _span_pair(
            self._span_ids,
            ctx,
            "worker.batch",
            seconds,
            {"batch_size": len(requests)},
            sum(s.seconds for s in group_stats),
            {"backend": engine.index._prepared.backend, **counters},
        )

    def swap(self, path: str, epoch: int) -> None:
        self.engine.swap_index(load_index(path), source_epoch=epoch)

    def stats(self) -> dict:
        return self.engine.stats.as_dict()


def worker_main(
    server_cls,
    worker_id: int,
    snapshot_path: str,
    snapshot_epoch: int,
    requests,
    replies,
    cache_size: int,
) -> None:
    """Entry point of every pool worker process (module-level for spawn).

    ``server_cls`` (:class:`ReplicaServer` or
    :class:`~repro.serving.sharded.ShardServer`) says what the worker
    serves; this loop owns the rest of the protocol: the ``ready``
    report, forward-only swaps, stats, metrics, stop, and crash reports.
    ``requests`` and ``replies`` are the worker's ends of its two pipes.
    """
    try:
        epoch = int(snapshot_epoch)
        server = server_cls(worker_id, snapshot_path, epoch, cache_size)
        replies.send(("ready", worker_id, epoch))
        while True:
            message = requests.recv()
            kind = message[0]
            if kind in server.REPLIES:
                ctxs = message[3] if len(message) > 3 else None
                answers, spans = server.serve(kind, message[2], ctxs)
                reply = (server.REPLIES[kind], worker_id, message[1], answers)
                replies.send(reply + (spans,) if spans else reply)
            elif kind == "swap":
                _, new_epoch, path = message
                # Only move forward: a stale broadcast (scheduler retry,
                # replayed message) must not roll the worker back.
                if new_epoch > epoch:
                    server.swap(path, new_epoch)
                    epoch = new_epoch
                replies.send(("swapped", worker_id, int(new_epoch)))
            elif kind == "stats":
                replies.send(("stats", worker_id, server.stats()))
            elif kind == "metrics":
                replies.send(("metrics", worker_id, server.registry.snapshot()))
            elif kind == "stop":
                replies.send(("stopped", worker_id, server.stats()))
                break
            else:
                replies.send(("error", worker_id, f"unknown message kind {kind!r}"))
                break
    except Exception:  # surface crashes instead of hanging the pool
        _report_worker_crash(replies, worker_id)


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
    timeout:
        Seconds to wait on any worker reply before raising
        :class:`~repro.exceptions.ServingError`.

    The pool is a context manager; exiting it stops the workers and
    joins them.  If any worker fails to start, the constructor stops
    and joins the ones that did before it raises.
    """

    #: What each worker serves, and the stem of its process name; the
    #: shard pool (:class:`repro.serving.sharded.ShardPool`) overrides
    #: both and inherits every pipe/lifecycle mechanism below.
    _SERVER = ReplicaServer
    _WORKER_NAME = "kdash-replica"

    def __init__(
        self,
        snapshot,
        n_workers: int,
        cache_size: int = 1024,
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
        ctx = multiprocessing.get_context()
        self._requests = []  # worker id -> our non-blocking request end
        self._replies = []  # worker id -> our reply end
        self._workers = []
        self._inbox: "collections.deque[tuple]" = collections.deque()
        self._dead: Dict[int, str] = {}  # worker id -> how its pipe closed
        self._closed = False
        for worker_id in range(n_workers):
            request_out, request_in = ctx.Pipe(duplex=False)
            reply_out, reply_in = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=worker_main,
                args=(
                    self._SERVER,
                    worker_id,
                    snapshot.path,
                    snapshot.epoch,
                    request_out,
                    reply_in,
                    cache_size,
                ),
                name=f"{self._WORKER_NAME}-{worker_id}",
                daemon=True,
            )
            process.start()
            # Drop the worker's ends before the next fork, so that only
            # this worker holds them and its death closes its pipes.
            request_out.close()
            reply_in.close()
            os.set_blocking(request_in.fileno(), False)
            self._requests.append(request_in)
            self._replies.append(reply_out)
            self._workers.append(process)
        # The reply ends still open, each with its worker id.
        self._waiting = {reply: wid for wid, reply in enumerate(self._replies)}
        try:
            for _ in range(n_workers):
                message = self.recv()
                if message[0] != "ready":
                    raise ServingError(
                        f"worker startup protocol violation: expected 'ready', "
                        f"got {message!r}"
                    )
        except BaseException:
            self.close()  # no caller holds the pool yet to close it
            raise

    def _load_snapshot_meta(self, path: str) -> None:
        """Check the snapshot's format and read what the gather side
        validates requests against, its node count, before any worker
        loads it (subclass hook; the shard pool also reads its routing
        metadata)."""
        with read_snapshot_header(path) as archive:
            n_nodes = int(archive["n_nodes"])
            version = int(archive["format_version"])
        _check_snapshot_format(path, version, sharded=False)
        self.n_nodes = n_nodes

    # ------------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return len(self._workers)

    def send(self, worker_id: int, message: tuple) -> None:
        """Low-level: write one protocol message to one worker.

        A dead worker raises :class:`ServingError`.  A full pipe is
        waited out by reading replies into the inbox (the worker may be
        blocked on its own full reply pipe), for at most ``timeout``
        seconds without progress.
        """
        if self._closed:
            raise ServingError("pool is closed")
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        frame = memoryview(_FRAME.pack(len(data)) + data)
        fd = self._requests[worker_id].fileno()
        while frame:
            try:
                frame = frame[os.write(fd, frame):]
            except BlockingIOError:
                self._make_room(worker_id)
            except BrokenPipeError:
                self._died(worker_id)
                raise self._dead_error(worker_id) from None

    def _send_batch(
        self, kind: str, worker_id: int, batch_id: int, requests, ctxs
    ) -> None:
        """Send one micro-batch; ``ctxs`` (one trace context or
        ``None`` per request) extends the envelope only when at least
        one request is traced, so an untraced stream stays
        wire-identical to the untraced protocol."""
        if ctxs is None:
            self.send(worker_id, (kind, batch_id, list(requests)))
        else:
            self.send(worker_id, (kind, batch_id, list(requests), list(ctxs)))

    def submit(self, worker_id: int, batch_id: int, requests, ctxs=None) -> None:
        """Dispatch one micro-batch of ``(query, k)`` requests to a
        worker."""
        self._send_batch("batch", worker_id, batch_id, requests, ctxs)

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
        if not self._inbox:
            self._fill(timeout or self.timeout)
        message = self._inbox.popleft()
        if message[0] == "error":
            # message[2] is the worker's full traceback (a plain string;
            # see _report_worker_crash) — re-raised here with the worker
            # identity so the gather side sees the original crash site.
            raise ServingError(f"worker {message[1]} failed:\n{message[2]}")
        return message

    def _fill(self, timeout: float) -> None:
        """Wait for replies and move one from each ready pipe into the
        inbox; a dead worker raises instead, at once."""
        if not self._dead:
            ready = connection.wait(self._waiting, timeout)
            if not ready:
                raise ServingError(f"no worker reply within {timeout:.0f}s")
            for reply in ready:
                self._read(reply)
            if self._inbox:
                return
        raise self._dead_error(next(iter(self._dead)))

    def _read(self, reply) -> None:
        """Move one message from a ready reply pipe into the inbox; a
        closed pipe marks its worker dead."""
        try:
            self._inbox.append(reply.recv())
        except (EOFError, OSError):
            self._died(self._waiting.pop(reply))

    def _make_room(self, worker_id: int) -> None:
        """Block until worker ``worker_id``'s request pipe can take more
        bytes or some reply is ready, reading the ready replies."""
        replies = {reply.fileno(): reply for reply in self._waiting}
        poller = select.poll()
        poller.register(self._requests[worker_id], select.POLLOUT)
        for reply in replies.values():
            poller.register(reply, select.POLLIN)
        events = poller.poll(self.timeout * 1000)
        if not events:
            raise ServingError(
                f"worker {worker_id} read no request within {self.timeout:.0f}s"
            )
        for fd, _ in events:
            if fd in replies:
                self._read(replies[fd])

    def _died(self, worker_id: int) -> None:
        """Record that worker ``worker_id``'s pipes closed."""
        process = self._workers[worker_id]
        process.join(1.0)  # it is exiting; reap it for the exit code
        self._dead.setdefault(
            worker_id,
            f"process {process.name} died (exit code {process.exitcode}); "
            "its pipes are closed",
        )

    def _dead_error(self, worker_id: int) -> ServingError:
        return ServingError(f"worker {worker_id} failed:\n{self._dead[worker_id]}")

    def _collect(self, kind: str) -> list:
        """Send ``(kind,)`` to every worker; their payloads by worker id
        (safe only with no batches outstanding — the scheduler
        guarantees that by draining first)."""
        for worker_id in range(self.n_workers):
            self.send(worker_id, (kind,))
        payloads: list = [None] * self.n_workers
        for _ in range(self.n_workers):
            message = self.recv()
            if message[0] != kind:
                raise ServingError(
                    f"unexpected reply while collecting {kind}: {message!r}"
                )
            payloads[message[1]] = message[2]
        return payloads

    def collect_stats(self) -> List[dict]:
        """Per-worker stats dicts (no batches may be outstanding)."""
        return self._collect("stats")

    def collect_metrics(self) -> MetricsRegistry:
        """One registry folding every worker's metrics snapshot.

        Counters add, per-worker latency histograms merge bucket-wise
        (same bounds by construction) — so pool-level p50/p95/p99 come
        out of the merged histograms directly.  Same no-outstanding-
        batches caveat as :meth:`collect_stats`.
        """
        merged = MetricsRegistry()
        for payload in self._collect("metrics"):
            merged.merge(MetricsRegistry.from_snapshot(payload))
        return merged

    # ------------------------------------------------------------------
    def close(self) -> List[dict]:
        """Stop and join every worker; returns their final stats dicts,
        one per worker that was still alive.

        Idempotent: a second close returns an empty list.
        """
        if self._closed:
            return []
        for worker_id in range(self.n_workers):
            if worker_id not in self._dead:
                with contextlib.suppress(ServingError):
                    self.send(worker_id, ("stop",))
        self._closed = True
        # Each live worker answers "stopped" and exits, closing its reply
        # pipe; late batch results and acks read meanwhile are dropped.
        deadline = time.monotonic() + self.timeout
        while self._waiting and time.monotonic() < deadline:
            for reply in connection.wait(self._waiting, deadline - time.monotonic()):
                self._read(reply)
        for process in self._workers:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=5.0)
        for end in self._requests + self._replies:
            end.close()
        return [message[2] for message in self._inbox if message[0] == "stopped"]

    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
