"""The network front door: an asyncio TCP service over the schedulers.

The pools are in-process; this module is what turns them into a
*service*.  A :class:`FrontDoor` owns a scheduler
(:class:`~repro.serving.scheduler.MicroBatchScheduler` or
:class:`~repro.serving.sharded.ShardedScheduler`) and exposes it over a
TCP socket with the four behaviours an SLO needs:

- **admission control** — at most ``max_inflight`` requests are
  admitted at once; an overflowing request is answered with an explicit
  ``rejected`` status immediately (never a hang);
- **backpressure** — after rejecting, the connection's reader stops
  pulling frames off the socket until capacity frees up, so a client
  that keeps blasting fills its own TCP window instead of the server's
  memory;
- **per-request deadlines** — a request may carry ``timeout_ms``; a
  request whose deadline passes while queued is answered
  ``deadline_exceeded`` and *dropped before dispatch*; one that expires
  while executing gets the same status when its (discarded) result
  lands;
- **graceful drain** — :meth:`drain` (wired to SIGTERM by the CLI)
  answers new requests with ``draining`` while every admitted request
  completes on its epoch; :meth:`publish` hot-swaps snapshots at a wave
  boundary, so the scheduler's barrier semantics are preserved and
  answers stay bit-identical to a single-process engine across swaps.

Wire protocol — length-prefixed JSON frames, both directions::

    frame    := uint32_be length | payload (UTF-8 JSON object, `length` bytes)
    request  := {"id": any, "op": "query", "query": int, "k": int,
                 "timeout_ms": number?, "precision": "exact"?}
                                               # also: "ping", "info"
    response := {"id": any, "status": "ok" | "rejected" |
                 "deadline_exceeded" | "draining" | "error",
                 "items": [[node, proximity], ...]?, "epoch": int?,
                 "message": str?}

Every answer is exact.  A request may say so with ``"precision":
"exact"`` and is then answered exactly as one without the field; any
other ``precision``, or an ``eps`` field, is an ``error`` like any
other bad field.

JSON ``repr``/parse of a Python float round-trips the IEEE-754 double
exactly, so "bit-identical over the wire" is a real guarantee, asserted
by the tests against :meth:`~repro.query.engine.QueryEngine.top_k_many`.

Threading model (the scheduler is synchronous and single-owner):

- the **I/O thread** runs the asyncio event loop: accepts connections,
  reads frames, performs admission, writes responses;
- the **dispatch thread** owns the scheduler: it pulls admitted
  requests off a thread-safe queue in *waves* (everything queued at
  that moment), submits them, drains the pool, and hands every
  response of the wave to the event loop in one
  ``loop.call_soon_threadsafe`` call; the loop writes each frame
  straight to its connection.

Every terminal outcome increments exactly one of the per-status
counters, so ``ok + rejected + draining + deadline_exceeded + error ==
offered`` always reconciles — the overload acceptance test asserts it.
"""

from __future__ import annotations

import asyncio
import json
import queue as queue_module
import socket
import struct
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..exceptions import InvalidParameterError, ServingError
from ..obs.metrics import Histogram, NULL_REGISTRY
from ..query.approx import PrecisionPolicy
from .snapshot import Snapshot

#: Frame header: one big-endian uint32 payload length.
FRAME_HEADER = struct.Struct(">I")

#: Upper bound on one frame's payload; a length beyond this is treated
#: as a protocol violation (protects the server from a garbage header
#: demanding a 4 GiB read).
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Terminal response statuses.  Every admitted-or-not request receives
#: exactly one of these; the counters reconcile against ``offered``.
STATUSES = ("ok", "rejected", "draining", "deadline_exceeded", "error")


def encode_frame(payload: dict) -> bytes:
    """One wire frame: uint32-be length prefix + compact JSON."""
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return FRAME_HEADER.pack(len(data)) + data


class _Connection:
    """One client connection: its writer and its unanswered requests.

    Used only on the event loop.
    """

    __slots__ = ("writer", "pending", "idle")

    def __init__(self, writer):
        self.writer = writer
        self.pending = 0  # admitted requests not yet answered
        self.idle = None  # future the closing reader waits on, if pending

    def write(self, payload: dict) -> None:
        if not self.writer.is_closing():
            self.writer.write(encode_frame(payload))

    def answer(self, response: dict) -> None:
        """Write the response of one admitted request."""
        self.write(response)
        self.pending -= 1
        if not self.pending and self.idle is not None and not self.idle.done():
            self.idle.set_result(None)


class _Request:
    """One admitted query riding from the I/O thread to dispatch."""

    __slots__ = (
        "req_id",
        "query",
        "k",
        "deadline",
        "t_recv",
        "conn",
    )

    def __init__(self, req_id, query, k, deadline, t_recv, conn):
        self.req_id = req_id
        self.query = query
        self.k = k
        self.deadline = deadline
        self.t_recv = t_recv
        self.conn = conn


class _Publish:
    """A snapshot hot-swap control item, serialized with request waves."""

    __slots__ = ("snapshot", "done", "error")

    def __init__(self, snapshot):
        self.snapshot = snapshot
        self.done = threading.Event()
        self.error: Optional[BaseException] = None


_STOP = object()


class FrontDoor:
    """Serve a scheduler over TCP with admission control and deadlines.

    Parameters
    ----------
    scheduler:
        A started :class:`~repro.serving.scheduler.MicroBatchScheduler`
        or :class:`~repro.serving.sharded.ShardedScheduler`.  The front
        door becomes its sole driver — nothing else may submit while
        the door is running.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`address` after :meth:`start`).
    max_inflight:
        Admission bound: requests admitted but not yet answered.  On
        overflow the request is answered ``rejected`` and the connection
        stops reading until capacity frees (backpressure).
    n_nodes:
        When given, query ids are range-checked at admission, before a
        request takes an in-flight slot.  Without it an unknown node id
        is still answered ``error``: both schedulers validate it at
        submit against their pool's ``n_nodes``, which both pools read
        from the snapshot.  The CLI passes ``pool.n_nodes``.
    default_k:
        ``k`` used by requests that omit it.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  The door
        contributes ``repro_frontdoor_requests_total{outcome=...}``
        counters, a ``repro_frontdoor_inflight`` gauge and the
        ``repro_request_seconds{tier="frontdoor"}`` end-to-end latency
        histogram (synced at scrape time through a collector, like the
        engine's stats).
    wave_delay:
        Test/benchmark hook: sleep this many seconds before serving
        each dispatch wave, simulating a slower backend so overload and
        deadline paths trigger deterministically.  0 in production.
    """

    def __init__(
        self,
        scheduler,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 256,
        n_nodes: Optional[int] = None,
        default_k: int = 10,
        registry=None,
        wave_delay: float = 0.0,
    ) -> None:
        if max_inflight < 1:
            raise ServingError(
                f"max_inflight must be positive, got {max_inflight!r}"
            )
        self.scheduler = scheduler
        self.host = host
        self.port = int(port)
        self.max_inflight = int(max_inflight)
        self.n_nodes = None if n_nodes is None else int(n_nodes)
        self.default_k = int(default_k)
        self.wave_delay = float(wave_delay)
        self.metrics = NULL_REGISTRY if registry is None else registry

        self._lock = threading.Lock()
        self._inflight = 0
        self._counts: Dict[str, int] = {"offered": 0}
        self._counts.update({status: 0 for status in STATUSES})
        self._draining = False
        self._failed: Optional[str] = None
        self._idle = threading.Event()  # set whenever inflight hits 0
        self._idle.set()
        self._work_q: "queue_module.Queue" = queue_module.Queue()

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server = None
        self._capacity_event: Optional[asyncio.Event] = None
        self._io_thread: Optional[threading.Thread] = None
        self._dispatch_thread: Optional[threading.Thread] = None
        self._started = False
        self._stopped = False
        self.address: Optional[Tuple[str, int]] = None

        # End-to-end latency: receive-to-response for `ok` answers.
        # Observed only from the dispatch thread, so no locking needed.
        if self.metrics.enabled:
            self.latency = self.metrics.histogram(
                "repro_request_seconds",
                help="frame-receive to response seconds per request",
                labels={"tier": "frontdoor"},
            )
            self._mirrored: Dict[str, int] = dict.fromkeys(self._counts, 0)
            self.metrics.add_collector(self._sync_metrics)
        else:
            self.latency = Histogram(
                'repro_request_seconds{tier="frontdoor"}',
                help="frame-receive to response seconds per request",
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, timeout: float = 10.0) -> Tuple[str, int]:
        """Bind, start the I/O and dispatch threads, return ``(host, port)``."""
        if self._started:
            raise ServingError("front door already started")
        self._started = True
        bound = threading.Event()
        startup_error: List[BaseException] = []
        self._loop = asyncio.new_event_loop()
        self._io_thread = threading.Thread(
            target=self._run_loop,
            args=(bound, startup_error),
            name="frontdoor-io",
            daemon=True,
        )
        self._io_thread.start()
        if not bound.wait(timeout):
            raise ServingError("front door failed to bind within timeout")
        if startup_error:
            raise ServingError(
                f"front door failed to start: {startup_error[0]}"
            ) from startup_error[0]
        self._dispatch_thread = threading.Thread(
            target=self._dispatch_loop, name="frontdoor-dispatch", daemon=True
        )
        self._dispatch_thread.start()
        return self.address

    def _run_loop(self, bound: threading.Event, startup_error: list) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._open_server())
        except Exception as exc:  # bind failure: surface to start()
            startup_error.append(exc)
            bound.set()
            return
        bound.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self._close_server())
            self._loop.close()

    async def _open_server(self) -> None:
        self._capacity_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])

    async def _close_server(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        tasks = [
            task
            for task in asyncio.all_tasks(self._loop)
            if task is not asyncio.current_task()
        ]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def drain(self, timeout: float = 30.0) -> bool:
        """Stop admitting; wait for every admitted request to complete.

        New requests are answered ``draining`` from the moment this is
        called.  Returns ``True`` when in-flight work hit zero within
        ``timeout`` (``False`` on timeout — the door is still draining).
        """
        with self._lock:
            self._draining = True
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                if self._inflight == 0:
                    return True
                self._idle.clear()
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._idle.wait(remaining):
                with self._lock:
                    if self._inflight == 0:
                        return True
                if time.monotonic() >= deadline:
                    return False

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Drain (optionally), stop both threads, close the listener.

        Idempotent.  With ``drain=True`` this is the SIGTERM path: every
        admitted request completes, then the service goes down.
        """
        if not self._started or self._stopped:
            return
        self._stopped = True
        if drain:
            self.drain(timeout=timeout)
        else:
            with self._lock:
                self._draining = True
        self._work_q.put(_STOP)
        if self._dispatch_thread is not None:
            self._dispatch_thread.join(timeout=timeout)
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self._loop.stop)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
        if self._io_thread is not None:
            self._io_thread.join(timeout=timeout)

    def __enter__(self) -> "FrontDoor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Snapshot hot-swap
    # ------------------------------------------------------------------
    def publish(self, snapshot: Snapshot, timeout: float = 60.0) -> None:
        """Hot-swap the pool to ``snapshot`` at the next wave boundary.

        Requests admitted before this call complete on their epoch;
        requests admitted after it are served from the new epoch — the
        scheduler's barrier, preserved across the network layer.
        Blocks until the swap has been applied.
        """
        control = _Publish(snapshot)
        self._work_q.put(control)
        if not control.done.wait(timeout):
            raise ServingError(
                f"snapshot publish did not complete within {timeout:.0f}s"
            )
        if control.error is not None:
            raise control.error

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """A consistent copy of the terminal-outcome counters."""
        with self._lock:
            return dict(self._counts)

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def reconciled(self) -> bool:
        """True when every offered request has exactly one terminal status."""
        counts = self.counters()
        return counts["offered"] == sum(counts[s] for s in STATUSES)

    def _sync_metrics(self) -> None:
        """Scrape-time collector: mirror internal counters into the registry."""
        counts = self.counters()
        for key, value in counts.items():
            delta = value - self._mirrored[key]
            if delta:
                labels = {} if key == "offered" else {"outcome": key}
                self.metrics.counter(
                    "repro_frontdoor_requests_total"
                    if key != "offered"
                    else "repro_frontdoor_offered_total",
                    help="front-door requests by terminal outcome"
                    if key != "offered"
                    else "query frames received",
                    labels=labels,
                ).inc(delta)
                self._mirrored[key] = value
        self.metrics.gauge(
            "repro_frontdoor_inflight",
            help="requests admitted but not yet answered",
        ).set(self.inflight)

    def _count(self, key: str) -> None:
        with self._lock:
            self._counts[key] += 1

    # ------------------------------------------------------------------
    # I/O thread: connections, framing, admission
    # ------------------------------------------------------------------
    async def _read_frame(self, reader) -> Optional[dict]:
        try:
            header = await reader.readexactly(FRAME_HEADER.size)
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None
        (length,) = FRAME_HEADER.unpack(header)
        if length == 0 or length > MAX_FRAME_BYTES:
            raise ValueError(f"invalid frame length {length}")
        data = await reader.readexactly(length)
        payload = json.loads(data.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("frame payload must be a JSON object")
        return payload

    async def _handle_connection(self, reader, writer) -> None:
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            # Server shutdown cancelled this connection mid-frame; the
            # task finishes normally so the streams machinery doesn't
            # log a spurious "unhandled" cancellation.
            writer.close()

    async def _serve_connection(self, reader, writer) -> None:
        conn = _Connection(writer)
        try:
            while True:
                try:
                    frame = await self._read_frame(reader)
                except (ValueError, UnicodeDecodeError, RecursionError) as exc:
                    # RecursionError: json.loads on a deeply nested frame.
                    conn.write({"status": "error", "message": f"protocol error: {exc}"})
                    break
                if frame is None:
                    break
                await self._handle_frame(frame, conn)
        finally:
            # Pipelined requests still in flight get their responses
            # before the connection closes.
            if conn.pending:
                conn.idle = self._loop.create_future()
                await conn.idle
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError):  # pragma: no cover
                pass

    async def _handle_frame(self, frame: dict, conn: _Connection) -> None:
        op = frame.get("op", "query")
        req_id = frame.get("id")
        if op == "ping":
            conn.write({"id": req_id, "status": "ok", "pong": True})
            return
        if op == "info":
            with self._lock:
                inflight, draining = self._inflight, self._draining
            conn.write(
                {
                    "id": req_id,
                    "status": "ok",
                    "tier": getattr(self.scheduler, "_TIER", "?"),
                    "n_nodes": self.n_nodes,
                    "epoch": self.scheduler.pool.snapshot.epoch,
                    "max_inflight": self.max_inflight,
                    "inflight": inflight,
                    "draining": draining,
                }
            )
            return
        if op != "query":
            conn.write(
                {
                    "id": req_id,
                    "status": "error",
                    "message": f"unknown op {op!r}",
                }
            )
            return

        self._count("offered")
        error = self._validate(frame)
        if error is not None:
            self._count("error")
            conn.write({"id": req_id, "status": "error", "message": error})
            return
        with self._lock:
            if self._failed is not None:
                status, message = "error", f"service failed: {self._failed}"
            elif self._draining:
                status, message = "draining", None
            elif self._inflight >= self.max_inflight:
                status, message = "rejected", None
            else:
                self._inflight += 1
                self._idle.clear()
                status, message = None, None
        if status is not None:
            self._count(status)
            response = {"id": req_id, "status": status}
            if message is not None:
                response["message"] = message
            conn.write(response)
            if status == "rejected":
                # Backpressure: this connection stops reading until an
                # admitted request completes somewhere.
                await self._wait_capacity()
            return

        timeout_ms = frame.get("timeout_ms")
        t_recv = time.perf_counter()
        deadline = (
            None if timeout_ms is None else t_recv + float(timeout_ms) / 1000.0
        )
        conn.pending += 1
        self._work_q.put(
            _Request(
                req_id,
                int(frame["query"]),
                int(frame.get("k", self.default_k)),
                deadline,
                t_recv,
                conn,
            )
        )

    def _validate(self, frame: dict) -> Optional[str]:
        query = frame.get("query")
        if not isinstance(query, int) or isinstance(query, bool):
            return f"query must be an integer node id, got {query!r}"
        if self.n_nodes is not None and not 0 <= query < self.n_nodes:
            return f"query node {query} out of range [0, {self.n_nodes})"
        k = frame.get("k", self.default_k)
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            return f"k must be a positive integer, got {k!r}"
        timeout_ms = frame.get("timeout_ms")
        if timeout_ms is not None and (
            not isinstance(timeout_ms, (int, float))
            or isinstance(timeout_ms, bool)
            or timeout_ms <= 0
        ):
            return f"timeout_ms must be a positive number, got {timeout_ms!r}"
        if frame.get("eps") is not None:
            return "eps is not a request field: every answer is exact"
        try:
            PrecisionPolicy.resolve(frame.get("precision"))
        except InvalidParameterError as exc:
            return str(exc)
        return None

    async def _wait_capacity(self) -> None:
        while True:
            with self._lock:
                if (
                    self._inflight < self.max_inflight
                    or self._draining
                    or self._failed is not None
                ):
                    return
            self._capacity_event.clear()
            await self._capacity_event.wait()

    def _deliver(self, answered: List[Tuple[_Request, dict]]) -> None:
        """Write one wave's responses (runs on the event loop)."""
        for request, response in answered:
            request.conn.answer(response)
        self._capacity_event.set()

    # ------------------------------------------------------------------
    # Dispatch thread: waves through the scheduler
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            item = self._work_q.get()
            wave = [item]
            while True:
                try:
                    wave.append(self._work_q.get_nowait())
                except queue_module.Empty:
                    break
            stop = False
            submitted: List[Tuple[int, _Request]] = []
            answered: List[Tuple[_Request, dict]] = []
            for entry in wave:
                if entry is _STOP:
                    stop = True
                    continue
                if isinstance(entry, _Publish):
                    # Requests admitted before the publish complete on
                    # their epoch first — the barrier contract.
                    self._serve_wave(submitted, answered)
                    self._hand_off(answered)
                    submitted, answered = [], []
                    try:
                        self.scheduler.publish(entry.snapshot)
                    except BaseException as exc:
                        entry.error = exc
                    entry.done.set()
                    continue
                self._submit_request(entry, submitted, answered)
            self._serve_wave(submitted, answered)
            self._hand_off(answered)
            if stop:
                return

    def _submit_request(
        self,
        request: _Request,
        submitted: List[Tuple[int, _Request]],
        answered: List[Tuple[_Request, dict]],
    ) -> None:
        if (
            request.deadline is not None
            and time.perf_counter() >= request.deadline
        ):
            # Expired while queued: dropped before dispatch.
            answered.append(
                (request, {"id": request.req_id, "status": "deadline_exceeded"})
            )
            return
        if self._failed is not None:
            answered.append((request, self._failure(request)))
            return
        try:
            seq = self.scheduler.submit(request.query, request.k)
        except ServingError as exc:
            # A full buffer went out to a dead worker.
            self._fail(exc)
            answered.append((request, self._failure(request)))
            return
        except Exception as exc:
            answered.append(
                (
                    request,
                    {
                        "id": request.req_id,
                        "status": "error",
                        "message": f"{type(exc).__name__}: {exc}",
                    },
                )
            )
            return
        submitted.append((seq, request))

    def _fail(self, exc: ServingError) -> None:
        """The pool is gone: every later request is answered ``error``."""
        with self._lock:
            self._failed = str(exc)

    def _failure(self, request: _Request) -> dict:
        return {
            "id": request.req_id,
            "status": "error",
            "message": f"service failed: {self._failed}",
        }

    def _serve_wave(
        self,
        submitted: List[Tuple[int, _Request]],
        answered: List[Tuple[_Request, dict]],
    ) -> None:
        if not submitted:
            return
        if self.wave_delay:
            time.sleep(self.wave_delay)
        try:
            self.scheduler.drain()
            results = self.scheduler.take_results([s for s, _ in submitted])
        except ServingError as exc:
            # The pool is gone (worker crash mid-drain).  Every admitted
            # request still gets a terminal response — no hangs.
            self._fail(exc)
            answered.extend((r, self._failure(r)) for _, r in submitted)
            return
        epoch = self.scheduler.pool.snapshot.epoch
        now = time.perf_counter()
        for (_, request), result in zip(submitted, results):
            if request.deadline is not None and now >= request.deadline:
                # Completed, but past its SLO: the answer is discarded.
                answered.append(
                    (request, {"id": request.req_id, "status": "deadline_exceeded"})
                )
                continue
            self.latency.observe(now - request.t_recv)
            response = {
                "id": request.req_id,
                "status": "ok",
                "query": request.query,
                "k": request.k,
                "epoch": epoch,
                "items": [
                    [int(node), float(proximity)]
                    for node, proximity in result.items
                ],
            }
            answered.append((request, response))

    def _hand_off(self, answered: List[Tuple[_Request, dict]]) -> None:
        """Count the responses, then pass them to the event loop in one
        ``call_soon_threadsafe``."""
        if not answered:
            return
        with self._lock:
            for _, response in answered:
                self._counts[response["status"]] += 1
            self._inflight -= len(answered)
            idle = self._inflight == 0
        if idle:
            self._idle.set()
        try:
            self._loop.call_soon_threadsafe(self._deliver, answered)
        except RuntimeError:  # pragma: no cover - loop closed mid-shutdown
            pass


class FrontDoorClient:
    """A blocking front-door client speaking the framed-JSON protocol.

    Supports both request/response (:meth:`request`) and pipelined use
    (:meth:`send` N times, :meth:`recv` N times) — the latter is what
    the open-loop load generator and the overload tests drive.  One
    client wraps one TCP connection; it is not thread-safe for
    concurrent senders, but one sender thread and one receiver thread
    (the loadgen split) is safe because send and recv touch disjoint
    socket directions.
    """

    def __init__(
        self, host: str, port: int, timeout: Optional[float] = 60.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._recv_buffer = b""
        self._next_id = 0

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "FrontDoorClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- low level -----------------------------------------------------
    def send(self, payload: dict) -> object:
        """Send one frame; fills in ``id`` if absent and returns it."""
        if "id" not in payload:
            payload = dict(payload)
            payload["id"] = self._next_id
            self._next_id += 1
        self._sock.sendall(encode_frame(payload))
        return payload["id"]

    def _read_exact(self, n: int) -> bytes:
        while len(self._recv_buffer) < n:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ServingError(
                    "front-door connection closed mid-response"
                )
            self._recv_buffer += chunk
        data, self._recv_buffer = self._recv_buffer[:n], self._recv_buffer[n:]
        return data

    def recv(self) -> dict:
        """Block for the next response frame."""
        (length,) = FRAME_HEADER.unpack(self._read_exact(FRAME_HEADER.size))
        if length == 0 or length > MAX_FRAME_BYTES:
            raise ServingError(f"invalid response frame length {length}")
        return json.loads(self._read_exact(length).decode("utf-8"))

    # -- high level ----------------------------------------------------
    def query(
        self,
        query: int,
        k: int = 10,
        timeout_ms: Optional[float] = None,
        req_id=None,
    ) -> dict:
        """One query round-trip; returns the response dict."""
        payload: Dict[str, object] = {"op": "query", "query": int(query), "k": int(k)}
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        if req_id is not None:
            payload["id"] = req_id
        return self.request(payload)

    def request(self, payload: dict) -> dict:
        self.send(payload)
        return self.recv()

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def info(self) -> dict:
        return self.request({"op": "info"})
