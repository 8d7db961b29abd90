"""Load generation for the serving tier: streams in, throughput out.

Shared by the ``loadgen`` CLI subcommand and
``benchmarks/bench_serving_scaleout.py`` so both exercise the pool the
same way.  Two knobs matter for a K-dash replica pool and both are
modelled here:

- **query skew** — real proximity traffic is zipf-like (a few hot roots
  dominate).  Skew is what separates the routing policies: consistent
  hashing turns repetition into per-replica cache hits, round-robin
  smears it across workers.
- **update churn** — a stream can interleave edge-update batches; each
  batch flows through the :class:`~repro.serving.publisher.SnapshotPublisher`
  and hot-swaps the pool, exactly the production write path.

Everything is seeded and deterministic: the same spec replayed against
a single-process engine must produce bit-identical results (the
equivalence tests rely on it).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import InvalidParameterError, ServingError
from .frontdoor import FrontDoorClient

#: Query distributions understood by :func:`make_queries`.
QUERY_DISTS = ("zipf", "uniform")


def make_queries(
    n_nodes: int,
    count: int,
    dist: str = "zipf",
    seed: int = 0,
    zipf_a: float = 1.3,
) -> List[int]:
    """A reproducible query stream over ``0..n_nodes-1``.

    ``zipf`` maps zipf ranks onto node ids (node 0 hottest) — the skewed
    shape of production traffic; ``uniform`` is the cache-hostile
    baseline.
    """
    if dist not in QUERY_DISTS:
        raise InvalidParameterError(
            f"unknown query distribution {dist!r}; expected one of {QUERY_DISTS}"
        )
    rng = np.random.default_rng(seed)
    if dist == "zipf":
        ranks = rng.zipf(zipf_a, size=count)
        return np.minimum(ranks - 1, n_nodes - 1).astype(np.int64).tolist()
    return rng.integers(n_nodes, size=count).astype(np.int64).tolist()


def make_update_batch(
    graph,
    size: int,
    rng: np.random.Generator,
) -> Tuple[List[tuple], List[Tuple[int, int]]]:
    """One mixed insert/delete batch, applied to ``graph`` as it is drawn.

    Mutating ``graph`` (the caller's scratch copy) while drawing keeps
    every delete aimed at an existing edge, so the identical batch list
    replays cleanly against any consumer.  Each ``(u, v)`` pair is
    touched at most once per batch: ``apply_updates`` replays deletes
    *before* inserts, so a batch that inserted an edge and then deleted
    it again would order the delete first and crash on a missing edge.

    On very small graphs the pair space can be exhausted before ``size``
    is reached; the batch is then simply smaller (never empty — a graph
    needs at least two nodes, enforced here).
    """
    n = graph.n_nodes
    if n < 2:
        raise InvalidParameterError(
            f"update batches need at least 2 nodes, got a graph with {n}"
        )
    inserts: List[tuple] = []
    deletes: List[Tuple[int, int]] = []
    touched: set = set()
    attempts = 0
    while len(inserts) + len(deletes) < size and attempts < 100 * size:
        attempts += 1
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v or (u, v) in touched:
            continue
        if graph.has_edge(u, v) and rng.random() < 0.25:
            graph.remove_edge(u, v)
            deletes.append((u, v))
            touched.add((u, v))
        elif not graph.has_edge(u, v):
            weight = float(rng.integers(1, 4))
            graph.add_edge(u, v, weight)
            inserts.append((u, v, weight))
            touched.add((u, v))
    return inserts, deletes


@dataclass
class LoadgenReport:
    """What one load run did and how fast it went."""

    n_queries: int
    k: int
    workers: int
    router: str
    batch_size: int
    seconds: float
    update_batches: int = 0
    updates_applied: int = 0
    snapshots_published: int = 0
    pool_stats: Dict[str, object] = field(default_factory=dict)
    per_worker_stats: List[dict] = field(default_factory=list)
    routed_counts: List[int] = field(default_factory=list)
    #: Per-request submit→result latency envelope (count/mean/min/max/
    #: p50/p95/p99), from the scheduler's ``repro_request_seconds``
    #: histogram.  Empty when the scheduler ran without a registry —
    #: mean throughput alone hides the tail this exposes.
    latency: Dict[str, float] = field(default_factory=dict)

    @property
    def queries_per_second(self) -> float:
        if self.seconds <= 0.0:
            return 0.0
        return self.n_queries / self.seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "n_queries": self.n_queries,
            "k": self.k,
            "workers": self.workers,
            "router": self.router,
            "batch_size": self.batch_size,
            "seconds": self.seconds,
            "queries_per_second": self.queries_per_second,
            "update_batches": self.update_batches,
            "updates_applied": self.updates_applied,
            "snapshots_published": self.snapshots_published,
            "pool_stats": self.pool_stats,
            "routed_counts": list(self.routed_counts),
            "latency": dict(self.latency),
        }


def run_load(
    scheduler,
    queries: Sequence[int],
    k: int = 10,
    publisher=None,
    update_every: int = 0,
    updates_per_batch: int = 4,
    seed: int = 0,
    router_name: str = "?",
) -> LoadgenReport:
    """Push a query stream through a scheduler, optionally churning updates.

    With ``update_every > 0`` (and a ``publisher``), after every
    ``update_every`` queries one update batch is applied through the
    publisher and the resulting snapshot is hot-swapped into the pool —
    the full write path, measured inline with the reads.

    The scheduler's buffers are flushed at chunk boundaries and the run
    is fully drained before timing stops, so ``seconds`` covers every
    scheduled query.
    """
    if update_every and publisher is None:
        raise InvalidParameterError(
            "update_every needs a SnapshotPublisher to apply batches through"
        )
    rng = np.random.default_rng(seed + 1)
    scratch = publisher.engine.dynamic.graph.copy() if publisher else None
    queries = list(queries)
    chunk = update_every if update_every else len(queries) or 1
    update_batches = updates_applied = snapshots = 0
    seqs: List[int] = []

    t0 = time.perf_counter()
    for start in range(0, len(queries), chunk):
        for q in queries[start : start + chunk]:
            seqs.append(scheduler.submit(q, k))
        if update_every and start + chunk < len(queries):
            inserts, deletes = make_update_batch(
                scratch, updates_per_batch, rng
            )
            report, snapshot = publisher.apply_and_publish(inserts, deletes)
            scheduler.publish(snapshot)
            update_batches += 1
            updates_applied += report.n_inserted + report.n_deleted
            snapshots += 1
    scheduler.drain()
    seconds = time.perf_counter() - t0

    results = scheduler.take_results(seqs)
    if len(results) != len(queries):
        # Not an assert: a lost result must surface in production runs
        # too, and `python -O` strips asserts exactly there.
        raise ServingError(
            f"scheduler returned {len(results)} results for "
            f"{len(queries)} queries — results were lost"
        )
    per_worker = scheduler.collect_stats()
    latency = getattr(scheduler, "latency", None)
    envelope = (
        latency.percentiles()
        if latency is not None and getattr(scheduler.metrics, "enabled", False)
        else {}
    )
    return LoadgenReport(
        n_queries=len(queries),
        k=k,
        workers=scheduler.pool.n_workers,
        router=router_name,
        batch_size=scheduler.batch_size,
        seconds=seconds,
        update_batches=update_batches,
        updates_applied=updates_applied,
        snapshots_published=snapshots,
        pool_stats=scheduler.aggregate_stats(per_worker),
        per_worker_stats=per_worker,
        routed_counts=list(scheduler.routed_counts),
        latency=envelope,
    )

# ----------------------------------------------------------------------
# Open-loop generation against the TCP front door
# ----------------------------------------------------------------------
#
# ``run_load`` above is *closed-loop*: the driver waits for the pool, so
# offered load automatically tracks capacity and the system is never
# overloaded.  Real traffic is not so polite — arrivals come from
# independent users who neither know nor care how busy the service is.
# The open-loop driver models that: send times are drawn up front from a
# Poisson process at the offered rate and honoured regardless of how
# fast responses come back, which is the only way to ever observe the
# front door's rejection and deadline machinery doing its job.


def poisson_arrivals(count: int, rate: float, seed: int = 0) -> np.ndarray:
    """``count`` cumulative arrival offsets (seconds) at ``rate`` req/s.

    Inter-arrival gaps are exponential — a Poisson process — and seeded,
    so a sweep replays the identical arrival schedule at every rate
    multiplier.
    """
    if rate <= 0:
        raise InvalidParameterError(
            f"arrival rate must be positive, got {rate!r}"
        )
    if count < 1:
        raise InvalidParameterError(
            f"arrival count must be positive, got {count!r}"
        )
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


@dataclass
class OpenLoopReport:
    """One open-loop run: offered load in, terminal statuses + tail out."""

    n_offered: int
    rate_offered: float
    k: int
    seconds: float
    #: Terminal-status histogram (``ok``/``rejected``/``draining``/
    #: ``deadline_exceeded``/``error``) over the responses received.
    statuses: Dict[str, int] = field(default_factory=dict)
    #: Client-side send→response latency envelope of the ``ok`` subset.
    latency: Dict[str, float] = field(default_factory=dict)
    #: Transport-level failures (connection died mid-run), not statuses.
    transport_errors: List[str] = field(default_factory=list)

    @property
    def n_ok(self) -> int:
        return self.statuses.get("ok", 0)

    @property
    def n_responses(self) -> int:
        return sum(self.statuses.values())

    @property
    def achieved_qps(self) -> float:
        return self.n_ok / self.seconds if self.seconds > 0 else 0.0

    @property
    def reject_rate(self) -> float:
        if not self.n_offered:
            return 0.0
        rejected = self.statuses.get("rejected", 0) + self.statuses.get(
            "draining", 0
        )
        return rejected / self.n_offered

    @property
    def reconciled(self) -> bool:
        """Every offered request received exactly one terminal response."""
        return self.n_responses == self.n_offered

    def as_dict(self) -> Dict[str, object]:
        return {
            "n_offered": self.n_offered,
            "rate_offered": self.rate_offered,
            "k": self.k,
            "seconds": self.seconds,
            "achieved_qps": self.achieved_qps,
            "reject_rate": self.reject_rate,
            "reconciled": self.reconciled,
            "statuses": dict(self.statuses),
            "latency": dict(self.latency),
            "transport_errors": list(self.transport_errors),
        }


def _latency_envelope(latencies: List[float]) -> Dict[str, float]:
    if not latencies:
        return {}
    arr = np.asarray(latencies, dtype=np.float64)
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
    }


def run_open_loop(
    host: str,
    port: int,
    queries: Sequence[int],
    k: int = 10,
    rate: float = 500.0,
    timeout_ms: Optional[float] = None,
    seed: int = 0,
    settle_timeout: float = 60.0,
) -> OpenLoopReport:
    """Offer ``queries`` to a front door at ``rate`` req/s, open-loop.

    One pipelined connection, two threads: the sender honours the
    pre-drawn Poisson schedule (it never waits for responses — that
    would close the loop), the receiver matches responses to requests by
    ``id``.  The front door's terminal-response contract is what makes
    this terminate: every offered request is answered with ``ok``,
    ``rejected``, ``deadline_exceeded``, ``draining``, or ``error``.
    """
    queries = [int(q) for q in queries]
    arrivals = poisson_arrivals(len(queries), rate, seed=seed)
    client = FrontDoorClient(host, port, timeout=settle_timeout)
    send_times: Dict[int, float] = {}
    responses: Dict[int, Tuple[dict, float]] = {}
    transport_errors: List[str] = []
    done = threading.Event()

    def receive() -> None:
        try:
            for _ in range(len(queries)):
                response = client.recv()
                responses[response.get("id")] = (
                    response,
                    time.perf_counter(),
                )
        except Exception as exc:  # transport failure, not a status
            transport_errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            done.set()

    receiver = threading.Thread(
        target=receive, name="loadgen-recv", daemon=True
    )
    receiver.start()
    t0 = time.perf_counter()
    for i, (query, offset) in enumerate(zip(queries, arrivals)):
        delay = (t0 + offset) - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        payload: Dict[str, object] = {
            "op": "query",
            "id": i,
            "query": query,
            "k": int(k),
        }
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        send_times[i] = time.perf_counter()
        try:
            client.send(payload)
        except OSError as exc:
            transport_errors.append(f"{type(exc).__name__}: {exc}")
            break
    done.wait(timeout=settle_timeout)
    seconds = time.perf_counter() - t0
    client.close()
    receiver.join(timeout=5.0)

    statuses: Dict[str, int] = {}
    ok_latencies: List[float] = []
    for req_id, (response, t_recv) in responses.items():
        status = response.get("status", "error")
        statuses[status] = statuses.get(status, 0) + 1
        if status == "ok" and req_id in send_times:
            ok_latencies.append(t_recv - send_times[req_id])
    return OpenLoopReport(
        n_offered=len(queries),
        rate_offered=float(rate),
        k=int(k),
        seconds=seconds,
        statuses=statuses,
        latency=_latency_envelope(ok_latencies),
        transport_errors=transport_errors,
    )


def saturation_sweep(
    host: str,
    port: int,
    n_nodes: int,
    rates: Sequence[float],
    queries_per_rate: int = 300,
    k: int = 10,
    dist: str = "zipf",
    timeout_ms: Optional[float] = None,
    seed: int = 0,
) -> List[OpenLoopReport]:
    """One :func:`run_open_loop` per offered rate, ascending.

    The classic saturation curve: offered load vs achieved QPS vs
    p50/p95/p99 vs reject rate.  Below the knee achieved tracks offered
    and rejects stay at zero; past it achieved plateaus and the
    admission controller starts shedding — the whole point of the
    front door over a bare socket.
    """
    reports = []
    for i, rate in enumerate(sorted(rates)):
        queries = make_queries(
            n_nodes, queries_per_rate, dist=dist, seed=seed + i
        )
        reports.append(
            run_open_loop(
                host,
                port,
                queries,
                k=k,
                rate=rate,
                timeout_ms=timeout_ms,
                seed=seed + i,
            )
        )
    return reports
