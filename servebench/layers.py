"""Per-layer metrics of a traced run, measured from outside the program.

Two sources feed them:

- the timing proxies in the server process (see ``server.py``), joined
  with the client's send/receive times.  Every timestamp on both sides is
  ``time.perf_counter()``, which on Linux reads ``CLOCK_MONOTONIC`` and is
  therefore comparable across processes on one host;
- in-process replays of the run's distinct queries against the same
  snapshot, for the kernel, the engine and snapshot loading.

Reconciliation: per request, the end-to-end latency (from the scheduled
send) splits into the generator's lag, the front door's time on either
side of the dispatch wave, the scheduler's own time in the calls the
request waited on, and the pool calls nested inside those.  What no probe
covers is the dispatch thread's time between scheduler calls; its mean,
as a share of the mean latency, must stay within ``RECONCILE_TOL``.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter
from typing import Dict, List, Sequence

import numpy as np

#: Largest unattributed share of mean latency the breakdown may leave.
RECONCILE_TOL = 0.05

#: Distinct queries replayed in-process per traced run.
REPLAY_QUERIES = 200


def pct(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def request_breakdown(phase, report: dict, n_workers: int) -> Dict[str, float]:
    """Front door, scheduler and pool metrics plus the reconciliation."""
    submits = report["submits"]
    waves = report["waves"]
    n = len(phase.sent)
    if len(submits) != n or sum(w[0] for w in waves) != n:
        raise RuntimeError(
            f"traced phase: {n} requests sent but {len(submits)} submits in "
            f"{sum(w[0] for w in waves)} wave slots; cannot join them"
        )
    pool_calls = sorted(report["pool_calls"])
    pool_t0 = [c[0] for c in pool_calls]
    pool_prefix = np.concatenate(([0.0], np.cumsum([c[1] - c[0] for c in pool_calls])))
    submit_dur = [t1 - t0 for t0, t1 in submits]

    lag, door, sched, pool, residual, e2e = [], [], [], [], [], []
    queue_wait, door_self = [], []
    start = 0
    for size, d0, d1, tk0, tk1 in waves:
        fixed = (d1 - d0) + (tk1 - tk0)
        wave_calls = sum(submit_dur[start : start + size]) + fixed
        suffix = 0.0
        for i in range(start + size - 1, start - 1, -1):
            suffix += submit_dur[i]
            s0 = submits[i][0]
            calls = suffix + fixed
            lo = bisect.bisect_left(pool_t0, s0)
            hi = bisect.bisect_left(pool_t0, tk1)
            in_pool = float(pool_prefix[hi] - pool_prefix[lo])
            door_in = s0 - phase.sent[i]
            door_out = phase.received[i] - tk1
            lag.append(phase.sent[i] - phase.scheduled[i])
            door.append(door_in + door_out)
            sched.append(calls - in_pool)
            pool.append(in_pool)
            residual.append((tk1 - s0) - calls)
            e2e.append(phase.received[i] - phase.scheduled[i])
            queue_wait.append(door_in)
            door_self.append(phase.received[i] - phase.sent[i] - wave_calls)
        start += size

    batches = report["batches"]
    rtt = [b[0] for b in batches]
    worker_s = [b[1] for b in batches]
    scan_s = [b[2] for b in batches]
    sizes = [b[3] for b in batches]
    mean_e2e = statistics.fmean(e2e)
    return {
        "frontdoor.queue_wait_ms.p50": pct(queue_wait, 50) * 1e3,
        "frontdoor.queue_wait_ms.p99": pct(queue_wait, 99) * 1e3,
        "frontdoor.self_ms.p50": pct(door_self, 50) * 1e3,
        "frontdoor.wave_size.mean": n / len(waves),
        "scheduler.submit_us.p50": pct(submit_dur, 50) * 1e6,
        "scheduler.drain_ms.p50": pct([w[2] - w[1] for w in waves], 50) * 1e3,
        "scheduler.drain_ms.p99": pct([w[2] - w[1] for w in waves], 99) * 1e3,
        "scheduler.batch_fill.mean": statistics.fmean(sizes),
        "scheduler.rounds_per_query": sum(sizes) / n,
        "pool.ipc_ms.p50": pct([r - w for r, w in zip(rtt, worker_s)], 50) * 1e3,
        "pool.worker_busy_frac": sum(worker_s) / (n_workers * phase.seconds),
        "kernel.pool_share": sum(scan_s) / sum(rtt),
        "kernel.latency_share": sum(scan_s) / n / mean_e2e,
        "layer.loadgen_ms.mean": statistics.fmean(lag) * 1e3,
        "layer.frontdoor_ms.mean": statistics.fmean(door) * 1e3,
        "layer.scheduler_ms.mean": statistics.fmean(sched) * 1e3,
        "layer.pool_ms.mean": statistics.fmean(pool) * 1e3,
        "reconcile.e2e_ms.mean": mean_e2e * 1e3,
        "reconcile.residual_frac": statistics.fmean(residual) / mean_e2e,
    }


def swap_breakdown(publishes: List[list]) -> Dict[str, float]:
    """Barrier (publish → broadcast) and reload (broadcast → last ack)."""
    return {
        "swap.barrier_ms": statistics.median(b - t0 for t0, b, _, _ in publishes)
        * 1e3,
        "swap.reload_ms": statistics.median(a - b for _, b, a, _ in publishes) * 1e3,
    }


def _timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return perf_counter() - t0, out


def replay(index, sharded, queries: Sequence[int], k: int, sharded_tier: bool):
    """Kernel, shard-kernel and engine replays of the run's queries.

    ``index`` is the single-index snapshot (a built ``KDash``) and
    ``sharded`` a fully loaded ``ShardedIndex`` of the same graph.  Work
    counts come from the tier the workload serves through: the pruned
    scan for replicas, the scatter-gather plan for shards.
    """
    from repro.core.sharded import canonical_heap, scan_shard
    from repro.query import QueryEngine, ScatterGatherPlanner
    from repro.query.kernel import pruned_scan

    distinct = sorted(set(queries))[:REPLAY_QUERIES]
    prepared = index.prepared
    y = prepared.workspace()
    engine = QueryEngine(index, cache_size=0)
    scan_us, overhead_us, computed, visited = [], [], [], []
    for q in distinct:
        t0 = perf_counter()
        rows = prepared.scatter_column(y, q)
        scan = pruned_scan(
            prepared, y, (q,), k=k, total_mass=prepared.total_mass_of(q)
        )
        prepared.clear_rows(y, rows)
        t_scan = perf_counter() - t0
        t_many, _ = _timed(engine.top_k_many, [q], k)
        scan_us.append(t_scan * 1e6)
        overhead_us.append((t_many - t_scan) * 1e6)
        computed.append(scan.n_computed)
        visited.append(scan.n_visited)

    ys = sharded.workspace()
    shard_us = []
    for q in distinct:
        rows, vals = sharded.scatter_column(ys, q)
        ymax = float(vals.max()) if vals.size else 0.0
        heap = canonical_heap(sharded.n, k)
        home = sharded.shard(sharded.home_shard(q))
        t_shard, _ = _timed(scan_shard, home, sharded.c, ys, ymax, heap)
        sharded.clear_rows(ys, rows)
        shard_us.append(t_shard * 1e6)

    if sharded_tier:
        planner = ScatterGatherPlanner(sharded)
        planner.top_k_many(distinct, k)
        stats = planner.stats
        computed_per_query = stats.nodes_computed / stats.queries
        visited_per_query = stats.nodes_checked / stats.queries
    else:
        computed_per_query = statistics.fmean(computed)
        visited_per_query = statistics.fmean(visited)
    return {
        "kernel.scan_us.p50": pct(scan_us, 50),
        "kernel.shard_scan_us.p50": pct(shard_us, 50),
        "kernel.computed_per_query": computed_per_query,
        "kernel.visited_per_query": visited_per_query,
        "engine.overhead_us.p50": pct(overhead_us, 50),
    }
