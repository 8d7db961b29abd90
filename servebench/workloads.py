"""The benchmark's named workloads and the seeded inputs they generate.

A workload fixes the graph, the serving tier and the traffic shape.  The
``--seed`` argument only drives what the program is *given*: the query
streams, the Poisson arrival schedule and the edge-update batches.  The
graph itself is pinned per workload (its generator seed is part of the
workload), so set-up cost does not move with the traffic seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

#: Query parameters shared by every workload (exact tier throughout).
K = 10
C = 0.95
ZIPF_A = 1.3

#: Requests kept in flight by the closed-loop capacity phase; below the
#: CLI's default ``max_inflight`` of 256, so that phase sheds nothing.
CLOSED_INFLIGHT = 64

#: Servers started per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Share of a run's measured seconds given to the open-loop phase; the
#: closed-loop capacity phase takes the rest.  A traced run gives this
#: share to each of its two open-loop phases (untraced, then traced).
OPEN_SHARE = 0.6
TRACE_SHARE = 0.4

#: Edge updates per prepared churn batch, and how many distinct
#: snapshots are prepared off the clock.  Swaps cycle through them under
#: fresh epochs, so a run's swap count does not multiply its set-up time.
UPDATES_PER_BATCH = 4
PREPARED_SNAPSHOTS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: Tuple  # ("scale_free", n, m, seed) | ("planted", blocks, size, seed)
    sharded: bool
    dist: str
    rate: float
    churn_every: float = 0.0

    @property
    def churn(self) -> bool:
        return self.churn_every > 0


SCALE_FREE = ("scale_free", 2000, 8000, 5)
PLANTED = ("planted", 8, 250, 7)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="replica-zipf",
            why="zipf(1.3) reads on 2 replicas at 250 req/s: about 90% are "
            "answered from the worker cache, so framing, queueing, scheduling "
            "and IPC dominate",
            graph=SCALE_FREE,
            sharded=False,
            dist="zipf",
            rate=250.0,
        ),
        Workload(
            name="sharded-uniform",
            why="uniform reads on 2 louvain shards at 30 req/s: no answer "
            "cache, each query runs a home scan plus remote rounds, so shard "
            "scans and gather rounds dominate",
            graph=PLANTED,
            sharded=True,
            dist="uniform",
            rate=30.0,
        ),
        Workload(
            name="replica-churn",
            why="replica-zipf traffic plus a snapshot hot swap every 2 s: the "
            "read path with a writer beside it (drain barrier, per-worker "
            "reload, cache drop)",
            graph=SCALE_FREE,
            sharded=False,
            dist="zipf",
            rate=250.0,
            churn_every=2.0,
        ),
    )
}


def build_graph(spec: Tuple):
    """The workload's pinned graph."""
    from repro.graph import planted_partition_graph, scale_free_digraph

    kind = spec[0]
    if kind == "scale_free":
        _, n, m, seed = spec
        return scale_free_digraph(n, m, seed=seed)
    if kind == "planted":
        # The bench_sharded_scaleout family: dense inside, sparse across.
        _, blocks, size, seed = spec
        return planted_partition_graph(
            [size] * blocks,
            p_in=min(1.0, 8.0 / size),
            p_out=0.2 / (blocks * size),
            directed=True,
            seed=seed,
        )
    raise ValueError(f"unknown graph kind {kind!r}")


def make_queries(n_nodes: int, count: int, dist: str, rng) -> List[int]:
    if dist == "zipf":
        ranks = rng.zipf(ZIPF_A, size=count)
        return np.minimum(ranks - 1, n_nodes - 1).astype(np.int64).tolist()
    return rng.integers(n_nodes, size=count).astype(np.int64).tolist()


def poisson_schedule(rate: float, seconds: float, rng) -> List[float]:
    """Send offsets (seconds from phase start) of a Poisson process."""
    count = int(rate * seconds * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    return offsets[offsets < seconds].tolist()


def make_update_batches(graph, rng) -> List[Tuple[list, list]]:
    """Churn batches drawn against a scratch copy of ``graph``."""
    from repro.serving import make_update_batch

    scratch = graph.copy()
    return [
        make_update_batch(scratch, UPDATES_PER_BATCH, rng)
        for _ in range(PREPARED_SNAPSHOTS)
    ]


@dataclass
class Inputs:
    open_offsets: List[float]
    open_queries: List[int]
    closed_queries: List[int]
    updates: List[Tuple[list, list]]


def make_inputs(
    workload: Workload, graph, seed: int, open_seconds: float, closed_seconds: float
) -> Inputs:
    """Everything the program receives for one run, from ``seed`` alone."""
    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    offsets = poisson_schedule(workload.rate, open_seconds, rng)
    open_queries = make_queries(graph.n_nodes, len(offsets), workload.dist, rng)
    # Enough closed-loop queries for several times the expected capacity;
    # the stream wraps if a faster build outruns it.
    closed_queries = make_queries(
        graph.n_nodes, max(4096, int(closed_seconds * 8000)), workload.dist, rng
    )
    updates = make_update_batches(graph, rng) if workload.churn else []
    return Inputs(offsets, open_queries, closed_queries, updates)
