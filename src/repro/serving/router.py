"""Request routing policies for the replica pool.

A router maps ``(query node, number of workers)`` to a worker id.  Two
policies, matching the two things a K-dash replica pool can optimise:

- :class:`RoundRobinRouter` spreads load evenly — best when queries are
  mostly unique and the goal is to keep every worker busy;
- :class:`ConsistentHashRouter` pins each query *root* to a stable
  worker — repeated queries for the same root always land on the same
  replica, so that replica's LRU result cache (and its warm workspace)
  absorbs them.  Real proximity traffic is heavily skewed, which makes
  affinity routing the default worth benchmarking
  (``benchmarks/bench_serving_scaleout.py`` measures the hit-rate gap).

Routing must be *deterministic across processes and runs* — the
scheduler routes in the parent while results are compared against
single-process references in tests — so the hash policy uses CRC32, not
Python's per-process-salted ``hash``.

Examples
--------
>>> r = RoundRobinRouter()
>>> [r.route(q, 3) for q in (7, 7, 7, 7)]
[0, 1, 2, 0]
>>> h = ConsistentHashRouter()
>>> h.route(7, 3) == h.route(7, 3)
True
"""

from __future__ import annotations

import bisect
import zlib
from typing import List, Tuple

from ..exceptions import InvalidParameterError

#: Router policy names accepted by :func:`make_router` (and the CLI).
ROUTER_NAMES = ("rr", "hash")


class Router:
    """Routing policy interface: stateful, one instance per scheduler."""

    def route(self, query: int, n_workers: int) -> int:
        """Worker id in ``0..n_workers-1`` for this query."""
        raise NotImplementedError


class RoundRobinRouter(Router):
    """Cycle through the workers regardless of the query."""

    def __init__(self) -> None:
        self._next = 0

    def route(self, query: int, n_workers: int) -> int:
        worker = self._next % n_workers
        self._next = (self._next + 1) % n_workers
        return worker


class ConsistentHashRouter(Router):
    """Hash ring with virtual nodes: same root → same worker, always.

    Each worker owns ``replicas`` points on a 32-bit ring; a query goes
    to the owner of the first point at or after ``crc32(query)``.  The
    virtual nodes smooth the load split (~5% imbalance at 64 replicas),
    and the ring property keeps most assignments stable when the worker
    count changes — only the keys between a departed worker's points
    move.

    The ring is built lazily per observed ``n_workers``, so one router
    instance can serve pools of different sizes (the benchmark sweeps
    worker counts through a single policy object).
    """

    def __init__(self, replicas: int = 64) -> None:
        if replicas <= 0:
            raise InvalidParameterError(
                f"replicas must be positive, got {replicas!r}"
            )
        self.replicas = replicas
        self._rings: dict = {}

    def _ring(self, n_workers: int) -> Tuple[List[int], List[int]]:
        ring = self._rings.get(n_workers)
        if ring is None:
            points = []
            for worker in range(n_workers):
                for replica in range(self.replicas):
                    key = f"worker-{worker}:{replica}".encode()
                    points.append((zlib.crc32(key), worker))
            points.sort()
            ring = ([p for p, _ in points], [w for _, w in points])
            self._rings[n_workers] = ring
        return ring

    def route(self, query: int, n_workers: int) -> int:
        if n_workers == 1:
            return 0
        hashes, owners = self._ring(n_workers)
        point = zlib.crc32(str(int(query)).encode())
        idx = bisect.bisect_left(hashes, point)
        if idx == len(hashes):  # wrap around the ring
            idx = 0
        return owners[idx]


def make_router(policy) -> Router:
    """Resolve a policy name (``"rr"`` / ``"hash"``) or pass through.

    Accepts an already-constructed :class:`Router` unchanged so callers
    can inject custom policies (e.g. a locality-aware router over a
    partitioned graph).
    """
    if isinstance(policy, Router):
        return policy
    if policy == "rr":
        return RoundRobinRouter()
    if policy == "hash":
        return ConsistentHashRouter()
    raise InvalidParameterError(
        f"unknown router policy {policy!r}; expected one of {ROUTER_NAMES} "
        "or a Router instance"
    )
