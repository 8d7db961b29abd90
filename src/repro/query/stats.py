"""Observability for the query serving layer.

Two granularities:

- :class:`QueryStats` — one frozen record per engine call (single query
  or batch), carrying wall time, cache/dedup accounting, the aggregated
  search counters of the underlying pruned scans, and — on a
  dynamic-graph engine — the epoch and pending-update rank the call was
  served under.  The most recent records are kept in
  :attr:`QueryEngine.history`.
- :class:`EngineStats` — monotone lifetime aggregates, cheap enough to
  export on every scrape (queries served, hit rate, total seconds,
  update batches, cache invalidations, rebuilds).

Examples
--------
>>> from repro.query import EngineStats, QueryStats
>>> s = QueryStats(mode="top_k_many", n_queries=4, cache_hits=1,
...                dedup_hits=1, seconds=0.5)
>>> s.executed
2
>>> s.queries_per_second
8.0
>>> agg = EngineStats()
>>> agg.record(s)
>>> agg.hit_rate
0.5
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass(frozen=True)
class QueryStats:
    """Per-call record emitted by every :class:`QueryEngine` method.

    Attributes
    ----------
    mode:
        ``"top_k"``, ``"top_k_many"``, ``"above_threshold"``,
        ``"top_k_personalized"`` or ``"top_k_ablation"`` (root override /
        prune=False passthroughs).
    n_queries:
        Input queries in the call (1 except for ``top_k_many``).
    cache_hits:
        Queries answered from the LRU result cache.
    dedup_hits:
        Batch queries answered by another query in the *same* batch.
    seconds:
        Wall-clock time of the whole call.
    n_visited / n_computed / n_pruned:
        Search counters summed over the scans actually executed.
    terminated_early:
        Whether any executed scan terminated on the Lemma 2 cut-off.
    epoch:
        The engine's update epoch the call was served in (0 on a static
        index; bumps once per observed update batch).
    pending_rank:
        Woodbury correction rank (distinct updated transition-matrix
        columns) in effect during the call; 0 means the clean pruned
        path.
    corrected:
        Whether executed scans went through the exact Woodbury-corrected
        (exhaustive) path instead of the pruned fast path.
    """

    mode: str
    n_queries: int
    cache_hits: int
    dedup_hits: int
    seconds: float
    n_visited: int = 0
    n_computed: int = 0
    n_pruned: int = 0
    terminated_early: bool = False
    epoch: int = 0
    pending_rank: int = 0
    corrected: bool = False

    @property
    def executed(self) -> int:
        """Scans that actually ran (inputs minus cache and dedup hits)."""
        return self.n_queries - self.cache_hits - self.dedup_hits

    @property
    def queries_per_second(self) -> float:
        """Input-query throughput of this call (0.0 for a zero-time call)."""
        if self.seconds <= 0.0:
            return 0.0
        return self.n_queries / self.seconds


@dataclass
class EngineStats:
    """Lifetime aggregates of one :class:`QueryEngine`.

    The serving counters (``calls`` … ``total_seconds``) fold in from
    per-call :class:`QueryStats` records via :meth:`record`; the dynamic
    counters (``update_batches`` … ``current_epoch``) are maintained by
    the engine's update path and stay 0 on a static index.
    """

    calls: int = 0
    queries_served: int = 0
    cache_hits: int = 0
    dedup_hits: int = 0
    scans_executed: int = 0
    corrected_queries: int = 0
    n_visited: int = 0
    n_computed: int = 0
    n_pruned: int = 0
    total_seconds: float = 0.0
    by_mode: Dict[str, int] = field(default_factory=dict)
    update_batches: int = 0
    updates_applied: int = 0
    invalidations: int = 0
    rebuilds: int = 0
    current_epoch: int = 0
    snapshot_swaps: int = 0
    snapshot_epoch: Optional[int] = None

    def record(self, stats: QueryStats) -> None:
        """Fold one per-call record into the lifetime aggregates."""
        self.calls += 1
        self.queries_served += stats.n_queries
        self.cache_hits += stats.cache_hits
        self.dedup_hits += stats.dedup_hits
        self.scans_executed += stats.executed
        if stats.corrected:
            self.corrected_queries += stats.executed
        self.n_visited += stats.n_visited
        self.n_computed += stats.n_computed
        self.n_pruned += stats.n_pruned
        self.total_seconds += stats.seconds
        self.by_mode[stats.mode] = self.by_mode.get(stats.mode, 0) + 1

    @property
    def hit_rate(self) -> float:
        """Fraction of served queries answered without a scan."""
        if self.queries_served == 0:
            return 0.0
        return (self.cache_hits + self.dedup_hits) / self.queries_served

    def as_dict(self) -> Dict[str, object]:
        """Flat dict for logging / metrics export."""
        return {
            "calls": self.calls,
            "queries_served": self.queries_served,
            "cache_hits": self.cache_hits,
            "dedup_hits": self.dedup_hits,
            "scans_executed": self.scans_executed,
            "corrected_queries": self.corrected_queries,
            "n_visited": self.n_visited,
            "n_computed": self.n_computed,
            "n_pruned": self.n_pruned,
            "total_seconds": self.total_seconds,
            "hit_rate": self.hit_rate,
            "by_mode": dict(self.by_mode),
            "update_batches": self.update_batches,
            "updates_applied": self.updates_applied,
            "invalidations": self.invalidations,
            "rebuilds": self.rebuilds,
            "current_epoch": self.current_epoch,
            "snapshot_swaps": self.snapshot_swaps,
            "snapshot_epoch": self.snapshot_epoch,
        }
