"""The unified query subsystem: one kernel, prepared state, a serving engine.

Layering (bottom up):

- :mod:`repro.query.prepared` — :class:`PreparedIndex`, the
  query-invariant conversions cached once at build time;
- :mod:`repro.query.kernel` — :func:`pruned_scan`, Algorithm 4 realised
  exactly once and parameterised by seed set, traversal schedule and
  stopping rule (every public query mode of
  :class:`~repro.core.kdash.KDash` is a thin adapter over it);
- :mod:`repro.query.engine` — :class:`QueryEngine`, the batched /
  cached / observable serving surface, now mutable: it serves
  :class:`~repro.core.dynamic.DynamicKDash` graphs with per-update-batch
  epochs, atomic cache invalidation and a :class:`RebuildPolicy` that
  decides when to swap in a freshly built index;
- :mod:`repro.query.planner` — :class:`ScatterGatherPlanner`, exact
  top-k over a partition-:class:`~repro.core.sharded.ShardedIndex`:
  home shard first, remaining shards in descending bound order, whole
  shards skipped once their bound falls below the running K-th
  proximity — bit-identical answers to the single-index engine;
- :mod:`repro.query.approx` — :class:`PrecisionPolicy`, the one check
  of a request's ``precision``: only ``exact`` is served;
- :mod:`repro.query.stats` — :class:`QueryStats` (per call) and
  :class:`EngineStats` (lifetime aggregates), both epoch/staleness
  aware.
"""

from .approx import PrecisionPolicy
from .kernel import ScanResult, pruned_scan, scan_to_topk
from .prepared import PreparedIndex
from .engine import QueryEngine, RebuildPolicy
from .planner import PlanStats, PlannerStats, ScatterGatherPlanner
from .stats import EngineStats, QueryStats

__all__ = [
    "PrecisionPolicy",
    "PreparedIndex",
    "pruned_scan",
    "scan_to_topk",
    "ScanResult",
    "QueryEngine",
    "RebuildPolicy",
    "ScatterGatherPlanner",
    "PlanStats",
    "PlannerStats",
    "QueryStats",
    "EngineStats",
]
