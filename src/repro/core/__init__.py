"""The paper's primary contribution: the K-dash top-k RWR index.

- :class:`~repro.core.kdash.KDash` — build-once / query-many index
  combining the sparse triangular inverses (Section 4.2) with the
  BFS-tree upper-bound pruning (Section 4.3, Algorithm 4);
- :class:`~repro.core.estimator.ProximityEstimator` — Definitions 1–2,
  the O(1) incremental upper bound;
- :class:`~repro.core.bfs_tree.BFSTree` — layered visit order;
- :class:`~repro.core.topk.TopKResult` — query result with search
  statistics (visited / computed / pruned counts for Figures 7 and 9);
- :class:`~repro.core.sharded.ShardedIndex` — the index split into
  bound-prunable shards (Louvain or range partitions) for the
  scatter-gather tier;
- :mod:`repro.core.index_io` — index persistence (v1/v2/v4 single-index
  archives, v3/v5/v6 sharded manifests).

All query modes execute on the single
:func:`~repro.query.kernel.pruned_scan` kernel in :mod:`repro.query`,
which also provides the batched serving layer
(:class:`~repro.query.engine.QueryEngine`).
"""

from .bfs_tree import BFSTree
from .dynamic import DynamicKDash, UpdateReport
from .estimator import ProximityEstimator
from .index_io import (
    load_index,
    load_sharded_index,
    read_format_version,
    save_index,
    save_sharded_index,
)
from .kdash import KDash
from .sharded import (
    SHARD_PARTITIONERS,
    ShardIndex,
    ShardSummary,
    ShardedIndex,
    shard_assignment,
)
from .topk import TopKResult

__all__ = [
    "KDash",
    "DynamicKDash",
    "UpdateReport",
    "ProximityEstimator",
    "BFSTree",
    "TopKResult",
    "ShardedIndex",
    "ShardIndex",
    "ShardSummary",
    "shard_assignment",
    "SHARD_PARTITIONERS",
    "save_index",
    "load_index",
    "save_sharded_index",
    "load_sharded_index",
    "read_format_version",
]
