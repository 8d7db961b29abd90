"""Cluster reordering (Algorithm 2 of the paper).

1. Partition the graph into κ communities with the Louvain method.
2. Create an empty border partition ``κ+1``.
3. Move every node that has an edge crossing into a *different* partition
   to the border partition.
4. Arrange nodes partition by partition, border last.

The reordered matrix ``A'`` becomes doubly-bordered block diagonal
(Figure 1-(2) / footnote 4): for any pair of nodes left in distinct
non-border partitions there is no edge, so the off-diagonal blocks outside
the border strip are exactly zero.  That structure confines LU fill-in to
the diagonal blocks and the border rows/columns.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..community import Partition, louvain_communities
from ..exceptions import GraphError
from ..graph.digraph import DiGraph
from .base import ReorderingStrategy
from .permutation import Permutation


def border_partition(graph: DiGraph, partition: Partition) -> np.ndarray:
    """Reassign cross-partition nodes to a new border partition.

    Returns an assignment vector over ``0..κ`` where κ (the largest
    label) is the border: a node lands there iff it has an in- or
    out-edge to a node of a different original community (Algorithm 2
    lines 3–6).  Nodes keep their Louvain community id otherwise.
    A partition of another number of nodes raises
    :class:`~repro.exceptions.GraphError`.
    """
    if partition.n_nodes != graph.n_nodes:
        raise GraphError(
            f"partition covers {partition.n_nodes} nodes, graph has {graph.n_nodes}"
        )
    assignment = partition.assignment.copy()
    border_id = partition.n_communities  # the "κ+1-th partition"
    crosses = np.zeros(graph.n_nodes, dtype=bool)
    for u, v, _ in graph.edges():
        if assignment[u] != assignment[v]:
            crosses[u] = True
            crosses[v] = True
    assignment[crosses] = border_id
    return assignment


class ClusterReordering(ReorderingStrategy):
    """Louvain partitions + border partition, arranged block by block.

    Parameters
    ----------
    seed:
        Seed forwarded to the Louvain sweep order (default 0 for
        reproducibility).
    """

    name = "cluster"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def compute(self, graph: DiGraph) -> Permutation:
        perm, _ = self.compute_with_partition(graph)
        return perm

    def compute_with_partition(self, graph: DiGraph) -> Tuple[Permutation, np.ndarray]:
        """Like :meth:`compute` but also returns the final assignment
        vector (with border id = max label), which the hybrid reordering
        and the B_LIN baseline reuse."""
        n = graph.n_nodes
        if n == 0:
            return Permutation.identity(0), np.zeros(0, dtype=np.int64)
        louvain = louvain_communities(graph, seed=self.seed)
        assignment = border_partition(graph, louvain)
        # Stable sort by partition id: nodes of partition 0 first, border
        # (largest id) last; within a partition, original id order.
        order = np.argsort(assignment, kind="stable")
        return Permutation.from_order(order), assignment
