"""Top-k query results with search statistics.

:class:`TopKResult` is what every search method in this library returns —
K-dash, the ablations, and the baselines — so the evaluation harness can
treat them uniformly.  Besides the ranked ``(node, proximity)`` pairs it
carries the counters behind the paper's Figures 7 and 9: how many nodes
were visited, how many exact proximity computations were spent, and
whether the bound-based early termination fired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class TopKResult:
    """Result of a top-k proximity search.

    Attributes
    ----------
    query:
        The query node.
    k:
        The requested number of answers.
    items:
        Ranked ``(node, proximity)`` pairs, descending proximity with
        ascending node id breaking ties.  May contain fewer than ``k``
        items only when the graph itself has fewer than ``k`` nodes; it
        contains zero-proximity nodes when fewer than ``k`` nodes are
        reachable from the query (the paper pads with "dummy nodes").
    n_visited:
        Nodes whose upper bound was evaluated.
    n_computed:
        Nodes whose *exact* proximity was computed — the Figure 9 metric.
    n_pruned:
        Scheduled nodes skipped thanks to early termination.
    terminated_early:
        Whether the Lemma 2 cut-off fired before the schedule ended.
    padded:
        Whether zero-proximity nodes were appended to reach ``k``.
    error_bound:
        Certified upper bound on the absolute error of every returned
        proximity.  Exactly ``0.0`` for exact answers (every K-dash
        path); the approximate baselines fill it from their
        ``error_estimate()``.
    """

    query: int
    k: int
    items: Tuple[Tuple[int, float], ...]
    n_visited: int = 0
    n_computed: int = 0
    n_pruned: int = 0
    terminated_early: bool = False
    padded: bool = False
    error_bound: float = 0.0

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[int]:
        """Answer node ids in rank order."""
        return [node for node, _ in self.items]

    @property
    def proximities(self) -> List[float]:
        """Answer proximities in rank order."""
        return [p for _, p in self.items]

    @property
    def kth_proximity(self) -> float:
        """Proximity of the last returned item (0.0 for empty results)."""
        if not self.items:
            return 0.0
        return self.items[-1][1]

    def node_set(self) -> set:
        """The answer nodes as a set."""
        return {node for node, _ in self.items}

    def with_labels(self, graph) -> List[Tuple[str, float]]:
        """Answers as ``(label, proximity)`` pairs for presentation."""
        return [(graph.label_of(node), p) for node, p in self.items]

    def __len__(self) -> int:
        return len(self.items)


def rank_items(pairs: Sequence[Tuple[int, float]], k: int) -> Tuple[Tuple[int, float], ...]:
    """Canonically rank ``(node, proximity)`` pairs and truncate to ``k``.

    Descending proximity, ascending node id on ties — the same ordering
    as :func:`repro.rwr.proximity.top_k_from_vector`, so results from
    different methods compare elementwise.
    """
    if not pairs:
        return ()
    nodes = np.asarray([n for n, _ in pairs], dtype=np.int64)
    prox = np.asarray([p for _, p in pairs], dtype=np.float64)
    order = np.lexsort((nodes, -prox))[:k]
    return tuple((int(nodes[i]), float(prox[i])) for i in order)


def pad_items(
    ranked: Tuple[Tuple[int, float], ...], k: int, n: int
) -> Tuple[Tuple[Tuple[int, float], ...], bool]:
    """Fill ``ranked`` up to ``min(k, n)`` items with zero-proximity nodes.

    Matches the brute-force canonical ordering: nodes unreachable from
    the query have proximity exactly 0 and rank after every reachable
    node, tie-broken by ascending id (the paper pads with "dummy
    nodes").  Returns ``(items, padded)``.
    """
    want = min(k, n)
    if len(ranked) >= want:
        return tuple(ranked[:want]), False
    present = {node for node, _ in ranked}
    extra = []
    for node in range(n):
        if node not in present:
            extra.append((node, 0.0))
            if len(ranked) + len(extra) == want:
                break
    return tuple(ranked) + tuple(extra), True
