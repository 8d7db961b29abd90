"""Newman–Girvan modularity for weighted undirected graphs.

Modularity is the quality function Louvain optimises (the paper cites it
as "the fitness of node partitioning, in the sense that there are many
edges within a partition and only a few between them").  For a weighted
undirected graph with total edge weight :math:`W_{tot}` (each undirected
edge counted once),

.. math::

    Q = \\frac{1}{2 W_{tot}} \\sum_{uv} \\left( w_{uv}
        - \\frac{s_u s_v}{2 W_{tot}} \\right) \\delta(c_u, c_v)

where :math:`s_u` is the weighted degree (strength) of node ``u`` and the
sum runs over ordered pairs.  Directed input graphs are symmetrised first
(:meth:`DiGraph.to_undirected_weights`), matching how the paper applies
Louvain to its directed datasets.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..exceptions import GraphError
from ..graph.digraph import DiGraph
from .partition import Partition


def undirected_view(graph: DiGraph) -> Tuple[Dict[Tuple[int, int], float], np.ndarray, float]:
    """Symmetrise a digraph for modularity computations.

    Returns
    -------
    (weights, strength, total):
        ``weights`` maps each undirected pair ``(min,max)`` to its summed
        weight; ``strength[u]`` is the weighted degree of ``u`` counting
        self-loops twice (standard convention); ``total`` is the sum of
        undirected edge weights (self-loops counted once).
    """
    weights = graph.to_undirected_weights()
    strength = [0.0] * graph.n_nodes
    total = 0.0
    for (u, v), w in weights.items():
        total += w
        if u == v:
            strength[u] += 2.0 * w
        else:
            strength[u] += w
            strength[v] += w
    return weights, np.array(strength, dtype=np.float64), total


def modularity(graph: DiGraph, partition: Partition) -> float:
    """Modularity ``Q`` of a partition of (the symmetrised view of) a graph.

    Returns 0.0 for edgeless graphs (the conventional degenerate value).

    Examples
    --------
    Two disconnected triangles split into their natural communities have
    modularity 0.5:

    >>> from repro.graph import DiGraph
    >>> g = DiGraph(6)
    >>> for a, b in [(0,1),(1,2),(2,0),(3,4),(4,5),(5,3)]:
    ...     g.add_edge(a, b); g.add_edge(b, a)
    >>> round(modularity(g, Partition([0,0,0,1,1,1])), 6)
    0.5
    """
    if partition.n_nodes != graph.n_nodes:
        raise GraphError(
            f"partition covers {partition.n_nodes} nodes, graph has {graph.n_nodes}"
        )
    weights, strength, total = undirected_view(graph)
    if total <= 0.0:
        return 0.0
    assignment = partition.assignment
    intra = 0.0
    for (u, v), w in weights.items():
        if assignment[u] == assignment[v]:
            # Each undirected edge contributes w_uv to the (u,v) and (v,u)
            # terms of the ordered-pair sum, i.e. 2w in the numerator of
            # Q's first term; self-loops contribute once.
            intra += w if u == v else 2.0 * w
    two_w = 2.0 * total
    q = intra / two_w
    community_strength = np.zeros(partition.n_communities, dtype=np.float64)
    np.add.at(community_strength, assignment, strength)
    q -= float(np.sum((community_strength / two_w) ** 2))
    return q


def modularity_gain(
    node_strength: float,
    community_strength: float,
    weight_to_community: float,
    total_weight: float,
) -> float:
    """Gain in modularity from moving an isolated node into a community.

    This is the incremental formula at the core of Louvain's local phase:
    for node ``u`` (strength :math:`s_u`) currently in no community, the
    gain of joining community ``C`` where ``w_{u,C}`` is the weight of
    edges from ``u`` into ``C`` and :math:`S_C` the strength sum of ``C``:

    .. math:: \\Delta Q = \\frac{w_{u,C}}{W_{tot}}
              - \\frac{s_u S_C}{2 W_{tot}^2}

    (a constant offset independent of ``C`` is dropped — only the argmax
    over communities matters).
    """
    if total_weight <= 0.0:
        return 0.0
    return weight_to_community / total_weight - (
        node_strength * community_strength
    ) / (2.0 * total_weight * total_weight)
