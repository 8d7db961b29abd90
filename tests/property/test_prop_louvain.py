"""Differential battery: the list-based Louvain sweep against its numpy oracle.

``louvain_communities`` keeps assignments and strengths in Python lists
and promises the same partitions, sweep counts and random draws as the
numpy-scalar formulation it replaced (the exactness contract in
``repro.community.louvain``).  The oracle below is that formulation,
kept verbatim: numpy arrays for strengths, self-loops, assignments and
community strengths, one numpy scalar read per neighbour.  Besides whole
partitions, each aggregation level is compared bit for bit, and a sweep
of tie-heavy graphs with a vanishing ``min_gain`` lets a single
reordered float operation flip a decision.

Also here: ``DiGraph.copy`` (the bulk copy every ``DynamicKDash`` and
``rebuild`` runs) iterates exactly like the ``add_edge`` copy it
replaced, and shares no state with its original.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.community import Partition, louvain_communities
from repro.community.louvain import _local_moving, _WeightedUndirected
from repro.graph import DiGraph, erdos_renyi_graph, planted_partition_graph, scale_free_digraph
from repro.validation import check_random_state, check_tolerance


# ----------------------------------------------------------------------
# The oracle: the numpy-scalar Louvain, as it was
# ----------------------------------------------------------------------
class _OracleWeightedUndirected:
    __slots__ = ("n", "neighbors", "self_loops", "strength", "total_weight")

    def __init__(self, n: int) -> None:
        self.n = n
        self.neighbors: List[Dict[int, float]] = [dict() for _ in range(n)]
        self.self_loops = np.zeros(n, dtype=np.float64)
        self.strength = np.zeros(n, dtype=np.float64)
        self.total_weight = 0.0

    @classmethod
    def from_digraph(cls, graph: DiGraph) -> "_OracleWeightedUndirected":
        weights = graph.to_undirected_weights()
        strength = np.zeros(graph.n_nodes, dtype=np.float64)
        total = 0.0
        for (u, v), w in weights.items():
            total += w
            if u == v:
                strength[u] += 2.0 * w
            else:
                strength[u] += w
                strength[v] += w
        g = cls(graph.n_nodes)
        for (u, v), w in weights.items():
            if u == v:
                g.self_loops[u] += w
            else:
                g.neighbors[u][v] = g.neighbors[u].get(v, 0.0) + w
                g.neighbors[v][u] = g.neighbors[v].get(u, 0.0) + w
        g.strength = strength
        g.total_weight = total
        return g

    def aggregate(self, assignment: np.ndarray, k: int) -> "_OracleWeightedUndirected":
        agg = _OracleWeightedUndirected(k)
        for u in range(self.n):
            cu = int(assignment[u])
            agg.self_loops[cu] += self.self_loops[u]
            for v, w in self.neighbors[u].items():
                if v < u:
                    continue
                cv = int(assignment[v])
                if cu == cv:
                    agg.self_loops[cu] += w
                else:
                    agg.neighbors[cu][cv] = agg.neighbors[cu].get(cv, 0.0) + w
                    agg.neighbors[cv][cu] = agg.neighbors[cv].get(cu, 0.0) + w
        for u in range(k):
            agg.strength[u] = 2.0 * agg.self_loops[u] + sum(agg.neighbors[u].values())
        agg.total_weight = self.total_weight
        return agg


def _oracle_local_moving(
    graph: _OracleWeightedUndirected, rng: np.random.Generator, min_gain: float
) -> Tuple[np.ndarray, bool]:
    n = graph.n
    assignment = np.arange(n, dtype=np.int64)
    community_strength = graph.strength.copy()
    two_w = 2.0 * graph.total_weight
    if two_w <= 0.0:
        return assignment, False
    improved = False
    moved = True
    sweeps = 0
    max_sweeps = 100
    order = np.arange(n)
    while moved and sweeps < max_sweeps:
        moved = False
        sweeps += 1
        rng.shuffle(order)
        for u in order:
            u = int(u)
            cu = int(assignment[u])
            su = graph.strength[u]
            weight_to: Dict[int, float] = {}
            for v, w in graph.neighbors[u].items():
                weight_to[int(assignment[v])] = (
                    weight_to.get(int(assignment[v]), 0.0) + w
                )
            community_strength[cu] -= su
            w_cu = weight_to.get(cu, 0.0)
            base = w_cu / graph.total_weight - (
                su * community_strength[cu]
            ) / (two_w * graph.total_weight)
            best_c, best_gain = cu, base
            for c, w_c in weight_to.items():
                if c == cu:
                    continue
                gain = w_c / graph.total_weight - (
                    su * community_strength[c]
                ) / (two_w * graph.total_weight)
                if gain > best_gain + min_gain:
                    best_gain = gain
                    best_c = c
            assignment[u] = best_c
            community_strength[best_c] += su
            if best_c != cu:
                moved = True
                improved = True
    return assignment, improved


def oracle_louvain(graph: DiGraph, seed=0, min_gain: float = 1e-12, max_levels: int = 32):
    min_gain = check_tolerance(min_gain, "min_gain")
    rng = check_random_state(seed)
    n = graph.n_nodes
    if n == 0:
        return Partition([])
    working = _OracleWeightedUndirected.from_digraph(graph)
    node_map = np.arange(n, dtype=np.int64)
    for _ in range(max_levels):
        assignment, improved = _oracle_local_moving(working, rng, min_gain)
        if not improved:
            break
        compact = Partition(assignment)
        assignment = compact.assignment
        k = compact.n_communities
        node_map = assignment[node_map]
        if k == working.n:
            break
        working = working.aggregate(assignment, k)
    return Partition(node_map)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
# Repeated round weights make gain ties (the strict ``>`` decides them);
# arbitrary floats make rounding matter.
_WEIGHTS = st.sampled_from([1.0, 1.0, 1.0, 2.0, 0.5, 0.1, 3.0]) | st.floats(
    0.001, 1000.0, allow_nan=False, allow_infinity=False
)
# A ``min_gain`` far below one ulp of a gain turns the move test into a
# bare ``gain > best_gain``, so an exact tie falls to whichever side an
# operation order rounds it.
MIN_GAINS = st.sampled_from([1e-300, 1e-15, 1e-12, 1e-3])


@st.composite
def weighted_digraphs(draw):
    """Several components, isolated nodes, self-loops and antiparallel
    pairs, with node ids shuffled so the components interleave."""
    sizes = draw(st.lists(st.integers(1, 14), min_size=1, max_size=4))
    n = sum(sizes) + draw(st.integers(0, 3))
    ids = draw(st.permutations(range(n)))
    edges = []
    offset = 0
    for size in sizes:
        local = st.integers(offset, offset + size - 1)
        for u, v, w in draw(st.lists(st.tuples(local, local, _WEIGHTS), max_size=4 * size)):
            edges.append((u, v, w))
            if draw(st.booleans()):
                edges.append((v, u, draw(_WEIGHTS)))  # antiparallel (or a second loop)
        loop = draw(local)
        edges.append((loop, loop, draw(_WEIGHTS)))
        offset += size
    g = DiGraph(n)
    for u, v, w in edges:
        g.add_edge(ids[u], ids[v], w)
    return g


def servebench_graph(name: str) -> DiGraph:
    """A graph the serving benchmark builds (``servebench/workloads.py``
    ``build_graph``): scale-free 2000/8000, or the planted 8 x 250 family."""
    if name == "scale_free":
        return scale_free_digraph(2000, 8000, seed=5)
    blocks, size = 8, 250
    return planted_partition_graph(
        [size] * blocks,
        p_in=min(1.0, 8.0 / size),
        p_out=0.2 / (blocks * size),
        directed=True,
        seed=7,
    )


def assert_levels_match(graph: DiGraph, seed: int, min_gain: float) -> None:
    """Run both sweeps level by level: each level's graph (neighbour dicts
    in order, self-loops, strengths) and sweep result equal the oracle's
    exactly, so an ulp of drift is caught even where it flips no decision."""
    ours = _WeightedUndirected.from_digraph(graph)
    theirs = _OracleWeightedUndirected.from_digraph(graph)
    ours_rng, theirs_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    while True:
        assert [list(d.items()) for d in ours.neighbors] == [
            list(d.items()) for d in theirs.neighbors
        ]
        assert ours.self_loops == theirs.self_loops.tolist()
        assert ours.strength == theirs.strength.tolist()
        assert ours.total_weight == theirs.total_weight
        assignment, improved = _local_moving(ours, ours_rng, min_gain)
        expected, expected_improved = _oracle_local_moving(theirs, theirs_rng, min_gain)
        assert assignment == expected.tolist() and improved == expected_improved
        compact = Partition(expected)
        if not improved or compact.n_communities == ours.n:
            break
        k = compact.n_communities
        ours = ours.aggregate(compact.assignment.tolist(), k)
        theirs = theirs.aggregate(compact.assignment, k)
    assert ours_rng.bit_generator.state == theirs_rng.bit_generator.state


# ----------------------------------------------------------------------
# Louvain against the oracle
# ----------------------------------------------------------------------
class TestLouvainAgainstOracle:
    @given(weighted_digraphs())
    def test_same_partition_for_integer_seeds(self, graph):
        for seed in (0, 1, 7):
            assert louvain_communities(graph, seed=seed) == oracle_louvain(graph, seed=seed)

    @given(weighted_digraphs(), st.integers(0, 2**32 - 1), MIN_GAINS)
    def test_same_partition_and_generator_state(self, graph, seed, min_gain):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert louvain_communities(graph, seed=ours, min_gain=min_gain) == oracle_louvain(
            graph, seed=theirs, min_gain=min_gain
        )
        assert ours.bit_generator.state == theirs.bit_generator.state

    @given(weighted_digraphs(), st.integers(0, 2**32 - 1), MIN_GAINS)
    def test_every_level_matches_bit_for_bit(self, graph, seed, min_gain):
        assert_levels_match(graph, seed, min_gain)

    def test_tie_heavy_graphs_with_a_vanishing_min_gain(self):
        """All weights 0.1: gains tie exactly wherever the structure is
        symmetric, and sums of 0.1 round at almost every step, so a
        reordered operation shows on some of these graphs."""
        for seed in range(300):
            graph = DiGraph(30)
            for u, v, _ in erdos_renyi_graph(30, 0.1, seed=seed).edges():
                graph.add_edge(u, v, 0.1)
            assert_levels_match(graph, seed, 1e-300)

    @pytest.mark.parametrize("name", ["scale_free", "planted"])
    def test_servebench_graphs(self, name):
        graph = servebench_graph(name)
        ours, theirs = np.random.default_rng(0), np.random.default_rng(0)
        partition = louvain_communities(graph, seed=ours)
        assert partition == oracle_louvain(graph, seed=theirs)
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert partition.n_communities > 1


# ----------------------------------------------------------------------
# DiGraph.copy against an add_edge copy
# ----------------------------------------------------------------------
def add_edge_copy(graph: DiGraph) -> DiGraph:
    copy = DiGraph(graph.n_nodes, labels=list(graph.labels) if graph.labels else None)
    for u, v, w in graph.edges():
        copy.add_edge(u, v, w)
    return copy


def adjacency(graph: DiGraph):
    return (
        [list(graph._succ[u].items()) for u in graph.nodes()],
        [list(graph._pred[u].items()) for u in graph.nodes()],
    )


class TestDiGraphCopy:
    @given(weighted_digraphs())
    def test_iterates_like_an_add_edge_copy(self, graph):
        copy = graph.copy()
        assert adjacency(copy) == adjacency(add_edge_copy(graph))
        assert copy.n_edges == graph.n_edges
        assert list(copy.edges()) == list(graph.edges())

    def test_labels_are_copied(self):
        graph = DiGraph(3, labels=["a", "b", "c"])
        graph.add_edge(2, 0)
        copy = graph.copy()
        assert copy.labels == ["a", "b", "c"]
        copy.labels[0] = "z"
        assert graph.labels == ["a", "b", "c"]

    def test_edits_leave_the_original_untouched(self):
        graph = DiGraph(4)
        graph.add_weighted_edges([(3, 0, 1.0), (0, 1, 2.0), (1, 0, 0.5), (2, 2, 1.5)])
        before = adjacency(graph)
        copy = graph.copy()
        copy.add_edge(0, 1, 4.0)  # accumulate a weight
        copy.set_edge_weight(1, 0, 9.0)
        copy.add_edge(2, 3)
        copy.remove_edge(3, 0)
        assert adjacency(graph) == before
        assert graph.n_edges == 4 and copy.n_edges == 4
        assert copy.edge_weight(0, 1) == 6.0 and graph.edge_weight(0, 1) == 2.0
