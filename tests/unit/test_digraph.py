"""Unit tests for the DiGraph adjacency-list structure."""

import numpy as np
import pytest

from repro.exceptions import GraphError, NodeNotFoundError
from repro.graph import DiGraph
from repro.validation import check_node_id


class TestConstruction:
    def test_empty_graph(self):
        g = DiGraph(0)
        assert g.n_nodes == 0
        assert g.n_edges == 0
        assert list(g.nodes()) == []
        assert list(g.edges()) == []

    def test_isolated_nodes(self):
        g = DiGraph(5)
        assert g.n_nodes == 5
        assert all(g.degree(u) == 0 for u in g.nodes())

    def test_negative_node_count_rejected(self):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            DiGraph(-1)

    def test_labels_length_checked(self):
        with pytest.raises(GraphError):
            DiGraph(3, labels=["a", "b"])

    def test_add_nodes(self):
        g = DiGraph(2)
        g.add_edge(0, 1)
        assert g.add_nodes(3) == 5
        assert g.n_nodes == 5
        assert g.degree(4) == 0
        g.add_edge(4, 0)
        assert g.has_edge(4, 0)

    def test_from_edge_arrays_matches_add_edge(self):
        """The bulk build is the per-edge build, iteration order included,
        for edges in no particular order."""
        rng = np.random.default_rng(3)
        pairs = rng.permutation([(u, v) for u in range(12) for v in range(12)])[:60]
        weights = rng.uniform(0.5, 2.0, size=len(pairs))
        reference = DiGraph(12, labels=[f"n{u}" for u in range(12)])
        for (u, v), w in zip(pairs.tolist(), weights.tolist()):
            reference.add_edge(u, v, w)
        bulk = DiGraph.from_edge_arrays(
            12, pairs[:, 0], pairs[:, 1], weights, labels=reference.labels
        )
        assert bulk.n_edges == reference.n_edges == 60
        assert bulk.labels == reference.labels
        assert list(bulk.edges()) == list(reference.edges())
        for u in range(12):
            assert bulk.successors(u) == reference.successors(u)
            assert bulk.predecessors(u) == reference.predecessors(u)
        assert bulk.adjacency_csc().to_dense().tolist() == (
            reference.adjacency_csc().to_dense().tolist()
        )

    def test_from_edge_arrays_rejects_non_integer_ids(self):
        with pytest.raises(GraphError, match="integer ids"):
            DiGraph.from_edge_arrays(3, np.array([0.0]), np.array([1]), np.array([1.0]))


class TestEdges:
    def test_add_edge_basic(self):
        g = DiGraph(3)
        g.add_edge(0, 1, 2.5)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)
        assert g.edge_weight(0, 1) == 2.5
        assert g.n_edges == 1

    def test_parallel_edges_accumulate(self):
        g = DiGraph(2)
        g.add_edge(0, 1, 1.0)
        g.add_edge(0, 1, 2.0)
        assert g.n_edges == 1
        assert g.edge_weight(0, 1) == 3.0

    def test_self_loop_allowed(self):
        g = DiGraph(2)
        g.add_edge(1, 1, 0.5)
        assert g.has_edge(1, 1)
        assert g.degree(1) == 2  # counted in and out

    def test_zero_weight_rejected(self):
        g = DiGraph(2)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, 0.0)

    def test_negative_weight_rejected(self):
        g = DiGraph(2)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, -1.0)

    def test_nan_weight_rejected(self):
        g = DiGraph(2)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, float("nan"))

    def test_unknown_node_rejected(self):
        g = DiGraph(2)
        with pytest.raises(NodeNotFoundError):
            g.add_edge(0, 7)

    def test_edges_iteration(self):
        g = DiGraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        assert sorted(g.edges()) == [(0, 1, 1.0), (1, 2, 2.0)]

    def test_add_weighted_edges(self):
        g = DiGraph(3)
        g.add_weighted_edges([(0, 1, 1.5), (1, 2, 2.5)])
        assert g.edge_weight(1, 2) == 2.5


class TestDegrees:
    def test_degree_accounting(self):
        g = DiGraph(4)
        g.add_edges([(0, 1), (0, 2), (3, 0)])
        assert g.out_degree(0) == 2
        assert g.in_degree(0) == 1
        assert g.degree(0) == 3
        assert np.array_equal(g.out_degree_array(), [2, 0, 0, 1])
        assert np.array_equal(g.in_degree_array(), [1, 1, 1, 0])
        assert np.array_equal(g.degree_array(), [3, 1, 1, 1])

    def test_out_weight(self):
        g = DiGraph(3)
        g.add_edge(0, 1, 1.5)
        g.add_edge(0, 2, 2.5)
        assert g.out_weight(0) == 4.0
        assert g.out_weight(1) == 0.0

    def test_successors_predecessors(self):
        g = DiGraph(4)
        g.add_edges([(0, 1), (0, 2), (3, 0)])
        assert sorted(g.successors(0)) == [1, 2]
        assert g.predecessors(0) == [3]
        assert g.successors(1) == []


class TestLabels:
    def test_default_labels(self):
        g = DiGraph(2)
        assert g.label_of(1) == "node-1"

    def test_custom_labels(self):
        g = DiGraph(2, labels=["alpha", "beta"])
        assert g.label_of(0) == "alpha"
        assert g.node_by_label("beta") == 1

    def test_unknown_label(self):
        g = DiGraph(1, labels=["a"])
        with pytest.raises(GraphError):
            g.node_by_label("zzz")

    def test_node_by_label_without_labels(self):
        g = DiGraph(1)
        with pytest.raises(GraphError):
            g.node_by_label("a")


class TestMatrixViews:
    def test_adjacency_column_convention(self):
        # Column u of the adjacency holds the out-edges of u.
        g = DiGraph(2)
        g.add_edge(0, 1, 3.0)
        dense = g.adjacency_csc().to_dense()
        assert dense[1, 0] == 3.0  # M[target, source]
        assert dense[0, 1] == 0.0

    def test_adjacency_cache_invalidation(self):
        g = DiGraph(2)
        g.add_edge(0, 1)
        first = g.adjacency_csc()
        g.add_edge(1, 0)
        second = g.adjacency_csc()
        assert second.nnz == 2
        assert first is not second


class TestDerivedGraphs:
    def test_reverse(self):
        g = DiGraph(3)
        g.add_edge(0, 1, 2.0)
        r = g.reverse()
        assert r.has_edge(1, 0)
        assert not r.has_edge(0, 1)
        assert r.edge_weight(1, 0) == 2.0

    def test_to_undirected_weights_sums_antiparallel(self):
        g = DiGraph(2)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 0, 2.0)
        assert g.to_undirected_weights() == {(0, 1): 3.0}

    def test_subgraph(self):
        g = DiGraph(5)
        g.add_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
        sub, mapping = g.subgraph([1, 2, 3])
        assert sub.n_nodes == 3
        assert sub.n_edges == 2  # 1->2 and 2->3 survive
        assert mapping.tolist() == [1, 2, 3]

    def test_subgraph_rejects_duplicates(self):
        g = DiGraph(3)
        with pytest.raises(GraphError):
            g.subgraph([0, 0])

    def test_relabeled_round_trip(self, er_graph):
        n = er_graph.n_nodes
        rng = np.random.default_rng(3)
        perm = rng.permutation(n)
        relabeled = er_graph.relabeled(perm)
        assert relabeled.n_edges == er_graph.n_edges
        for u, v, w in er_graph.edges():
            assert relabeled.edge_weight(int(perm[u]), int(perm[v])) == w

    def test_relabeled_rejects_non_bijection(self):
        g = DiGraph(3)
        with pytest.raises(GraphError):
            g.relabeled(np.array([0, 0, 1]))

    def test_copy_independent(self):
        g = DiGraph(2)
        g.add_edge(0, 1)
        h = g.copy()
        h.add_edge(1, 0)
        assert g.n_edges == 1
        assert h.n_edges == 2


class TestNodeIdValidation:
    def test_bool_rejected(self):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            check_node_id(True, 5)

    def test_numpy_int_accepted(self):
        assert check_node_id(np.int64(3), 5) == 3
