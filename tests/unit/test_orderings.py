"""Unit tests for Permutation and the four reordering strategies."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import GraphError, InvalidParameterError
from repro.graph import DiGraph, column_normalized_adjacency, planted_partition_graph, star_graph
from repro.ordering import (
    ClusterReordering,
    DegreeReordering,
    HybridReordering,
    IdentityReordering,
    Permutation,
    RandomReordering,
    get_reordering,
)
from repro.ordering.cluster import border_partition
from repro.community import Partition, louvain_communities


class TestPermutation:
    def test_identity(self):
        p = Permutation.identity(4)
        assert p.position.tolist() == [0, 1, 2, 3]
        assert p.original.tolist() == [0, 1, 2, 3]

    def test_position_original_inverse(self, rng):
        p = Permutation(rng.permutation(10))
        assert np.array_equal(p.original[p.position], np.arange(10))
        assert np.array_equal(p.position[p.original], np.arange(10))

    def test_from_order(self):
        # order: node 2 first, then 0, then 1
        p = Permutation.from_order(np.array([2, 0, 1]))
        assert p.position[2] == 0
        assert p.position[0] == 1
        assert p.position[1] == 2

    def test_rejects_non_bijection(self):
        with pytest.raises(InvalidParameterError):
            Permutation(np.array([0, 0, 1]))
        with pytest.raises(InvalidParameterError):
            Permutation.from_order(np.array([1, 2, 3]))

    def test_compose(self, rng):
        a = Permutation(rng.permutation(8))
        b = Permutation(rng.permutation(8))
        composed = a.compose(b)
        for u in range(8):
            assert composed.position[u] == a.position[b.position[u]]

    def test_compose_size_mismatch(self):
        with pytest.raises(InvalidParameterError):
            Permutation.identity(3).compose(Permutation.identity(4))

    def test_inverse(self, rng):
        p = Permutation(rng.permutation(6))
        assert p.compose(p.inverse()) == Permutation.identity(6)

    def test_permute_matrix_entries(self, rng):
        dense = rng.random((5, 5))
        mat = sp.csr_matrix(dense)
        p = Permutation(rng.permutation(5))
        out = p.permute_matrix(mat).toarray()
        for u in range(5):
            for v in range(5):
                assert out[p.position[u], p.position[v]] == pytest.approx(dense[u, v])

    def test_permute_matrix_shape_check(self):
        p = Permutation.identity(3)
        with pytest.raises(InvalidParameterError):
            p.permute_matrix(sp.eye(4))

    def test_vector_round_trip(self, rng):
        p = Permutation(rng.permutation(7))
        v = rng.random(7)
        assert np.allclose(p.unpermute_vector(p.permute_vector(v)), v)

    def test_permute_vector_semantics(self):
        p = Permutation(np.array([2, 0, 1]))  # node0->pos2, node1->pos0
        v = np.array([10.0, 20.0, 30.0])
        out = p.permute_vector(v)
        assert out.tolist() == [20.0, 30.0, 10.0]


class TestDegreeReordering:
    def test_ascending_degree(self, sf_graph):
        perm = DegreeReordering().compute(sf_graph)
        degrees = sf_graph.degree_array()
        ordered = degrees[perm.original]
        assert np.all(np.diff(ordered) >= 0)

    def test_star_hub_last(self):
        perm = DegreeReordering().compute(star_graph(5))
        assert perm.original[-1] == 0  # the hub has the highest degree

    def test_deterministic(self, sf_graph):
        assert DegreeReordering().compute(sf_graph) == DegreeReordering().compute(sf_graph)


class TestClusterReordering:
    def test_border_partition_flags_cross_nodes(self):
        g = planted_partition_graph([15, 15], 0.6, 0.0, seed=3)
        # add one cross edge; only its two endpoints join the border
        g.add_edge(0, 20, 1.0)
        g.add_edge(20, 0, 1.0)
        louvain = louvain_communities(g, seed=0)
        assignment = border_partition(g, louvain)
        border_id = assignment.max()
        border_nodes = set(np.flatnonzero(assignment == border_id).tolist())
        assert border_nodes == {0, 20}

    @pytest.mark.parametrize("size", [3, 5])
    def test_border_partition_rejects_other_sizes(self, size):
        g = DiGraph(4)
        g.add_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(GraphError, match=f"partition covers {size} nodes, graph has 4"):
            border_partition(g, Partition([0] * size))

    def test_blocks_are_contiguous(self):
        g = planted_partition_graph([12, 12, 12], 0.5, 0.0, seed=4)
        perm, assignment = ClusterReordering().compute_with_partition(g)
        # in the new order, partition ids must be non-decreasing
        ids_in_order = assignment[perm.original]
        assert np.all(np.diff(ids_in_order) >= 0)

    def test_doubly_bordered_block_diagonal(self):
        # After cluster reordering, any nonzero A'[i, j] must have i and j
        # in the same partition or touch the border (footnote 4).
        g = planted_partition_graph([10, 10], 0.7, 0.0, seed=5)
        g.add_edge(0, 10, 1.0)
        perm, assignment = ClusterReordering().compute_with_partition(g)
        border_id = assignment.max()
        a = column_normalized_adjacency(g)
        permuted = perm.permute_matrix(a).tocoo()
        for i, j in zip(permuted.row, permuted.col):
            pi = assignment[perm.original[i]]
            pj = assignment[perm.original[j]]
            assert pi == pj or border_id in (pi, pj)

    def test_empty_graph(self):
        perm = ClusterReordering().compute(DiGraph(0))
        assert perm.n == 0


class TestHybridReordering:
    def test_degree_ascending_within_partitions(self):
        g = planted_partition_graph([14, 14], 0.5, 0.0, seed=6)
        perm = HybridReordering().compute(g)
        _, assignment = ClusterReordering().compute_with_partition(g)
        degrees = g.degree_array()
        ids_in_order = assignment[perm.original]
        degs_in_order = degrees[perm.original]
        # partitions contiguous
        assert np.all(np.diff(ids_in_order) >= 0)
        # inside each partition, degree ascending
        for pid in np.unique(ids_in_order):
            mask = ids_in_order == pid
            assert np.all(np.diff(degs_in_order[mask]) >= 0)

    def test_empty_graph(self):
        assert HybridReordering().compute(DiGraph(0)).n == 0


class TestRandomAndIdentity:
    def test_random_seeded(self, sf_graph):
        a = RandomReordering(seed=5).compute(sf_graph)
        b = RandomReordering(seed=5).compute(sf_graph)
        c = RandomReordering(seed=6).compute(sf_graph)
        assert a == b
        assert a != c

    def test_identity(self, sf_graph):
        perm = IdentityReordering().compute(sf_graph)
        assert perm == Permutation.identity(sf_graph.n_nodes)


class TestRegistry:
    def test_lookup_all(self):
        for name, cls in [
            ("degree", DegreeReordering),
            ("cluster", ClusterReordering),
            ("hybrid", HybridReordering),
            ("random", RandomReordering),
            ("identity", IdentityReordering),
        ]:
            assert isinstance(get_reordering(name), cls)

    def test_kwargs_forwarded(self):
        r = get_reordering("random", seed=42)
        assert r.seed == 42

    def test_unknown_name(self):
        with pytest.raises(InvalidParameterError):
            get_reordering("magic")
