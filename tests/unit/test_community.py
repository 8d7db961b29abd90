"""Unit tests for Partition, modularity, and the Louvain method."""

import numpy as np
import pytest

from repro.community import Partition, louvain_communities, modularity
from repro.community.modularity import modularity_gain, undirected_view
from repro.exceptions import GraphError, InvalidParameterError
from repro.graph import DiGraph, planted_partition_graph


def two_triangles() -> DiGraph:
    g = DiGraph(6)
    for a, b in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]:
        g.add_edge(a, b)
        g.add_edge(b, a)
    return g


class TestPartition:
    def test_normalisation(self):
        p = Partition([7, 7, 3, 3, 7])
        assert p.assignment.tolist() == [0, 0, 1, 1, 0]
        assert p.n_communities == 2

    def test_members_and_sizes(self):
        p = Partition([0, 1, 0, 1, 1])
        assert p.members(0).tolist() == [0, 2]
        assert p.sizes().tolist() == [2, 3]

    def test_communities_cover_all(self):
        p = Partition([2, 0, 1, 1])
        total = sum(len(c) for c in p.communities())
        assert total == 4

    def test_singletons(self):
        p = Partition.singletons(4)
        assert p.n_communities == 4

    def test_from_communities(self):
        p = Partition.from_communities([[0, 2], [1, 3]], 4)
        assert p.community_of(2) == p.community_of(0)
        assert p.community_of(1) != p.community_of(0)

    def test_from_communities_rejects_missing(self):
        with pytest.raises(InvalidParameterError):
            Partition.from_communities([[0, 1]], 3)

    def test_from_communities_rejects_double(self):
        with pytest.raises(InvalidParameterError):
            Partition.from_communities([[0, 1], [1, 2]], 3)

    def test_equality_and_hash(self):
        a = Partition([5, 5, 9])
        b = Partition([0, 0, 1])
        assert a == b
        assert hash(a) == hash(b)

    def test_member_range_check(self):
        p = Partition([0, 1])
        with pytest.raises(InvalidParameterError):
            p.members(5)

    def test_assignment_readonly(self):
        p = Partition([0, 1])
        with pytest.raises(ValueError):
            p.assignment[0] = 1

    def test_normalisation_is_first_appearance(self):
        labels = np.random.default_rng(4).integers(-50, 50, size=300)
        first_seen = {}
        expected = [first_seen.setdefault(int(c), len(first_seen)) for c in labels]
        p = Partition(labels)
        assert p.assignment.tolist() == expected
        assert p.assignment.dtype == np.int64
        assert p.n_communities == len(first_seen)

    def test_empty(self):
        p = Partition([])
        assert p.n_nodes == 0 and p.n_communities == 0

    def test_integer_valued_floats_accepted(self):
        p = Partition(np.array([1.0, 2.0, 1.0]))
        assert p.assignment.tolist() == [0, 1, 0]
        assert Partition([True, False]).n_communities == 2

    def test_fractional_labels_rejected(self):
        # Truncating would merge 0.2 and 0.7 into one community.
        with pytest.raises(InvalidParameterError, match="label 0.2 of node 0"):
            Partition([0.2, 0.7])
        with pytest.raises(InvalidParameterError, match="label 2.5 of node 1"):
            Partition(np.array([1.0, 2.5]))

    @pytest.mark.parametrize(
        "labels,named",
        [
            (["a", "b"], "'a'"),
            ([0.0, float("nan")], "nan"),
            ([1.0, float("inf")], "inf"),
            ([0, None], "None"),
            ([0, 2**70], str(2**70)),
        ],
    )
    def test_non_integer_labels_rejected(self, labels, named):
        with pytest.raises(InvalidParameterError, match=f"label {named}"):
            Partition(labels)

    def test_must_be_one_dimensional(self):
        with pytest.raises(InvalidParameterError, match="one-dimensional"):
            Partition([[0, 1], [1, 0]])


class TestModularity:
    def test_two_triangles_known_value(self):
        g = two_triangles()
        assert modularity(g, Partition([0, 0, 0, 1, 1, 1])) == pytest.approx(0.5)

    def test_all_in_one_community_zero(self):
        g = two_triangles()
        assert modularity(g, Partition([0] * 6)) == pytest.approx(0.0)

    def test_singletons_negative(self):
        g = two_triangles()
        assert modularity(g, Partition.singletons(6)) < 0.0

    def test_edgeless_graph(self):
        g = DiGraph(3)
        assert modularity(g, Partition([0, 1, 2])) == 0.0

    def test_size_mismatch(self):
        g = two_triangles()
        with pytest.raises(GraphError):
            modularity(g, Partition([0, 1]))

    def test_undirected_view_strength(self):
        g = DiGraph(2)
        g.add_edge(0, 1, 2.0)
        g.add_edge(1, 0, 3.0)
        weights, strength, total = undirected_view(g)
        assert weights == {(0, 1): 5.0}
        assert strength.tolist() == [5.0, 5.0]
        assert total == 5.0

    def test_self_loop_convention(self):
        g = DiGraph(1)
        g.add_edge(0, 0, 2.0)
        _, strength, total = undirected_view(g)
        assert strength[0] == 4.0  # self-loops count twice in strength
        assert total == 2.0

    def test_gain_zero_total(self):
        assert modularity_gain(1.0, 1.0, 1.0, 0.0) == 0.0


class TestLouvain:
    def test_two_triangles_perfect_split(self):
        p = louvain_communities(two_triangles(), seed=0)
        assert p.n_communities == 2
        assert p.community_of(0) == p.community_of(1) == p.community_of(2)
        assert p.community_of(3) == p.community_of(4) == p.community_of(5)

    def test_recovers_planted_partitions(self):
        g = planted_partition_graph([30, 30, 30], 0.4, 0.01, seed=1)
        p = louvain_communities(g, seed=0)
        assert p.n_communities == 3
        # every planted block maps to one detected community
        for start in (0, 30, 60):
            block = {p.community_of(u) for u in range(start, start + 30)}
            assert len(block) == 1

    def test_deterministic_given_seed(self):
        g = planted_partition_graph([20, 20], 0.4, 0.05, seed=2)
        assert louvain_communities(g, seed=3) == louvain_communities(g, seed=3)

    def test_modularity_not_worse_than_trivial(self, er_graph):
        p = louvain_communities(er_graph, seed=0)
        assert modularity(er_graph, p) >= modularity(
            er_graph, Partition([0] * er_graph.n_nodes)
        ) - 1e-12

    def test_edgeless_graph_singletons(self):
        g = DiGraph(4)
        p = louvain_communities(g)
        assert p.n_communities == 4

    def test_empty_graph(self):
        p = louvain_communities(DiGraph(0))
        assert p.n_nodes == 0

    def test_single_node(self):
        p = louvain_communities(DiGraph(1))
        assert p.n_communities == 1

    def test_weighted_edges_respected(self):
        # Two cliques connected by a light bridge; heavy weights dominate.
        g = DiGraph(4)
        g.add_edge(0, 1, 10.0); g.add_edge(1, 0, 10.0)
        g.add_edge(2, 3, 10.0); g.add_edge(3, 2, 10.0)
        g.add_edge(1, 2, 0.1); g.add_edge(2, 1, 0.1)
        p = louvain_communities(g, seed=0)
        assert p.community_of(0) == p.community_of(1)
        assert p.community_of(2) == p.community_of(3)
        assert p.community_of(1) != p.community_of(2)
