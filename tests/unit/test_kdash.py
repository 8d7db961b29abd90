"""Unit tests for the KDash index (build + query paths)."""

import numpy as np
import pytest

from repro.core import KDash
from repro.exceptions import IndexNotBuiltError, InvalidParameterError, NodeNotFoundError
from repro.graph import DiGraph, column_normalized_adjacency, star_graph
from repro.rwr import direct_solve_rwr, top_k_from_vector


@pytest.fixture
def built(er_graph):
    return KDash(er_graph, c=0.95).build()


class TestBuild:
    def test_build_returns_self(self, er_graph):
        index = KDash(er_graph)
        assert index.build() is index
        assert index.is_built

    def test_query_before_build_rejected(self, er_graph):
        index = KDash(er_graph)
        with pytest.raises(IndexNotBuiltError):
            index.top_k(0, 5)
        with pytest.raises(IndexNotBuiltError):
            index.proximity(0, 1)

    def test_build_report_populated(self, built):
        report = built.build_report
        assert report.total_seconds > 0
        assert report.fill_in.nnz_l_inv > 0
        assert report.lu_backend_used in ("scipy", "crout")

    def test_index_nnz(self, built):
        assert built.index_nnz == (
            built.build_report.fill_in.nnz_l_inv + built.build_report.fill_in.nnz_u_inv
        )

    def test_invalid_c(self, er_graph):
        with pytest.raises(InvalidParameterError):
            KDash(er_graph, c=1.0)

    def test_invalid_reordering(self, er_graph):
        with pytest.raises(InvalidParameterError):
            KDash(er_graph, reordering="sorcery")

    def test_invalid_backends(self, er_graph):
        with pytest.raises(InvalidParameterError):
            KDash(er_graph, lu_backend="gpu")

    @pytest.mark.parametrize("reordering", ["degree", "cluster", "hybrid", "random", "identity"])
    def test_all_reorderings_exact(self, er_graph, reordering):
        index = KDash(er_graph, reordering=reordering).build()
        a = column_normalized_adjacency(er_graph)
        exact = direct_solve_rwr(a, 0, 0.95)
        result = index.top_k(0, 5)
        expected = [p for _, p in top_k_from_vector(exact, 5)]
        assert np.allclose(sorted(result.proximities, reverse=True), expected, atol=1e-9)

    @pytest.mark.parametrize("lu_backend", ["crout", "scipy"])
    def test_lu_backends_equal_results(self, er_graph, lu_backend):
        index = KDash(er_graph, lu_backend=lu_backend).build()
        reference = KDash(er_graph).build()
        assert np.allclose(
            index.proximity_column(3), reference.proximity_column(3), atol=1e-12
        )


class TestProximity:
    def test_single_pair_matches_direct(self, built, er_graph):
        a = column_normalized_adjacency(er_graph)
        exact = direct_solve_rwr(a, 4, 0.95)
        for node in (0, 4, 17, 59):
            assert built.proximity(4, node) == pytest.approx(exact[node], abs=1e-10)

    def test_column_matches_direct(self, built, er_graph):
        a = column_normalized_adjacency(er_graph)
        exact = direct_solve_rwr(a, 9, 0.95)
        assert np.allclose(built.proximity_column(9), exact, atol=1e-10)

    def test_bad_node(self, built):
        with pytest.raises(NodeNotFoundError):
            built.proximity(0, 999)


class TestTopK:
    def test_answers_match_brute_force(self, built, er_graph):
        a = column_normalized_adjacency(er_graph)
        for q in (0, 7, 33):
            exact = direct_solve_rwr(a, q, 0.95)
            for k in (1, 3, 10):
                res = built.top_k(q, k)
                expected = [p for _, p in top_k_from_vector(exact, k)]
                assert np.allclose(
                    sorted(res.proximities, reverse=True), expected, atol=1e-9
                )

    def test_counters_consistent(self, built):
        res = built.top_k(0, 5)
        assert res.n_computed <= res.n_visited
        assert res.n_visited + res.n_pruned >= built.graph.n_nodes or res.terminated_early is False

    def test_query_always_first(self, built):
        res = built.top_k(12, 5)
        assert res.nodes[0] == 12  # p_q >= c dominates everything else

    def test_prune_false_same_answer(self, built):
        a = built.top_k(3, 7)
        b = built.top_k(3, 7, prune=False)
        assert np.allclose(sorted(a.proximities), sorted(b.proximities), atol=1e-12)
        assert not b.terminated_early
        assert b.n_computed >= a.n_computed

    def test_root_override_same_answer(self, built):
        a = built.top_k(3, 5)
        b = built.top_k(3, 5, root=40)
        assert np.allclose(sorted(a.proximities), sorted(b.proximities), atol=1e-9)

    def test_root_override_costs_more(self, built):
        a = built.top_k(3, 5)
        b = built.top_k(3, 5, root=40)
        assert b.n_computed >= a.n_computed

    def test_k_exceeding_n_padded(self, built):
        n = built.graph.n_nodes
        res = built.top_k(0, n + 10)
        assert len(res.items) == n
        assert len(set(res.nodes)) == n

    def test_invalid_k(self, built):
        with pytest.raises(InvalidParameterError):
            built.top_k(0, 0)
        with pytest.raises(InvalidParameterError):
            built.top_k(0, -3)

    def test_invalid_query(self, built):
        with pytest.raises(NodeNotFoundError):
            built.top_k(-1, 5)


class TestEdgeCaseGraphs:
    def test_star_from_hub(self):
        index = KDash(star_graph(6), c=0.9).build()
        res = index.top_k(0, 3)
        assert res.nodes[0] == 0
        # all leaves tie for second place; result carries 2 of them
        assert len(res.items) == 3
        assert res.items[1][1] == pytest.approx(res.items[2][1])

    def test_star_from_leaf(self):
        index = KDash(star_graph(6), c=0.9).build()
        res = index.top_k(3, 2)
        assert res.nodes[0] == 3
        assert res.nodes[1] == 0  # the hub is the leaf's best friend

    def test_disconnected_query_pads_with_zeros(self):
        g = DiGraph(5)
        g.add_edge(1, 2)
        g.add_edge(2, 1)
        index = KDash(g, c=0.9).build()
        res = index.top_k(0, 3)
        assert res.nodes[0] == 0
        assert res.padded
        assert res.items[1][1] == 0.0
        assert res.items[2][1] == 0.0

    def test_self_loop_graph(self):
        g = DiGraph(3)
        g.add_edge(0, 0, 1.0)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 0, 1.0)
        index = KDash(g, c=0.8).build()
        a = column_normalized_adjacency(g)
        exact = direct_solve_rwr(a, 0, 0.8)
        res = index.top_k(0, 3)
        assert np.allclose(
            sorted(res.proximities, reverse=True),
            sorted(exact, reverse=True)[:3],
            atol=1e-10,
        )

    def test_two_node_cycle(self):
        g = DiGraph(2)
        g.add_edge(0, 1)
        g.add_edge(1, 0)
        index = KDash(g, c=0.5).build()
        res = index.top_k(0, 2)
        # p0 = c / (1 - (1-c)^2) ... closed form for the 2-cycle
        c = 0.5
        p0 = c / (1 - (1 - c) ** 2)
        p1 = (1 - c) * p0
        assert res.items[0][1] == pytest.approx(p0)
        assert res.items[1][1] == pytest.approx(p1)

    def test_dangling_query(self):
        g = DiGraph(3)
        g.add_edge(1, 0)  # query 0 has no out-edges
        index = KDash(g, c=0.9).build()
        res = index.top_k(0, 2)
        assert res.items[0] == (0, pytest.approx(0.9))
        assert res.items[1][1] == 0.0
