"""Unit tests for DynamicKDash (exact queries under edge updates)."""

import numpy as np
import pytest

from repro import DynamicKDash, KDash
from repro.exceptions import GraphError, InvalidParameterError
from repro.graph import column_normalized_adjacency, erdos_renyi_graph
from repro.query.backends import available_backends, resolve_backend_name
from repro.rwr import direct_solve_rwr


@pytest.fixture
def dyn(er_graph):
    return DynamicKDash(er_graph, c=0.9, rebuild_threshold=None)


def reference(dyn, query):
    return direct_solve_rwr(column_normalized_adjacency(dyn.graph), query, dyn.c)


class TestMutations:
    def test_no_updates_delegates_to_pruned_search(self, dyn):
        result = dyn.top_k(0, 5)
        assert result.n_computed < dyn.graph.n_nodes  # pruned path used

    def test_add_edge_exact(self, dyn):
        dyn.add_edge(0, 42, 3.0)
        assert np.allclose(dyn.proximity_column(0), reference(dyn, 0), atol=1e-9)

    def test_remove_edge_exact(self, dyn):
        u, v, _ = next(iter(dyn.graph.edges()))
        dyn.remove_edge(u, v)
        assert np.allclose(dyn.proximity_column(u), reference(dyn, u), atol=1e-9)

    def test_set_edge_weight_exact(self, dyn):
        u, v, _ = next(iter(dyn.graph.edges()))
        dyn.set_edge_weight(u, v, 10.0)
        assert np.allclose(dyn.proximity_column(v), reference(dyn, v), atol=1e-9)

    def test_new_dangling_column_exact(self, dyn):
        # Remove ALL out-edges of a node: its column becomes zero.
        u = next(u for u in dyn.graph.nodes() if dyn.graph.out_degree(u) > 0)
        for v in list(dyn.graph.successors(u)):
            dyn.remove_edge(u, v)
        assert dyn.graph.out_degree(u) == 0
        assert np.allclose(dyn.proximity_column(0), reference(dyn, 0), atol=1e-9)

    def test_formerly_dangling_column_exact(self, dyn):
        dangling = [u for u in dyn.graph.nodes() if dyn.graph.out_degree(u) == 0]
        if not dangling:
            dyn.graph.add_nodes(0)  # nothing to do; craft one instead
            pytest.skip("fixture graph has no dangling node")
        u = dangling[0]
        dyn.add_edge(u, 0, 1.0)
        assert np.allclose(dyn.proximity_column(u), reference(dyn, u), atol=1e-9)

    def test_batched_updates_exact(self, dyn, rng):
        n = dyn.graph.n_nodes
        for _ in range(15):
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v and not dyn.graph.has_edge(u, v):
                dyn.add_edge(u, v, float(rng.integers(1, 4)))
        assert dyn.n_pending_columns > 1
        for q in (0, 7, 23):
            assert np.allclose(dyn.proximity_column(q), reference(dyn, q), atol=1e-8)

    def test_top_k_under_updates(self, dyn):
        dyn.add_edge(0, 55, 5.0)
        result = dyn.top_k(0, 5)
        exact = reference(dyn, 0)
        assert np.allclose(
            sorted(result.proximities, reverse=True),
            sorted(exact, reverse=True)[:5],
            atol=1e-9,
        )
        assert result.n_computed == dyn.graph.n_nodes  # exhaustive path

    def test_remove_missing_edge_raises(self, dyn):
        with pytest.raises(GraphError):
            dyn.remove_edge(0, 0)


class TestRebuild:
    def test_manual_rebuild_restores_pruning(self, dyn):
        dyn.add_edge(0, 42, 3.0)
        before = dyn.top_k(0, 5)
        dyn.rebuild()
        after = dyn.top_k(0, 5)
        assert dyn.n_pending_columns == 0
        assert after.n_computed < dyn.graph.n_nodes
        assert np.allclose(
            sorted(before.proximities), sorted(after.proximities), atol=1e-9
        )

    def test_auto_rebuild_threshold(self, er_graph):
        dyn = DynamicKDash(er_graph, c=0.9, rebuild_threshold=3)
        dyn.add_edge(0, 10)
        dyn.add_edge(1, 11)
        assert dyn.n_rebuilds == 0
        dyn.add_edge(2, 12)  # third distinct column triggers the rebuild
        assert dyn.n_rebuilds == 1
        assert dyn.n_pending_columns == 0

    def test_threshold_validation(self, er_graph):
        with pytest.raises(InvalidParameterError):
            DynamicKDash(er_graph, rebuild_threshold=0)

    def test_rebuild_keeps_the_adopted_backends(self, er_graph):
        # The kernel backend that $REPRO_KERNEL_BACKEND does not select, so
        # a rebuild that fell back to the default would show.
        other = next(b for b in available_backends() if b != resolve_backend_name())
        index = KDash(er_graph, c=0.9, lu_backend="crout", kernel_backend=other)
        dyn = DynamicKDash.from_index(index.build(), rebuild_threshold=None)
        dyn.add_edge(0, 42, 3.0)
        dyn.rebuild()
        rebuilt = dyn.base_index
        assert rebuilt is not index
        assert rebuilt.kernel_backend == rebuilt.prepared.backend == other
        assert rebuilt.lu_backend == rebuilt.build_report.lu_backend_used == "crout"

    def test_wrapper_does_not_mutate_input(self, er_graph):
        m_before = er_graph.n_edges
        dyn = DynamicKDash(er_graph, rebuild_threshold=None)
        dyn.add_edge(0, 1, 9.0)
        assert er_graph.n_edges == m_before


class TestAgainstFreshIndex:
    def test_converges_to_fresh_build(self, er_graph, rng):
        dyn = DynamicKDash(er_graph, c=0.9, rebuild_threshold=None)
        n = er_graph.n_nodes
        for _ in range(10):
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v:
                dyn.add_edge(u, v, 1.0)
        fresh = KDash(dyn.graph, c=0.9).build()
        for q in (0, 9, 31):
            assert np.allclose(
                dyn.proximity_column(q), fresh.proximity_column(q), atol=1e-8
            )
