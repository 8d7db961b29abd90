"""End-to-end pipeline tests on every synthetic dataset.

One test per dataset runs the complete production path — generate graph,
build the hybrid K-dash index, run a batch of queries — and validates
exactness against the direct solver plus the structural expectations
(pruning effective, index sparse, counters sane).
"""

import numpy as np
import pytest

from repro.core import KDash
from repro.datasets import DATASET_NAMES, load_dataset
from repro.eval.metrics import exactness_certificate
from repro.graph import column_normalized_adjacency
from repro.rwr import direct_solve_rwr

SCALE = 0.2  # keep the integration suite brisk


@pytest.fixture(scope="module")
def built_indexes():
    out = {}
    for name in DATASET_NAMES:
        graph = load_dataset(name, SCALE).graph
        out[name] = KDash(graph, c=0.95).build()
    return out


@pytest.mark.parametrize("name", DATASET_NAMES)
class TestDatasetPipelines:
    def test_exact_on_sampled_queries(self, built_indexes, name):
        index = built_indexes[name]
        graph = index.graph
        adjacency = column_normalized_adjacency(graph)
        rng = np.random.default_rng(99)
        eligible = np.flatnonzero(graph.out_degree_array() > 0)
        queries = rng.choice(eligible, size=min(6, eligible.size), replace=False)
        for q in queries:
            q = int(q)
            result = index.top_k(q, 5)
            exact = direct_solve_rwr(adjacency, q, 0.95)
            assert exactness_certificate(result, exact), (name, q)

    def test_pruning_effective(self, built_indexes, name):
        index = built_indexes[name]
        graph = index.graph
        rng = np.random.default_rng(7)
        eligible = np.flatnonzero(graph.out_degree_array() > 0)
        queries = rng.choice(eligible, size=min(6, eligible.size), replace=False)
        computed = [index.top_k(int(q), 5).n_computed for q in queries]
        # On every dataset the K=5 search must touch well under half
        # the graph on average — that is the point of the estimator.
        assert np.mean(computed) < 0.5 * graph.n_nodes, (name, computed)

    def test_index_smaller_than_dense(self, built_indexes, name):
        index = built_indexes[name]
        n = index.graph.n_nodes
        assert index.index_nnz < 0.8 * n * n

    def test_build_report_consistency(self, built_indexes, name):
        report = built_indexes[name].build_report
        assert report.fill_in.n_nodes == built_indexes[name].graph.n_nodes
        assert report.total_seconds >= (
            report.reorder_seconds + report.lu_seconds + report.inverse_seconds
        ) - 1e-6


class TestCrossMethodAgreement:
    """All exact methods must agree; approximations must be bounded."""

    def test_exact_methods_agree(self):
        from repro.baselines import IterativeRWR

        graph = load_dataset("Citation", SCALE).graph
        index = KDash(graph).build()
        iterative = IterativeRWR(graph).build()
        adjacency = column_normalized_adjacency(graph)
        for q in (0, 11, 42):
            kdash_col = index.proximity_column(q)
            iterative_col = iterative.proximity_vector(q)
            direct_col = direct_solve_rwr(adjacency, q, 0.95)
            assert np.allclose(kdash_col, direct_col, atol=1e-9)
            assert np.allclose(iterative_col, direct_col, atol=1e-8)

    def test_bpa_and_blin_track_exact(self):
        from repro.baselines import BasicPushAlgorithm, BLin

        graph = load_dataset("Citation", SCALE).graph
        adjacency = column_normalized_adjacency(graph)
        bpa = BasicPushAlgorithm(graph, n_hubs=20, residual_tolerance=1e-9).build()
        blin = BLin(graph, target_rank=40).build()
        for q in (3, 17):
            exact = direct_solve_rwr(adjacency, q, 0.95)
            assert np.allclose(bpa.proximity_vector(q), exact, atol=1e-6)
            # B_LIN is approximate: check aggregate error, not equality.
            assert np.abs(blin.proximity_vector(q) - exact).sum() < 0.5


class TestCroutEndToEnd:
    def test_pure_python_backend_full_pipeline(self):
        graph = load_dataset("Internet", 0.05).graph
        index = KDash(graph, lu_backend="crout").build()
        assert index.build_report.lu_backend_used == "crout"
        adjacency = column_normalized_adjacency(graph)
        exact = direct_solve_rwr(adjacency, 0, 0.95)
        assert exactness_certificate(index.top_k(0, 5), exact)


class TestPersistenceEndToEnd:
    def test_save_load_query_cycle(self, tmp_path):
        from repro.core import load_index, save_index

        graph = load_dataset("Email", 0.1).graph
        index = KDash(graph).build()
        path = str(tmp_path / "email.npz")
        save_index(index, path)
        loaded = load_index(path)
        for q in (0, 5):
            assert index.top_k(q, 5).items == loaded.top_k(q, 5).items
