"""Integration tests for the per-figure experiment modules.

Each experiment runs on a small-scale context and must (a) complete,
(b) produce the expected table structure, and (c) reproduce the paper's
*qualitative shape* where the shape is robust at tiny scale.
"""

import numpy as np
import pytest

from repro.eval.experiments import (
    fig2_efficiency,
    fig3_precision,
    fig4_tradeoff,
    fig5_nnz,
    fig6_precompute,
    fig7_pruning,
    fig9_root_selection,
    restart_sweep,
    table2_case_study,
)
from repro.eval.harness import ExperimentContext


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(scale=0.25, dataset_names=("Internet", "Citation"))


@pytest.fixture(scope="module")
def dictionary_ctx():
    return ExperimentContext(scale=0.4, dataset_names=("Dictionary",))


class TestFig2:
    def test_structure_and_shape(self, ctx):
        # Median of 5 timings: one timing of three queries is too noisy to
        # order the methods reliably on a shared host.
        table = fig2_efficiency.run(ctx, nb_ranks=(10, 40), bpa_hubs=40, n_queries=3, repeats=5)
        assert table.columns[0] == "dataset"
        assert len(table.rows) == 2
        for name in ("Internet", "Citation"):
            row = table.row_dict(name)
            # headline shape: K-dash(5) beats both baselines
            assert row["K-dash(5)"] < row["NB_LIN(40)"]
            assert row["K-dash(5)"] < row["BPA(5)"]


class TestFig3:
    def test_precision_shape(self, dictionary_ctx):
        table = fig3_precision.run(
            dictionary_ctx, sweep=(5, 60), k=5, n_queries=4
        )
        kdash = table.column("K-dash")
        assert all(v == 1.0 for v in kdash)
        nblin = table.column("NB_LIN")
        assert nblin[0] <= nblin[-1] + 1e-9  # precision rises with rank
        assert nblin[0] < 1.0  # low rank is lossy
        bpa = table.column("BPA")
        assert min(bpa) > 0.9  # recall-1 method, near-exact ranking


class TestFig4:
    def test_time_shape(self, dictionary_ctx):
        table = fig4_tradeoff.run(
            dictionary_ctx, sweep=(5, 60), k=5, n_queries=4, repeats=1
        )
        kdash = table.column("K-dash")
        assert kdash[0] == kdash[-1]  # parameter-free: one number
        nblin = table.column("NB_LIN")
        assert all(isinstance(v, float) and v > 0 for v in nblin)


class TestFig5AndFig6:
    def test_fill_shape(self, ctx):
        table = fig5_nnz.run(ctx)
        for name in ("Internet", "Citation"):
            row = table.row_dict(name)
            assert row["Hybrid"] <= row["Random"]
            assert row["Degree"] <= row["Random"]

    def test_precompute_rows(self, ctx):
        table = fig6_precompute.run(ctx)
        assert len(table.rows) == 2
        for row in table.rows:
            assert all(v > 0 for v in row[1:])


class TestFig7:
    def test_pruning_speedup(self, ctx):
        table = fig7_pruning.run(ctx, n_queries=3, repeats=1)
        for name in ("Internet", "Citation"):
            row = table.row_dict(name)
            assert row["speed-up"] > 1.0


class TestFig9:
    def test_root_selection_shape(self, ctx):
        table = fig9_root_selection.run(ctx, n_queries=3)
        for name in ("Internet", "Citation"):
            row = table.row_dict(name)
            assert row["Random root"] > row["K-dash (query root)"]


class TestTable2:
    def test_case_study_lists(self, dictionary_ctx):
        tables = table2_case_study.run(
            dictionary_ctx, terms=("microsoft", "linux"), k=5, nb_rank=20
        )
        assert len(tables) == 2
        for table in tables:
            kdash_row = table.rows[0]
            assert kdash_row[0] == "K-dash"
            # the queried term itself always ranks first
            assert table.title.split("'")[1] == kdash_row[1]

    def test_unknown_term_rejected(self, dictionary_ctx):
        with pytest.raises(ValueError):
            table2_case_study.run(dictionary_ctx, terms=("not-a-hub",))


class TestRestartSweep:
    def test_exact_across_c(self, ctx):
        table = restart_sweep.run(
            ctx, c_values=(0.5, 0.95), dataset="Internet", n_queries=3
        )
        assert all(v is True for v in table.column("exact"))
        computations = table.column("mean computations")
        # lower c -> flatter proximities -> weaker pruning
        assert computations[0] >= computations[-1]
