"""Unit tests for index persistence (snapshot format v2 + v1 compat)."""

import numpy as np
import pytest

from repro.core import DynamicKDash, KDash, load_index, save_index
from repro.exceptions import IndexNotBuiltError, SerializationError
from repro.graph import DiGraph


def _save_v1(index: KDash, path: str) -> None:
    """Write the PR-2-era v1 archive layout (no PreparedIndex caches).

    A byte-faithful replica of the old ``save_index`` so the
    backward-compat path is tested against a real v1 file, not a
    monkeypatched v2 one.
    """
    graph = index.graph
    edges = list(graph.edges())
    np.savez_compressed(
        path,
        format_version=1,
        n_nodes=graph.n_nodes,
        c=index.c,
        position=index._perm.position,
        l_inv_indptr=index._l_inv.indptr,
        l_inv_indices=index._l_inv.indices,
        l_inv_data=index._l_inv.data,
        u_inv_indptr=index._u_inv.indptr,
        u_inv_indices=index._u_inv.indices,
        u_inv_data=index._u_inv.data,
        amax_col=index._amax_col,
        amax=index._amax,
        diag=index._diag,
        edge_src=np.asarray([u for u, _, _ in edges], dtype=np.int64),
        edge_dst=np.asarray([v for _, v, _ in edges], dtype=np.int64),
        edge_weight=np.asarray([w for _, _, w in edges], dtype=np.float64),
        labels=np.asarray(
            graph.labels if graph.labels is not None else [], dtype=object
        ),
        allow_pickle=True,
    )


_UNPICKLED = []


def _tripwire(value):
    _UNPICKLED.append(value)
    return value


class _Pickled:
    """An object whose unpickling calls :func:`_tripwire`."""

    def __reduce__(self):
        return (_tripwire, (2,))


class TestSaveLoad:
    def test_round_trip_queries_identical(self, tmp_path, er_graph):
        index = KDash(er_graph, c=0.9).build()
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.is_built
        assert loaded.c == index.c
        for q in (0, 5, 21):
            original = index.top_k(q, 5)
            restored = loaded.top_k(q, 5)
            assert original.items == restored.items

    def test_round_trip_proximity_column(self, tmp_path, er_graph):
        index = KDash(er_graph).build()
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        loaded = load_index(path)
        assert np.allclose(
            index.proximity_column(3), loaded.proximity_column(3), atol=0
        )

    def test_labels_survive(self, tmp_path):
        g = DiGraph(3, labels=["x", "y", "z"])
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 0)
        index = KDash(g, c=0.9).build()
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.graph.labels == ["x", "y", "z"]

    def test_unbuilt_index_rejected(self, tmp_path, er_graph):
        with pytest.raises(IndexNotBuiltError):
            save_index(KDash(er_graph), str(tmp_path / "x.npz"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_index(str(tmp_path / "missing.npz"))

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "corrupt.npz"
        path.write_bytes(b"not an npz archive")
        with pytest.raises(SerializationError):
            load_index(str(path))

    def test_build_report_absent_after_load(self, tmp_path, er_graph):
        index = KDash(er_graph).build()
        path = str(tmp_path / "index.npz")
        save_index(index, path)
        assert load_index(path).build_report is None


class TestFormatV2:
    """The versioned snapshot format with persisted PreparedIndex caches."""

    @pytest.fixture
    def loaded(self, tmp_path, er_graph):
        index = KDash(er_graph, c=0.9).build()
        path = str(tmp_path / "v2.npz")
        save_index(index, path)
        return index, load_index(path)

    def test_archive_tagged_v2(self, tmp_path, er_graph):
        path = str(tmp_path / "v2.npz")
        save_index(KDash(er_graph, c=0.9).build(), path)
        archive = np.load(path, allow_pickle=True)
        assert int(archive["format_version"]) == 2
        assert "succ_indptr" in archive and "total_mass_perm" in archive

    def test_all_four_query_modes_identical(self, loaded):
        """save→load→query equivalence for every public query mode."""
        index, restored = loaded
        for q in (0, 7, 33):
            assert index.top_k(q, 6).items == restored.top_k(q, 6).items
            assert (
                index.above_threshold(q, 1e-3).items
                == restored.above_threshold(q, 1e-3).items
            )
            assert (
                index.top_k(q, 6, root=(q + 3) % 60).items
                == restored.top_k(q, 6, root=(q + 3) % 60).items
            )
        restart = {3: 0.5, 11: 0.25, 40: 0.25}
        assert (
            index.top_k_personalized(restart, 6).items
            == restored.top_k_personalized(restart, 6).items
        )

    def test_prepared_caches_restored_verbatim(self, loaded):
        """v2 loads adopt the persisted caches instead of re-deriving them."""
        index, restored = loaded
        assert restored._succ_lists == index._succ_lists
        assert np.array_equal(restored._total_mass_perm, index._total_mass_perm)
        assert restored._prepared.c_prime == index._prepared.c_prime
        assert restored._prepared.position == index._prepared.position

    def test_search_counters_identical(self, loaded):
        """Identical scan order → identical pruning counters, not just items."""
        index, restored = loaded
        for q in (2, 19):
            a, b = index.top_k(q, 5), restored.top_k(q, 5)
            assert (a.n_visited, a.n_computed, a.n_pruned) == (
                b.n_visited,
                b.n_computed,
                b.n_pruned,
            )


class TestV1BackwardCompat:
    def test_v1_archive_loads_and_queries(self, tmp_path, er_graph):
        index = KDash(er_graph, c=0.9).build()
        path = str(tmp_path / "v1.npz")
        _save_v1(index, path)
        restored = load_index(path)
        assert restored.is_built
        for q in (0, 5, 21):
            assert index.top_k(q, 5).items == restored.top_k(q, 5).items
        assert np.allclose(
            index.proximity_column(3), restored.proximity_column(3), atol=0
        )

    def test_v1_rebuilds_prepared_caches(self, tmp_path, er_graph):
        index = KDash(er_graph, c=0.9).build()
        path = str(tmp_path / "v1.npz")
        _save_v1(index, path)
        restored = load_index(path)
        assert restored._succ_lists == index._succ_lists
        assert np.allclose(
            restored._total_mass_perm, index._total_mass_perm, atol=0
        )

    def test_unknown_future_version_rejected(self, tmp_path, er_graph):
        index = KDash(er_graph, c=0.9).build()
        path = str(tmp_path / "v9.npz")
        save_index(index, path)
        archive = dict(np.load(path, allow_pickle=True))
        archive["format_version"] = 9
        np.savez_compressed(path, **archive)
        with pytest.raises(SerializationError, match="version 9"):
            load_index(path)


class TestDynamicIndexSave:
    def test_pending_corrections_refused(self, tmp_path, er_graph):
        dyn = DynamicKDash(er_graph, c=0.9, rebuild_threshold=None)
        dyn.add_edge(0, 5, 2.0)
        dyn.add_edge(3, 7)
        with pytest.raises(SerializationError, match="pending corrected"):
            save_index(dyn, str(tmp_path / "stale.npz"))
        # The message tells the operator the way out.
        with pytest.raises(SerializationError, match="rebuild"):
            save_index(dyn, str(tmp_path / "stale.npz"))

    def test_save_after_rebuild_roundtrips(self, tmp_path, er_graph):
        dyn = DynamicKDash(er_graph, c=0.9, rebuild_threshold=None)
        dyn.add_edge(0, 5, 2.0)
        dyn.rebuild()
        path = str(tmp_path / "compacted.npz")
        save_index(dyn, path)
        restored = load_index(path)
        for q in (0, 5, 21):
            assert dyn.top_k(q, 5).items == restored.top_k(q, 5).items

    def test_clean_dynamic_saves_base(self, tmp_path, er_graph):
        dyn = DynamicKDash(er_graph, c=0.9, rebuild_threshold=None)
        path = str(tmp_path / "clean.npz")
        save_index(dyn, path)
        restored = load_index(path)
        assert restored.top_k(4, 5).items == dyn.top_k(4, 5).items

    def test_delete_then_reinsert_cancels_and_saves(self, tmp_path, er_graph):
        """A batch whose deltas cancel leaves rank 0 — saving is legal."""
        dyn = DynamicKDash(er_graph, c=0.9, rebuild_threshold=None)
        edge = next(iter(er_graph.edges()))
        dyn.apply_updates(deletes=[edge[:2]], inserts=[(edge[0], edge[1], edge[2])])
        assert dyn.n_pending_columns == 0
        save_index(dyn, str(tmp_path / "cancelled.npz"))


class TestShardedFormatV3:
    """The sharded manifest-plus-payloads layout of format v3."""

    @pytest.fixture(scope="class")
    def built(self, request):
        from repro.graph import erdos_renyi_graph

        return KDash(erdos_renyi_graph(50, 0.1, seed=13), c=0.9).build()

    @pytest.fixture
    def saved(self, built, tmp_path):
        from repro.core import ShardedIndex, save_sharded_index

        sharded = ShardedIndex.from_index(built, 3, partitioner="louvain")
        path = str(tmp_path / "sharded.npz")
        written = save_sharded_index(sharded, path)
        return sharded, path, written

    def test_roundtrip_answers_bitwise(self, built, saved):
        from repro.core import load_sharded_index
        from repro.query import ScatterGatherPlanner

        _, path, _ = saved
        planner = ScatterGatherPlanner(load_sharded_index(path))
        for q in range(0, 50, 7):
            assert planner.top_k(q, 5).items == built.top_k(q, 5).items

    def test_manifest_written_last(self, saved):
        _, path, written = saved
        assert written[-1] == path
        assert len(written) == 4  # 3 shard payloads + manifest

    def test_partial_load_keeps_summaries(self, saved):
        from repro.core import load_sharded_index

        _, path, _ = saved
        partial = load_sharded_index(path, only=[2])
        assert partial.shards[0] is None and partial.shards[1] is None
        assert partial.shards[2] is not None
        assert len(partial.summaries) == 3
        assert partial.summaries[0].colmax.size == partial.n

    def test_partial_load_rejects_unknown_shard(self, saved):
        from repro.core import load_sharded_index

        _, path, _ = saved
        with pytest.raises(SerializationError, match="do not exist"):
            load_sharded_index(path, only=[7])

    def test_missing_shard_file_is_a_clear_error(self, saved, tmp_path):
        """The satellite fix: a SerializationError naming both files,
        never a KeyError/FileNotFoundError from inside numpy."""
        import os

        from repro.core import load_sharded_index

        _, path, written = saved
        os.remove(written[1])  # shard 1's payload
        with pytest.raises(SerializationError, match="missing shard file"):
            load_sharded_index(path)
        # Loading only the surviving shards still works.
        partial = load_sharded_index(path, only=[0])
        assert partial.shards[0] is not None

    def test_unreadable_shard_file_is_a_clear_error(self, saved):
        from repro.core import load_sharded_index

        _, path, written = saved
        with open(written[0], "wb") as handle:
            handle.write(b"not an npz archive")
        with pytest.raises(SerializationError, match="unreadable shard file"):
            load_sharded_index(path)

    def test_load_index_redirects_v3(self, saved):
        _, path, _ = saved
        with pytest.raises(SerializationError, match="load_sharded_index"):
            load_index(path)

    def test_load_sharded_redirects_v2(self, built, tmp_path):
        from repro.core import load_sharded_index

        path = str(tmp_path / "plain.npz")
        save_index(built, path)
        with pytest.raises(SerializationError, match="load_index"):
            load_sharded_index(path)

    def test_read_format_version(self, built, saved, tmp_path):
        from repro.core import read_format_version

        _, manifest_path, _ = saved
        assert read_format_version(manifest_path) == 3
        plain = str(tmp_path / "plain.npz")
        save_index(built, plain)
        assert read_format_version(plain) == 2
        with pytest.raises(SerializationError):
            read_format_version(str(tmp_path / "nope.npz"))

    def test_read_format_version_unpickles_nothing(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core import read_format_version

        version = np.empty((), dtype=object)
        version[()] = _Pickled()
        path = str(tmp_path / "hostile.npz")
        np.savez(path, format_version=version)
        with pytest.raises(SerializationError, match="allow_pickle"):
            read_format_version(path)
        assert main(["query", "--index", path, "--node", "0"]) == 2
        assert "error: cannot read a format version" in capsys.readouterr().out
        assert _UNPICKLED == []

    def test_read_format_version_needs_an_integer_scalar(self, tmp_path):
        from repro.core import read_format_version

        for name, value in (("pair", np.array([2, 3])), ("real", np.float64(2))):
            path = str(tmp_path / f"{name}.npz")
            np.savez(path, format_version=value)
            with pytest.raises(SerializationError, match="integer scalar"):
                read_format_version(path)

    def test_saving_partial_sharded_index_rejected(self, saved, tmp_path):
        from repro.core import load_sharded_index, save_sharded_index

        _, path, _ = saved
        partial = load_sharded_index(path, only=[0])
        with pytest.raises(SerializationError, match="partially loaded"):
            save_sharded_index(partial, str(tmp_path / "again.npz"))

    def test_future_manifest_version_rejected(self, saved):
        from repro.core import load_sharded_index

        _, path, _ = saved
        arrays = dict(np.load(path, allow_pickle=True))
        arrays["format_version"] = np.int64(9)
        np.savez_compressed(path, **arrays)
        with pytest.raises(SerializationError, match="newer release"):
            load_sharded_index(path)

    def test_archive_without_format_version_is_a_clear_error(self, tmp_path):
        from repro.core import load_sharded_index

        stray = str(tmp_path / "stray.npz")
        np.savez_compressed(stray, foo=np.arange(3))
        with pytest.raises(SerializationError, match="format_version"):
            load_sharded_index(stray)
        with pytest.raises(SerializationError, match="format_version"):
            load_index(stray)

    def test_failed_save_leaves_no_orphan_payloads(self, built, tmp_path, monkeypatch):
        """A save that dies at the manifest removes its payload files."""
        import repro.core.index_io as index_io
        from repro.core import ShardedIndex, save_sharded_index

        sharded = ShardedIndex.from_index(built, 3, partitioner="range")

        def boom(manifest_path, *args, **kwargs):
            raise SerializationError("disk full")

        monkeypatch.setattr(index_io, "_write_manifest", boom)
        with pytest.raises(SerializationError, match="disk full"):
            save_sharded_index(sharded, str(tmp_path / "doomed.npz"))
        assert list(tmp_path.iterdir()) == []
