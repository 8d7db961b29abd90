"""Unit tests for index persistence: formats v4/v5, and legacy v1–v3."""

import multiprocessing
import os
import zipfile

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


def _save_v2(index: KDash, path: str, **overrides) -> None:
    """Write a legacy v2 archive: the v4 members, deflated, with labels
    as a pickled object array (the writer v4 replaced).  ``overrides``
    replace members."""
    graph = index.graph
    edges = list(graph.edges())
    succ_lists = index._succ_lists
    succ_indptr = np.zeros(graph.n_nodes + 1, dtype=np.int64)
    np.cumsum([len(s) for s in succ_lists], out=succ_indptr[1:])
    arrays = dict(
        format_version=2,
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
        succ_indptr=succ_indptr,
        succ_indices=np.asarray([v for s in succ_lists for v in s], dtype=np.int64),
        total_mass_perm=index._total_mass_perm,
    )
    arrays.update(overrides)
    np.savez_compressed(path, allow_pickle=True, **arrays)


def _save_v3(index, sharded, path: str, **overrides) -> list:
    """Write a legacy v3 manifest plus payloads: the v5 members,
    deflated, with labels and shard_files as pickled object arrays.
    ``overrides`` replace manifest members.  Returns the written paths,
    manifest last."""
    return _save_manifest_l_inv(index, sharded, path, 3, **overrides)


def _save_v5(index, sharded, path: str) -> list:
    """Write a v5 manifest plus payloads, as the writer v6 replaced did:
    stored members, all of ``L^-1`` in the manifest and none in the
    payloads.  Returns the written paths, manifest last."""
    return _save_manifest_l_inv(index, sharded, path, 5)


def _save_manifest_l_inv(index, sharded, path: str, version: int, **overrides) -> list:
    """The v3/v5 layout: ``index``'s whole ``L^-1`` in the manifest."""
    legacy = version == 3
    save = np.savez_compressed if legacy else np.savez
    text = object if legacy else str
    stem = path[:-4]
    written, shard_files = [], []
    for shard_id, payload in enumerate(sharded.shards):
        shard_path = f"{stem}.shard{shard_id:03d}.npz"
        save(
            shard_path,
            format_version=version,
            shard_id=shard_id,
            members=payload.members,
            scan_nodes=np.asarray(payload.scan_nodes, dtype=np.int64),
            scan_norms=np.asarray(payload.scan_norms, dtype=np.float64),
            row_indptr=np.asarray(payload.row_indptr, dtype=np.int64),
            row_indices=payload.row_indices,
            row_data=payload.row_data,
        )
        shard_files.append(os.path.basename(shard_path))
        written.append(shard_path)
    prepared = index.prepared
    l_inv = prepared.l_inv
    arrays = dict(
        format_version=version,
        n_nodes=sharded.n,
        c=sharded.c,
        n_shards=sharded.n_shards,
        partitioner=sharded.partitioner,
        shard_seed=sharded.seed,
        assignment=sharded.assignment,
        position=prepared.position_arr,
        l_inv_indptr=l_inv.indptr,
        l_inv_indices=l_inv.indices,
        l_inv_data=l_inv.data,
        total_mass_perm=prepared.total_mass_perm,
        shard_files=np.asarray(shard_files, dtype=text),
        summary_n_members=np.asarray(
            [s.n_members for s in sharded.summaries], dtype=np.int64
        ),
        summary_rownorm_max=np.asarray(
            [s.rownorm_max for s in sharded.summaries], dtype=np.float64
        ),
        summary_boundary_frac=np.asarray(
            [s.boundary_frac for s in sharded.summaries], dtype=np.float64
        ),
        summary_colmax=np.vstack([s.colmax for s in sharded.summaries]),
        labels=np.asarray(
            sharded.labels if sharded.labels is not None else [], dtype=text
        ),
    )
    arrays.update(overrides)
    save(path, allow_pickle=legacy, **arrays)
    return written + [path]


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

    def test_archive_tagged_v4(self, tmp_path, er_graph):
        path = str(tmp_path / "v4.npz")
        save_index(KDash(er_graph, c=0.9).build(), path)
        with np.load(path, allow_pickle=False) as archive:
            assert int(archive["format_version"]) == 4
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
        assert read_format_version(manifest_path) == 6
        plain = str(tmp_path / "plain.npz")
        save_index(built, plain)
        assert read_format_version(plain) == 4
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


# ----------------------------------------------------------------------
# The stored, pickle-free formats (v4, v5) and their legacy readers
# ----------------------------------------------------------------------
def _assert_identical(a, b, where=""):
    """Equal bit for bit; arrays also in dtype, shape and C-contiguity."""
    if isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_identical(x, y, f"{where}[{i}]")
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray), where
        assert (a.dtype, a.shape, a.flags.c_contiguous) == (
            b.dtype,
            b.shape,
            b.flags.c_contiguous,
        ), where
        assert a.tobytes() == b.tobytes(), where
    else:
        assert a == b, where


def _assert_same_state(a: dict, b: dict):
    assert a.keys() == b.keys()
    for name in a:
        _assert_identical(a[name], b[name], name)


def _index_state(index: KDash) -> dict:
    graph = index.graph
    return {
        "c": index.c,
        "amax": index._amax,
        "position": index._perm.position,
        "l_inv": (index._l_inv.indptr, index._l_inv.indices, index._l_inv.data),
        "u_inv": (index._u_inv.indptr, index._u_inv.indices, index._u_inv.data),
        "amax_col": index._amax_col,
        "diag": index._diag,
        "total_mass_perm": index._total_mass_perm,
        "succ_lists": index._succ_lists,
        "labels": graph.labels,
        "edges": list(graph.edges()),
    }


def _sharded_state(sharded) -> dict:
    state = {
        name: getattr(sharded, name)
        for name in (
            "n", "c", "assignment", "partitioner", "seed", "labels",
        )
    }
    for s in sharded.summaries:
        state[f"summary{s.shard_id}"] = (
            s.shard_id, s.n_members, s.rownorm_max, s.boundary_frac, s.colmax,
        )
    for shard in (s for s in sharded.shards if s is not None):
        state[f"shard{shard.shard_id}"] = tuple(
            getattr(shard, slot)
            for slot in (
                "members", "scan_nodes", "scan_norms", "row_indptr",
                "row_indices", "row_data", "l_inv_indptr", "l_inv_indices",
                "l_inv_data", "block_indptr", "block_indices", "block_data",
            )
        )
    return state


def _assert_same_answers(a: KDash, b: KDash):
    for q in range(0, a.graph.n_nodes, 7):
        x, y = a.top_k(q, 6), b.top_k(q, 6)
        assert x.items == y.items
        assert (x.n_visited, x.n_computed, x.n_pruned) == (
            y.n_visited,
            y.n_computed,
            y.n_pruned,
        )
    assert a.proximity_column(3).tobytes() == b.proximity_column(3).tobytes()


def _members(path: str) -> dict:
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def _data_offset(path: str, info: zipfile.ZipInfo) -> int:
    """File offset of a member's data: past its local header, whose
    extra field can differ from the central directory's."""
    with open(path, "rb") as handle:
        handle.seek(info.header_offset + 26)
        name_len, extra_len = np.frombuffer(handle.read(4), dtype="<u2")
    return info.header_offset + 30 + int(name_len) + int(extra_len)


def _flip_bit_in_largest_member(path: str) -> str:
    """Flip one bit in the middle of the largest member's data; returns
    the member's name (without ``.npy``)."""
    with zipfile.ZipFile(path) as archive:
        info = max(archive.infolist(), key=lambda i: i.compress_size)
    offset = _data_offset(path, info) + info.compress_size // 2
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ 0x10]))
    return info.filename[: -len(".npy")]


def _pickled(count: int) -> np.ndarray:
    hostile = np.empty(count, dtype=object)
    hostile[:] = [_Pickled() for _ in range(count)]
    return hostile


@pytest.fixture(scope="module")
def labelled_index():
    """A built index over a graph with non-ASCII and empty labels, whose
    successors are not in id order."""
    from repro.graph import erdos_renyi_graph

    base = erdos_renyi_graph(50, 0.1, seed=13)
    names = ["α", "Zürich", "東京", "node with spaces"]
    graph = DiGraph(50, labels=[f"{names[u % 4]}{u}" if u % 5 else "" for u in range(50)])
    for u in range(50):
        for v in sorted(base.successors(u), reverse=True):
            graph.add_edge(u, v, base.edge_weight(u, v))
    return KDash(graph, c=0.9).build()


@pytest.fixture(scope="module")
def unlabelled_index():
    from repro.graph import erdos_renyi_graph

    return KDash(erdos_renyi_graph(50, 0.1, seed=13), c=0.9).build()


@pytest.fixture(params=["labelled", "unlabelled"])
def any_index(request, labelled_index, unlabelled_index):
    return labelled_index if request.param == "labelled" else unlabelled_index


class TestStoredPickleFreeFormats:
    """v4 archives and v5 manifests and payloads: stored members, no
    pickle, bit-identical round trips."""

    def test_every_member_stored_and_pickle_free(self, labelled_index, tmp_path):
        from repro.core import ShardedIndex, save_sharded_index

        v4 = str(tmp_path / "v4.npz")
        save_index(labelled_index, v4)
        sharded = ShardedIndex.from_index(labelled_index, 3, partitioner="louvain")
        written = save_sharded_index(sharded, str(tmp_path / "v6.npz"))
        for path in [v4] + written:
            with zipfile.ZipFile(path) as archive:
                infos = archive.infolist()
            assert infos and all(i.compress_type == zipfile.ZIP_STORED for i in infos)
            members = _members(path)  # raises on any object member
            assert int(members["format_version"]) == (4 if path == v4 else 6)
            assert all(a.dtype != object for a in members.values())

    def test_v4_round_trip_bit_identical(self, any_index, tmp_path):
        path = str(tmp_path / "v4.npz")
        save_index(any_index, path)
        loaded = load_index(path)
        _assert_same_state(_index_state(any_index), _index_state(loaded))
        _assert_same_answers(any_index, loaded)

    def test_v5_round_trip_bit_identical(self, any_index, tmp_path):
        """A v5 manifest's ``L^-1`` is split into the same seed columns
        the sliced index holds."""
        from repro.core import ShardedIndex, load_sharded_index

        sharded = ShardedIndex.from_index(any_index, 3, partitioner="louvain")
        path = str(tmp_path / "v5.npz")
        _save_v5(any_index, sharded, path)
        _assert_same_state(_sharded_state(sharded), _sharded_state(load_sharded_index(path)))

    def test_v6_round_trip_bit_identical(self, any_index, tmp_path):
        from repro.core import ShardedIndex, load_sharded_index, save_sharded_index

        sharded = ShardedIndex.from_index(any_index, 3, partitioner="louvain")
        path = str(tmp_path / "v6.npz")
        save_sharded_index(sharded, path)
        _assert_same_state(_sharded_state(sharded), _sharded_state(load_sharded_index(path)))

    def test_restored_graph_iterates_as_saved(self, labelled_index, tmp_path):
        path = str(tmp_path / "v4.npz")
        save_index(labelled_index, path)
        saved, restored = labelled_index.graph, load_index(path).graph
        assert list(restored.edges()) == list(saved.edges())
        assert restored.n_edges == saved.n_edges
        for u in saved.nodes():
            assert restored.successors(u) == saved.successors(u)
            assert restored.predecessors(u) == saved.predecessors(u)
        assert saved.successors(0) != sorted(saved.successors(0))

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ("id_out_of_range", "out of range"),
            ("negative_id", "out of range"),
            ("nan_weight", "positive and finite"),
            ("zero_weight", "positive and finite"),
            ("duplicate_pair", "more than once"),
            ("mismatched_lengths", "equal length"),
        ],
    )
    def test_malformed_edge_arrays_refused(
        self, unlabelled_index, tmp_path, mutation, message
    ):
        path = str(tmp_path / "v4.npz")
        save_index(unlabelled_index, path)
        members = _members(path)
        src, dst, weight = (
            members["edge_src"].copy(),
            members["edge_dst"].copy(),
            members["edge_weight"].copy(),
        )
        if mutation == "id_out_of_range":
            dst[5] = int(members["n_nodes"])
        elif mutation == "negative_id":
            src[5] = -1
        elif mutation == "nan_weight":
            weight[5] = np.nan
        elif mutation == "zero_weight":
            weight[5] = 0.0
        elif mutation == "duplicate_pair":
            src[6], dst[6] = src[5], dst[5]
        else:
            weight = weight[:-1]
        members.update(edge_src=src, edge_dst=dst, edge_weight=weight)
        np.savez(path, **members)
        with pytest.raises(SerializationError, match=message):
            load_index(path)

    def test_object_member_refused_without_unpickling(self, unlabelled_index, tmp_path):
        from repro.core import ShardedIndex, load_sharded_index, save_sharded_index

        before = len(_UNPICKLED)
        path = str(tmp_path / "v4.npz")
        save_index(unlabelled_index, path)
        members = _members(path)
        members["labels"] = _pickled(unlabelled_index.graph.n_nodes)
        np.savez(path, allow_pickle=True, **members)
        with pytest.raises(SerializationError, match="'labels'.*allow_pickle"):
            load_index(path)
        manifest = str(tmp_path / "v5.npz")
        save_sharded_index(ShardedIndex.from_index(unlabelled_index, 2), manifest)
        members = _members(manifest)
        members["shard_files"] = _pickled(2)
        np.savez(manifest, allow_pickle=True, **members)
        with pytest.raises(SerializationError, match="'shard_files'.*allow_pickle"):
            load_sharded_index(manifest)
        assert len(_UNPICKLED) == before

    def test_label_with_trailing_nul_refused(self, tmp_path):
        graph = DiGraph(2, labels=["a", "b\x00"])
        graph.add_edge(0, 1)
        with pytest.raises(SerializationError, match="NUL"):
            save_index(KDash(graph, c=0.9).build(), str(tmp_path / "x.npz"))


class TestLegacyFormats:
    """v2 archives and v3 manifests, written by copies of the old
    writers, still load and answer bit for bit like v4/v5."""

    def test_v2_loads_like_v4(self, any_index, tmp_path):
        v2, v4 = str(tmp_path / "v2.npz"), str(tmp_path / "v4.npz")
        _save_v2(any_index, v2)
        save_index(any_index, v4)
        legacy, current = load_index(v2), load_index(v4)
        _assert_same_state(_index_state(legacy), _index_state(current))
        _assert_same_answers(legacy, current)

    def test_v3_loads_like_v5(self, any_index, tmp_path):
        from repro.core import ShardedIndex, load_sharded_index
        from repro.query import ScatterGatherPlanner

        sharded = ShardedIndex.from_index(any_index, 3, partitioner="louvain")
        v3, v5 = str(tmp_path / "v3.npz"), str(tmp_path / "v5.npz")
        _save_v3(any_index, sharded, v3)
        _save_v5(any_index, sharded, v5)
        legacy, current = load_sharded_index(v3), load_sharded_index(v5)
        _assert_same_state(_sharded_state(legacy), _sharded_state(current))
        a, b = ScatterGatherPlanner(legacy), ScatterGatherPlanner(current)
        for q in range(0, 50, 7):
            assert a.top_k(q, 5).items == b.top_k(q, 5).items

    def test_v5_loads_like_v6(self, any_index, tmp_path):
        """Whole or one shard at a time, a v5 manifest loads into the
        v6 layout: each loaded shard holds its own seed columns."""
        from repro.core import ShardedIndex, load_sharded_index, save_sharded_index
        from repro.query import ScatterGatherPlanner

        sharded = ShardedIndex.from_index(any_index, 3, partitioner="louvain")
        v5, v6 = str(tmp_path / "v5.npz"), str(tmp_path / "v6.npz")
        _save_v5(any_index, sharded, v5)
        save_sharded_index(sharded, v6)
        legacy, current = load_sharded_index(v5), load_sharded_index(v6)
        _assert_same_state(_sharded_state(legacy), _sharded_state(current))
        for shard_id in range(3):
            one = load_sharded_index(v5, only=[shard_id])
            assert [s is None for s in one.shards] == [s != shard_id for s in range(3)]
            _assert_identical(
                _sharded_state(one)[f"shard{shard_id}"],
                _sharded_state(current)[f"shard{shard_id}"],
            )
        a, b = ScatterGatherPlanner(legacy), ScatterGatherPlanner(current)
        for q in range(0, 50, 7):
            assert a.top_k(q, 5).items == b.top_k(q, 5).items

    def test_v5_position_out_of_range_refused(self, unlabelled_index, tmp_path):
        """A corrupt v5 ``position`` is refused before any seed column is
        gathered through it."""
        from repro.core import ShardedIndex, load_sharded_index
        from repro.exceptions import InvalidParameterError

        sharded = ShardedIndex.from_index(unlabelled_index, 2, partitioner="range")
        path = str(tmp_path / "v5.npz")
        _save_v5(unlabelled_index, sharded, path)
        members = _members(path)
        members["position"] = members["position"] - unlabelled_index.graph.n_nodes
        np.savez(path, **members)
        with pytest.raises(InvalidParameterError, match="column ids"):
            load_sharded_index(path, only=[0])


class TestCorruptMembers:
    """Any failure reading a member is a SerializationError naming the
    file and the member, never a zipfile or zlib error."""

    def test_bit_flip_in_v4_archive(self, unlabelled_index, tmp_path):
        path = str(tmp_path / "v4.npz")
        save_index(unlabelled_index, path)
        member = _flip_bit_in_largest_member(path)
        with pytest.raises(SerializationError, match=f"'{member}' of '{path}'.*CRC"):
            load_index(path)

    def test_bit_flip_in_v5_payload(self, unlabelled_index, tmp_path):
        from repro.core import ShardedIndex, load_sharded_index, save_sharded_index

        sharded = ShardedIndex.from_index(unlabelled_index, 2, partitioner="range")
        written = save_sharded_index(sharded, str(tmp_path / "v5.npz"))
        member = _flip_bit_in_largest_member(written[1])
        with pytest.raises(SerializationError, match=f"'{member}' of '{written[1]}'"):
            load_sharded_index(written[-1])
        load_sharded_index(written[-1], only=[0])  # shard 0 is intact

    def test_bit_flip_in_legacy_v2_archive(self, unlabelled_index, tmp_path):
        path = str(tmp_path / "v2.npz")
        _save_v2(unlabelled_index, path)
        member = _flip_bit_in_largest_member(path)
        with pytest.raises(SerializationError, match=f"'{member}' of '{path}'"):
            load_index(path)

    def test_missing_member(self, unlabelled_index, tmp_path):
        path = str(tmp_path / "v4.npz")
        save_index(unlabelled_index, path)
        members = _members(path)
        del members["u_inv_data"]
        np.savez(path, **members)
        with pytest.raises(SerializationError, match="'u_inv_data' of"):
            load_index(path)

    def test_cli_query_exits_2(self, unlabelled_index, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "v4.npz")
        save_index(unlabelled_index, path)
        _flip_bit_in_largest_member(path)
        assert main(["query", "--index", path, "--node", "0"]) == 2
        assert "error: cannot read member" in capsys.readouterr().out


class TestPoolsRefuseLegacySnapshots:
    """No worker unpickles: a v1–v3 snapshot is refused on the gather
    side, before any worker starts."""

    def test_replica_pool_refuses_v2(self, unlabelled_index, tmp_path):
        from repro.exceptions import ServingError
        from repro.serving import ReplicaPool

        before, children = len(_UNPICKLED), set(multiprocessing.active_children())
        path = str(tmp_path / "v2.npz")
        _save_v2(unlabelled_index, path, labels=_pickled(unlabelled_index.graph.n_nodes))
        with pytest.raises(ServingError, match="legacy format version 2.*re-publish"):
            ReplicaPool(path, 1)
        assert len(_UNPICKLED) == before
        assert set(multiprocessing.active_children()) <= children

    def test_shard_pool_refuses_v3(self, unlabelled_index, tmp_path):
        from repro.core import ShardedIndex
        from repro.exceptions import ServingError
        from repro.serving import ShardPool

        before, children = len(_UNPICKLED), set(multiprocessing.active_children())
        sharded = ShardedIndex.from_index(unlabelled_index, 2, partitioner="range")
        path = str(tmp_path / "v3.npz")
        _save_v3(
            unlabelled_index, sharded, path,
            labels=_pickled(unlabelled_index.graph.n_nodes),
        )
        with pytest.raises(ServingError, match="legacy format version 3.*re-publish"):
            ShardPool(path)
        assert len(_UNPICKLED) == before
        assert set(multiprocessing.active_children()) <= children

    def test_replica_pool_refuses_a_sharded_manifest(self, unlabelled_index, tmp_path):
        from repro.core import ShardedIndex, save_sharded_index
        from repro.exceptions import ServingError
        from repro.serving import ReplicaPool

        path = str(tmp_path / "v5.npz")
        save_sharded_index(ShardedIndex.from_index(unlabelled_index, 2), path)
        with pytest.raises(ServingError, match="ShardPool"):
            ReplicaPool(path, 1)

    def test_shard_pool_serves_v5_like_v6(self, unlabelled_index, tmp_path):
        """A v5 manifest still serves: each worker splits its own seed
        columns out of the manifest's ``L^-1`` and answers bit for bit
        what the v6 pool and the single index answer."""
        from repro.core import ShardedIndex, save_sharded_index
        from repro.serving import ShardedScheduler, ShardPool

        sharded = ShardedIndex.from_index(unlabelled_index, 3, partitioner="louvain")
        v5, v6 = str(tmp_path / "v5.npz"), str(tmp_path / "v6.npz")
        _save_v5(unlabelled_index, sharded, v5)
        save_sharded_index(sharded, v6)
        queries = list(range(0, 50, 3))
        want = [unlabelled_index.top_k(q, 5).items for q in queries]
        for path in (v5, v6):
            with ShardPool(path) as pool:
                got = ShardedScheduler(pool, batch_size=4).run(queries, k=5)
            assert [r.items for r in got] == want


def _array_bytes(sharded) -> int:
    """Bytes of every array a loaded ShardedIndex holds: the manifest's
    shared state, the summaries and each loaded shard's payload."""
    from repro.core.sharded import ShardIndex

    held = list(vars(sharded).values()) + [s.colmax for s in sharded.summaries]
    for shard in sharded.shards:
        if shard is not None:
            held += [getattr(shard, slot) for slot in ShardIndex.__slots__]
    return sum(a.nbytes for a in held if isinstance(a, np.ndarray))


class TestHeldState:
    """Each process holds only the index data it serves."""

    def test_no_scipy_matrix_held(self, unlabelled_index, tmp_path):
        """Neither a built nor a loaded index keeps a scipy copy of the
        inverses: the full-vector products run on the index's arrays."""
        import scipy.sparse as sp

        path = str(tmp_path / "v4.npz")
        save_index(unlabelled_index, path)
        for index in (unlabelled_index, load_index(path)):
            prepared = index.prepared
            held = list(vars(index).values())
            held += [getattr(prepared, slot) for slot in type(prepared).__slots__]
            assert not [v for v in held if sp.issparse(v)]

    def test_shard_worker_bytes_fall_with_shard_count(self, tmp_path):
        """Machine-independent: the arrays one shard worker loads shrink
        about as 1/S, because no manifest member is O(nnz(L^-1)); the
        seed columns live in the shard payloads."""
        from repro.core import ShardedIndex, load_sharded_index, save_sharded_index
        from repro.graph import planted_partition_graph

        graph = planted_partition_graph([40] * 8, 0.2, 0.002, directed=True, seed=7)
        index = KDash(graph, c=0.95).build()
        n, nnz = graph.n_nodes, index.prepared.l_inv.nnz
        worst = []
        for n_shards in (2, 4, 8):
            path = str(tmp_path / f"s{n_shards}.npz")
            save_sharded_index(ShardedIndex.from_index(index, n_shards), path)
            assert max(m.size for m in _members(path).values()) <= n_shards * n < nnz
            worst.append(
                max(
                    _array_bytes(load_sharded_index(path, only=[s]))
                    for s in range(n_shards)
                )
            )
        assert worst[0] > worst[1] > worst[2]
        assert 2 * worst[2] < worst[0]
