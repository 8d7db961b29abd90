"""The shard pool + scatter-gather scheduler against single-process truth.

Same contract as the replica-pool suite, one level harder: the answer
for a query is now assembled from *several* processes (home shard plus
bound-surviving remotes), and it must still be **bit-identical** to one
in-process :class:`~repro.query.engine.QueryEngine` — per query, per
stream, and across sharded snapshot hot-swaps.
"""

import pytest

from repro.core import DynamicKDash, KDash
from repro.exceptions import InvalidParameterError, ServingError
from repro.graph import planted_partition_graph
from repro.query import QueryEngine
from repro.serving import (
    ShardPool,
    ShardedScheduler,
    Snapshot,
    SnapshotPublisher,
    SnapshotStore,
    make_queries,
    make_update_batch,
)

N_COMMUNITIES = 4
N = 15 * N_COMMUNITIES


def clustered_graph():
    return planted_partition_graph(
        [15] * N_COMMUNITIES, 0.4, 0.02, directed=True, seed=21
    )


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A module-wide store holding the epoch-0 *sharded* snapshot."""
    directory = tmp_path_factory.mktemp("sharded-snapshots")
    store = SnapshotStore(str(directory))
    dyn = DynamicKDash(clustered_graph(), c=0.95, rebuild_threshold=None)
    SnapshotPublisher(
        QueryEngine(dyn), store, shard_spec=(N_COMMUNITIES, "louvain")
    ).publish()
    return store


@pytest.fixture
def snapshot(store):
    return store.list_snapshots()[0]


def reference_engine():
    """A fresh single-process engine over the same graph state."""
    return QueryEngine(KDash(clustered_graph(), c=0.95).build(), cache_size=0)


def items(results):
    return [r.items for r in results]


class TestShardPool:
    def test_one_worker_per_shard(self, snapshot):
        with ShardPool(snapshot) as pool:
            assert pool.n_workers == pool.n_shards == N_COMMUNITIES
            assert pool.assignment.size == N

    def test_home_worker_follows_assignment(self, snapshot):
        with ShardPool(snapshot) as pool:
            for node in range(0, N, 9):
                assert pool.home_worker(node) == int(pool.assignment[node])

    def test_swap_to_another_shard_count_refused(self, tmp_path, snapshot):
        dyn = DynamicKDash(clustered_graph(), c=0.95, rebuild_threshold=None)
        other = SnapshotPublisher(
            QueryEngine(dyn), SnapshotStore(str(tmp_path)), shard_spec=(2, "range")
        ).publish()
        with ShardPool(snapshot) as pool:
            with pytest.raises(ServingError, match="needs a new pool"):
                pool.broadcast_swap(Snapshot(epoch=1, path=other.path))
            assert pool.n_shards == N_COMMUNITIES
            assert pool.snapshot == snapshot

    def test_rejects_single_index_archives(self, tmp_path, er_graph):
        from repro.core import save_index

        path = str(tmp_path / "plain.npz")
        save_index(KDash(er_graph, c=0.9).build(), path)
        with pytest.raises(ServingError, match="format-v3"):
            ShardPool(path)


class TestShardedSchedulerEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_static_stream_bit_identical(self, snapshot, batch_size):
        queries = make_queries(N, 60, "zipf", seed=5)
        reference = reference_engine()
        with ShardPool(snapshot) as pool:
            scheduler = ShardedScheduler(pool, batch_size=batch_size)
            got = scheduler.run(queries, k=5)
        assert items(got) == items(reference.top_k_many(queries, 5))

    def test_results_preserve_submission_order(self, snapshot):
        queries = [7, 3, 7, 41, 0, 3, 59, 7]
        with ShardPool(snapshot) as pool:
            scheduler = ShardedScheduler(pool, batch_size=3)
            got = scheduler.run(queries, k=4)
        assert [r.query for r in got] == queries

    def test_mixed_k_within_stream(self, snapshot):
        reference = reference_engine()
        requests = [(0, 3), (25, 7), (0, 5), (48, 3), (25, 7)]
        with ShardPool(snapshot) as pool:
            scheduler = ShardedScheduler(pool, batch_size=4)
            seqs = [scheduler.submit(q, k) for q, k in requests]
            scheduler.drain()
            got = scheduler.take_results(seqs)
        want = [reference.top_k(q, k) for q, k in requests]
        assert items(got) == items(want)

    def test_skips_happen_on_clustered_traffic(self, snapshot):
        with ShardPool(snapshot) as pool:
            scheduler = ShardedScheduler(pool, batch_size=8)
            scheduler.run(make_queries(N, 60, "zipf", seed=6), k=5)
            agg = scheduler.aggregate_stats(scheduler.collect_stats())
        assert agg["shards_skipped"] > 0
        assert 0.0 < agg["skip_rate"] <= 1.0
        assert agg["queries_served"] == 60
        assert agg["mean_fan_out"] < N_COMMUNITIES

    def test_take_before_drain_rejected(self, snapshot):
        with ShardPool(snapshot) as pool:
            scheduler = ShardedScheduler(pool, batch_size=100)
            seq = scheduler.submit(0, 5)
            with pytest.raises(ServingError, match="drain"):
                scheduler.take_results([seq])
            scheduler.drain()
            assert scheduler.take_results([seq])[0].query == 0

    def test_invalid_query_rejected_at_submit(self, snapshot):
        with ShardPool(snapshot) as pool:
            scheduler = ShardedScheduler(pool)
            with pytest.raises(Exception):
                scheduler.submit(N + 5, 5)


class TestShardedHotSwap:
    def test_swap_after_update_batch_bit_identical(self, store, snapshot):
        publisher = SnapshotPublisher(
            QueryEngine(
                DynamicKDash(clustered_graph(), c=0.95, rebuild_threshold=None)
            ),
            store,
            shard_spec=(N_COMMUNITIES, "louvain"),
        )
        queries = make_queries(N, 30, "zipf", seed=8)
        with ShardPool(snapshot) as pool:
            scheduler = ShardedScheduler(pool, batch_size=8)
            before = scheduler.run(queries, k=5)
            _, snap = publisher.apply_and_publish(
                inserts=[(0, 31, 2.0), (3, 47)], deletes=[]
            )
            scheduler.publish(snap)
            after = scheduler.run(queries, k=5)
            final_epoch = pool.snapshot.epoch
        reference = reference_engine()
        assert items(before) == items(reference.top_k_many(queries, 5))
        updated = QueryEngine(
            KDash(publisher.engine.dynamic.graph.copy(), c=0.95).build(),
            cache_size=0,
        )
        assert items(after) == items(updated.top_k_many(queries, 5))
        assert final_epoch == snapshot.epoch + 1

    def test_stale_snapshot_publish_rejected(self, snapshot):
        with ShardPool(snapshot) as pool:
            scheduler = ShardedScheduler(pool)
            with pytest.raises(InvalidParameterError, match="advance"):
                scheduler.publish(snapshot)

    @pytest.mark.slow
    def test_churn_soak_stays_bit_identical(self, tmp_path):
        """Serving soak: repeated update → publish → swap cycles with
        query chunks between them; every chunk bit-identical to a
        single-process engine mirroring the same compaction points."""
        import numpy as np

        directory = tmp_path / "soak-snapshots"
        store = SnapshotStore(str(directory))
        dyn = DynamicKDash(clustered_graph(), c=0.95, rebuild_threshold=None)
        publisher = SnapshotPublisher(
            QueryEngine(dyn), store, shard_spec=(N_COMMUNITIES, "louvain")
        )
        snapshot = publisher.publish()
        reference = QueryEngine(
            DynamicKDash.from_index(
                load_index_like(snapshot), rebuild_threshold=None
            )
        )
        rng = np.random.default_rng(17)
        scratch = dyn.graph.copy()
        got, want = [], []
        with ShardPool(snapshot) as pool:
            scheduler = ShardedScheduler(pool, batch_size=8)
            for round_no in range(4):
                chunk = make_queries(N, 20, "zipf", seed=100 + round_no)
                got.extend(scheduler.run(chunk, k=5))
                want.extend(reference.top_k_many(chunk, 5))
                inserts, deletes = make_update_batch(scratch, 6, rng)
                _, snap = publisher.apply_and_publish(inserts, deletes)
                scheduler.publish(snap)
                reference.apply_updates(inserts, deletes)
                reference.rebuild()  # mirror the publisher's compaction
                reference.clear_cache()
        assert items(got) == items(want)


def load_index_like(snapshot):
    """The soak reference cannot load a *sharded* snapshot directly; it
    rebuilds the equivalent single index from the same graph state."""
    return KDash(clustered_graph(), c=0.95).build()


class TestShardPoolErrorPaths:
    def test_corrupt_manifest_is_a_serving_error(self, tmp_path):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not an npz archive")
        with pytest.raises(ServingError, match="cannot read sharded manifest"):
            ShardPool(str(bad))

    def test_missing_manifest_is_a_serving_error(self, tmp_path):
        with pytest.raises(ServingError, match="cannot read sharded manifest"):
            ShardPool(str(tmp_path / "nope.npz"))
