"""Serving-tier failure paths: crashes surface loudly, never as hangs.

The happy-path suites prove the pool is *exact*; this one proves it is
*debuggable*.  Every defended error path gets exercised:

- a worker process that dies mid-batch ships its **full traceback** as
  a string through its reply pipe, and the scheduler re-raises it as
  a :class:`~repro.exceptions.ServingError` naming the worker — the
  crash site is in the message, not swallowed into an opaque timeout;
- protocol confusion (unexpected reply kinds while awaiting results,
  swap acks, or stats; a reply of the wrong round; result-count
  mismatches) raises immediately;
- results cannot be taken before :meth:`drain`, epochs cannot move
  backwards, and a scheduler that loses results fails the load run
  with a raise that survives ``python -O`` (no bare ``assert``);
- both schedulers refuse an unknown node id or a non-positive ``k`` at
  submit, before any state changes, so no worker ever sees it;
- a pool whose worker fails at boot stops the workers that did start.

The crash and scheduler error paths run on both tiers: each
``TestSharded*`` class reruns its replica base class on a shard pool.
"""

import multiprocessing

import pytest

from repro.core import DynamicKDash, KDash
from repro.exceptions import InvalidParameterError, NodeNotFoundError, ServingError
from repro.graph import erdos_renyi_graph
from repro.query import QueryEngine
from repro.serving import (
    MicroBatchScheduler,
    ReplicaPool,
    ShardPool,
    ShardedScheduler,
    Snapshot,
    SnapshotPublisher,
    SnapshotStore,
    run_load,
)

N = 60


def graph():
    return erdos_renyi_graph(N, 0.08, seed=42)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    directory = tmp_path_factory.mktemp("error-snapshots")
    store = SnapshotStore(str(directory))
    dyn = DynamicKDash(graph(), c=0.9, rebuild_threshold=None)
    SnapshotPublisher(QueryEngine(dyn), store).publish()
    return store


@pytest.fixture
def snapshot(store):
    return store.list_snapshots()[0]


@pytest.fixture(scope="module")
def sharded_snapshot(tmp_path_factory):
    store = SnapshotStore(str(tmp_path_factory.mktemp("error-sharded")))
    dyn = DynamicKDash(graph(), c=0.9, rebuild_threshold=None)
    return SnapshotPublisher(QueryEngine(dyn), store, shard_spec=(2, "range")).publish()


class ReplicaTier:
    """The tier the error-path tests of a subclass run on; every
    ``TestSharded*`` subclass reruns the same tests on the shard tier."""

    FIRST_ROUND, FIRST_REPLY = "batch", "results"

    @pytest.fixture
    def tier(self, snapshot):
        with ReplicaPool(snapshot, 1) as pool:
            yield pool, MicroBatchScheduler(pool, batch_size=8)


class ShardedTier:
    FIRST_ROUND, FIRST_REPLY = "home", "partial"

    @pytest.fixture
    def tier(self, sharded_snapshot):
        with ShardPool(sharded_snapshot) as pool:
            yield pool, ShardedScheduler(pool, batch_size=8)


class TestWorkerCrashReporting(ReplicaTier):
    def test_crash_ships_the_full_traceback(self, tier):
        """An out-of-range query kills the worker's batch loop; the
        reply must carry the original traceback, worker id included."""
        pool, _ = tier
        pool.send(0, (self.FIRST_ROUND, 0, [(10 * N, 5)]))
        with pytest.raises(ServingError) as excinfo:
            pool.recv()
        message = str(excinfo.value)
        assert "worker 0 failed" in message
        assert "Traceback (most recent call last)" in message
        # The crash site itself is in the report, not just its existence.
        assert "top_k_many" in message or "Error" in message

    def test_crash_surfaces_through_scheduler_drain(self, tier, tmp_path):
        pool, scheduler = tier
        # The scheduler refuses bad requests at submit, so the crash
        # comes from the worker side: a swap to a missing archive.
        missing = str(tmp_path / "missing.npz")
        pool.send(0, ("swap", pool.snapshot.epoch + 1, missing))
        scheduler.submit(0, k=5)
        scheduler.submit(1, k=5)
        with pytest.raises(ServingError, match="Traceback"):
            scheduler.drain()

    def test_unknown_message_kind_is_reported(self, tier):
        pool, _ = tier
        pool.send(0, ("defragment",))
        with pytest.raises(ServingError, match="unknown message kind"):
            pool.recv()


class TestShardedWorkerCrashReporting(ShardedTier, TestWorkerCrashReporting):
    pass


class TestSchedulerErrorPaths(ReplicaTier):
    def test_take_results_before_drain_raises(self, tier):
        _, scheduler = tier
        seq = scheduler.submit(3, k=5)
        with pytest.raises(ServingError, match="drain"):
            scheduler.take_results([seq])
        scheduler.drain()  # leave the pool clean for close()
        assert scheduler.take_results([seq])[0].query == 3

    def test_absorb_rejects_unexpected_reply_kind(self, tier):
        _, scheduler = tier
        with pytest.raises(ServingError, match="unexpected reply"):
            scheduler._absorb(("stats", 0, {}))

    def test_absorb_rejects_result_count_mismatch(self, tier):
        _, scheduler = tier
        scheduler._pending[7] = (self.FIRST_ROUND, [(0, (0, 5)), (1, (1, 5))])
        with pytest.raises(ServingError, match="2 requests but 1 results"):
            scheduler._absorb((self.FIRST_REPLY, 0, 7, [None]))

    def test_publish_rejects_unexpected_reply(self, tier):
        pool, scheduler = tier
        # The same archive republished under the next epoch.
        advanced = Snapshot(epoch=pool.snapshot.epoch + 1, path=pool.snapshot.path)
        pool.send(0, ("stats",))  # stray reply arrives before the acks
        with pytest.raises(ServingError, match="awaiting swap acks"):
            scheduler.publish(advanced)

    def test_publish_epoch_must_advance(self, tier):
        pool, scheduler = tier
        with pytest.raises(InvalidParameterError, match="advance"):
            scheduler.publish(pool.snapshot)

    def test_collect_stats_rejects_unexpected_reply(self, tier):
        pool, _ = tier
        pool.send(0, (self.FIRST_ROUND, 0, [(3, 5)]))  # a batch reply, not stats
        with pytest.raises(ServingError, match="collecting stats"):
            pool.collect_stats()


class TestShardedSchedulerErrorPaths(ShardedTier, TestSchedulerErrorPaths):
    def test_home_batch_answered_with_candidates(self, tier):
        _, scheduler = tier
        scheduler.submit(3, k=5)
        scheduler.flush()  # home batch 0 is now outstanding
        answered = "home batch 0 answered with 'candidates'"
        with pytest.raises(ServingError, match=answered):
            scheduler._absorb(("candidates", 0, 0, [((), 0, 0)]))


class TestPoolBootFailure:
    def test_failed_boot_stops_started_workers(self, tmp_path):
        """One shard worker cannot load its payload: the constructor
        raises, and the workers that did start are stopped and joined."""
        dyn = DynamicKDash(graph(), c=0.9, rebuild_threshold=None)
        manifest = SnapshotPublisher(
            QueryEngine(dyn), SnapshotStore(str(tmp_path)), shard_spec=(3, "range")
        ).publish()
        [payload] = tmp_path.glob("*.shard001.npz")
        payload.unlink()
        with pytest.raises(ServingError, match="worker 1 failed"):
            ShardPool(manifest)
        assert not [
            p.name
            for p in multiprocessing.active_children()
            if p.name.startswith("kdash-shard-")
        ]


class TestSubmitValidation:
    """A bad request raises at submit and changes nothing: no sequence
    number or routing is counted, and the same worker processes answer
    the next request exactly."""

    BAD = [
        (N, 5, None, NodeNotFoundError),
        (-1, 5, None, NodeNotFoundError),
        (3, 0, None, InvalidParameterError),
        (3, 5, "bounded", InvalidParameterError),
    ]

    @pytest.fixture(params=["replica", "sharded"])
    def tier(self, request, snapshot, sharded_snapshot):
        if request.param == "replica":
            pool = ReplicaPool(snapshot, 2)
            scheduler = MicroBatchScheduler(pool, batch_size=1)
        else:
            pool = ShardPool(sharded_snapshot)
            scheduler = ShardedScheduler(pool, batch_size=1)
        with pool:
            yield pool, scheduler

    def test_bad_request_changes_nothing(self, tier):
        pool, scheduler = tier
        pids = [p.pid for p in pool._workers]
        for query, k, precision, error in self.BAD:
            with pytest.raises(error):
                scheduler.submit(query, k, precision=precision)
        assert scheduler.routed_counts == [0] * pool.n_workers
        assert scheduler.outstanding == 0
        seq = scheduler.submit(3, 5)
        assert seq == 0
        scheduler.drain()
        [got] = scheduler.take_results([seq])
        want = QueryEngine(KDash(graph(), c=0.9).build()).top_k(3, 5)
        assert got.items == want.items
        agg = scheduler.aggregate_stats(scheduler.collect_stats())
        assert agg["queries_served"] == 1
        assert [p.pid for p in pool._workers] == pids
        assert all(p.is_alive() for p in pool._workers)


class _LossyScheduler:
    """A scheduler double whose results vanish (the bug run_load defends)."""

    batch_size = 4

    def __init__(self):
        class _Pool:
            n_workers = 1

        self.pool = _Pool()

    def submit(self, query, k):
        return 0

    def drain(self):
        pass

    def take_results(self, seqs):
        return []


class TestRunLoadLostResults:
    def test_lost_results_raise_not_assert(self):
        # Must be a real raise (asserts vanish under `python -O`).
        with pytest.raises(ServingError, match="results were lost"):
            run_load(_LossyScheduler(), [1, 2, 3], k=5)
