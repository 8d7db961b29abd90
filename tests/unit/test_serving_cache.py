"""The gather-side answer cache, on both serving tiers.

The scheduler keeps one LRU of finished answers keyed by ``(query, k)``
plus a table of the keys in flight, so a repeated request is answered
without a pool message and duplicates submitted together are dispatched
once.  An answer never crosses a snapshot epoch: ``publish`` clears the
cache.  Every answer stays bit-identical to a fresh single-process
engine over the same graph state.
"""

import contextlib

import pytest

from repro.core import DynamicKDash, KDash
from repro.graph import erdos_renyi_graph, planted_partition_graph
from repro.obs import MetricsRegistry, Tracer
from repro.query import QueryEngine
from repro.serving import (
    MicroBatchScheduler,
    ReplicaPool,
    ShardPool,
    ShardedScheduler,
    SnapshotPublisher,
    SnapshotStore,
)

#: tier -> (graph factory, restart probability, publisher shard spec).
TIERS = {
    "replica": (lambda: erdos_renyi_graph(60, 0.08, seed=42), 0.9, None),
    "sharded": (
        lambda: planted_partition_graph(
            [15] * 4, 0.4, 0.02, directed=True, seed=21
        ),
        0.95,
        (4, "louvain"),
    ),
}


class CountingPool:
    """A thin pool wrapper counting the micro-batches sent to workers."""

    def __init__(self, pool) -> None:
        self._pool = pool
        self.messages = 0

    def __getattr__(self, name):
        return getattr(self._pool, name)

    def _count(self, send, *args, **kwargs):
        self.messages += 1
        return send(*args, **kwargs)

    def submit(self, *args, **kwargs):
        return self._count(self._pool.submit, *args, **kwargs)

    def submit_home(self, *args, **kwargs):
        return self._count(self._pool.submit_home, *args, **kwargs)

    def submit_remote(self, *args, **kwargs):
        return self._count(self._pool.submit_remote, *args, **kwargs)


def make_publisher(tier, directory):
    graph, c, shard_spec = TIERS[tier]
    dyn = DynamicKDash(graph(), c=c, rebuild_threshold=None)
    return SnapshotPublisher(
        QueryEngine(dyn), SnapshotStore(str(directory)), shard_spec=shard_spec
    )


def fresh_engine(tier, publisher=None):
    """A single-process engine over the publisher's current graph (the
    tier's epoch-0 graph without one)."""
    graph, c, _ = TIERS[tier]
    graph = graph() if publisher is None else publisher.engine.dynamic.graph.copy()
    return QueryEngine(KDash(graph, c=c).build(), cache_size=0)


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """The epoch-0 snapshot of each tier's graph."""
    return {
        tier: make_publisher(tier, tmp_path_factory.mktemp(f"cache-{tier}")).publish()
        for tier in TIERS
    }


@contextlib.contextmanager
def serving(tier, snapshot, **scheduler_kwargs):
    """A scheduler over a message-counting wrapper of a fresh pool."""
    if tier == "replica":
        pool = ReplicaPool(snapshot, 2)
        make = MicroBatchScheduler
    else:
        pool = ShardPool(snapshot)
        make = ShardedScheduler
    with pool:
        counting = CountingPool(pool)
        yield counting, make(counting, batch_size=4, **scheduler_kwargs)


@pytest.mark.parametrize("tier", sorted(TIERS))
class TestGatherSideCache:
    def test_repeat_after_take_sends_no_message(self, tier, snapshots):
        with serving(tier, snapshots[tier]) as (pool, scheduler):
            first = scheduler.run([5], k=4)[0]
            sent = pool.messages
            again = scheduler.run([5], k=4)[0]
            assert pool.messages == sent
        assert again is first
        assert scheduler.cache_hits == 1

    def test_duplicates_submitted_together_dispatch_once(self, tier, snapshots):
        requests = [(7, 5), (3, 5), (7, 5), (7, 3), (3, 5), (7, 5), (12, 5)]
        reference = fresh_engine(tier)
        with serving(tier, snapshots[tier]) as (pool, scheduler):
            seqs = [scheduler.submit(q, k) for q, k in requests]
            scheduler.drain()
            got = scheduler.take_results(seqs)
        assert sum(scheduler.routed_counts) == len(set(requests))
        assert scheduler.dedup_hits == len(requests) - len(set(requests))
        assert [r.items for r in got] == [
            reference.top_k(q, k).items for q, k in requests
        ]

    def test_publish_drops_every_cached_answer(self, tier, snapshots, tmp_path):
        publisher = make_publisher(tier, tmp_path)
        snapshot = publisher.publish()
        with serving(tier, snapshot) as (pool, scheduler):
            before = scheduler.run([0], k=5)[0]
            _, snap = publisher.apply_and_publish(
                inserts=[(0, 59 if tier == "replica" else 31, 2.0)], deletes=[]
            )
            scheduler.publish(snap)
            sent = pool.messages
            after = scheduler.run([0], k=5)[0]
            assert pool.messages > sent
        assert after.items == fresh_engine(tier, publisher).top_k(0, 5).items
        assert after.items != before.items
        assert scheduler.cache_hits == 0

    def test_aggregate_stats_count_the_scheduler_answers(self, tier, snapshots):
        with serving(tier, snapshots[tier]) as (pool, scheduler):
            scheduler.run([5, 5, 9], k=4)  # one attached
            scheduler.run([5, 9, 12, 12], k=4)  # two hits, one attached
            agg = scheduler.aggregate_stats(scheduler.collect_stats())
        assert agg["queries_served"] == 7
        assert agg["cache_hits"] == 2
        assert agg["dedup_hits"] == 2
        assert agg["hit_rate"] == 4 / 7
        if tier == "sharded":
            # The plan's rates divide by the three planned queries only.
            assert scheduler.stats.queries == 3
            assert agg["skip_rate"] == scheduler.stats.skip_rate
            assert agg["mean_fan_out"] == scheduler.stats.mean_fan_out
        else:
            assert agg["scans_executed"] == 3

    def test_answered_requests_close_their_spans(self, tier, snapshots):
        registry, tracer = MetricsRegistry(), Tracer(sample_every=1)
        with serving(
            tier, snapshots[tier], registry=registry, tracer=tracer
        ) as (pool, scheduler):
            scheduler.run([5, 5], k=4)  # dispatched, then attached
            scheduler.run([5], k=4)  # a hit
        assert scheduler.latency.count == 3
        roots = [r for r in tracer.export() if r["name"] == "scheduler.query"]
        assert sorted(r["tags"]["seq"] for r in roots) == [0, 1, 2]
        by_seq = {r["tags"]["seq"]: r for r in roots}
        assert "cache" not in by_seq[0]["tags"]
        assert by_seq[1]["tags"]["cache"] == "attached"
        assert by_seq[2]["tags"]["cache"] == "hit"
        # The answered-here requests have no span beyond their root.
        for seq in (1, 2):
            trace = by_seq[seq]["trace_id"]
            assert [r["name"] for r in tracer.export() if r["trace_id"] == trace] == [
                "scheduler.query"
            ]


def test_zero_capacity_sends_every_repeat(snapshots):
    """``ReplicaPool(cache_size=0)`` keeps no answers; the shard pool's
    capacity is fixed at 1,024."""
    with ReplicaPool(snapshots["replica"], 2, cache_size=0) as pool:
        counting = CountingPool(pool)
        scheduler = MicroBatchScheduler(counting, batch_size=4)
        first = scheduler.run([5], k=4)[0]
        sent = counting.messages
        again = scheduler.run([5], k=4)[0]
        assert counting.messages > sent
        agg = scheduler.aggregate_stats(scheduler.collect_stats())
    assert again.items == first.items
    assert agg["queries_served"] == 2
    assert agg["cache_hits"] == agg["dedup_hits"] == 0
    assert agg["hit_rate"] == 0.0
