"""Unit tests for the replica-pool routing policies."""

import pytest

from repro.exceptions import InvalidParameterError
from repro.serving import (
    ConsistentHashRouter,
    RoundRobinRouter,
    Router,
    make_router,
)


class TestRoundRobin:
    def test_cycles_through_workers(self):
        router = RoundRobinRouter()
        assert [router.route(99, 3) for _ in range(7)] == [0, 1, 2, 0, 1, 2, 0]

    def test_ignores_query_identity(self):
        router = RoundRobinRouter()
        assert [router.route(q, 2) for q in (5, 5, 5, 5)] == [0, 1, 0, 1]


class TestConsistentHash:
    def test_same_root_same_worker(self):
        router = ConsistentHashRouter()
        for q in range(50):
            workers = {router.route(q, 4) for _ in range(5)}
            assert len(workers) == 1

    def test_deterministic_across_instances(self):
        """Routing must agree between processes/runs — no salted hashes."""
        a, b = ConsistentHashRouter(), ConsistentHashRouter()
        assert [a.route(q, 4) for q in range(200)] == [
            b.route(q, 4) for q in range(200)
        ]

    def test_every_worker_gets_some_load(self):
        router = ConsistentHashRouter()
        owners = {router.route(q, 4) for q in range(500)}
        assert owners == {0, 1, 2, 3}

    def test_single_worker_short_circuit(self):
        assert ConsistentHashRouter().route(123, 1) == 0

    def test_ring_mostly_stable_under_growth(self):
        """Adding a worker moves only a fraction of the keys (ring property)."""
        router = ConsistentHashRouter()
        before = [router.route(q, 3) for q in range(1000)]
        after = [router.route(q, 4) for q in range(1000)]
        moved = sum(1 for x, y in zip(before, after) if x != y)
        # A modulo hash would move ~3/4 of the keys; the ring moves ~1/4.
        assert moved < 500

    def test_bad_replica_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            ConsistentHashRouter(replicas=0)


class TestFactory:
    def test_names_resolve(self):
        assert isinstance(make_router("rr"), RoundRobinRouter)
        assert isinstance(make_router("hash"), ConsistentHashRouter)

    def test_instances_pass_through(self):
        router = RoundRobinRouter()
        assert make_router(router) is router

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown router"):
            make_router("lru")

    def test_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Router().route(0, 1)
