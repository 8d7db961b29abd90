"""The TCP front door against the single-process ground truth.

The serving tier's exactness contract does not stop at the process
boundary: a query answered over the wire — framed, admitted, batched,
scattered, reassembled, JSON-encoded — must be **bit-identical** to the
same query against one in-process
:class:`~repro.query.engine.QueryEngine`.  On top of exactness, the
front door adds the SLO machinery these tests drive into every corner:

- every offered request gets exactly one terminal response (``ok`` /
  ``rejected`` / ``draining`` / ``deadline_exceeded`` / ``error``) and
  the counters reconcile against ``offered`` — even under overload,
  even when a worker crashes mid-wave;
- admission overflow answers ``rejected`` immediately (never a hang);
- deadlines fire both while queued (dropped before dispatch) and after
  completion (answer discarded);
- :meth:`~repro.serving.frontdoor.FrontDoor.drain` and
  :meth:`~repro.serving.frontdoor.FrontDoor.publish` preserve the
  scheduler's barrier semantics across the network layer.
"""

import contextlib
import json

import pytest

from repro.core import DynamicKDash, KDash, load_index
from repro.exceptions import InvalidParameterError, ServingError
from repro.graph import erdos_renyi_graph, planted_partition_graph
from repro.obs import MetricsRegistry
from repro.query import QueryEngine
from repro.serving import (
    FrontDoor,
    FrontDoorClient,
    MicroBatchScheduler,
    ReplicaPool,
    ShardPool,
    ShardedScheduler,
    SnapshotPublisher,
    SnapshotStore,
    make_queries,
)
from repro.serving.frontdoor import FRAME_HEADER, MAX_FRAME_BYTES, STATUSES, encode_frame

N = 60


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A module-wide store holding the epoch-0 snapshot of the test graph."""
    directory = tmp_path_factory.mktemp("frontdoor-snapshots")
    store = SnapshotStore(str(directory))
    dyn = DynamicKDash(erdos_renyi_graph(N, 0.08, seed=42), c=0.9, rebuild_threshold=None)
    SnapshotPublisher(QueryEngine(dyn), store).publish()
    return store


@pytest.fixture
def snapshot(store):
    return store.list_snapshots()[0]


def reference_engine(snapshot):
    """A fresh single-process engine over the same epoch-0 archive."""
    return QueryEngine(
        DynamicKDash.from_index(load_index(snapshot.path), rebuild_threshold=None)
    )


def wire_items(response):
    """A wire response's items, shaped like ``TopKResult.items``."""
    return [(node, proximity) for node, proximity in response["items"]]


def engine_items(result):
    return [(int(node), float(p)) for node, p in result.items]


@contextlib.contextmanager
def running_door(snapshot, workers=2, batch_size=8, **door_kwargs):
    """A started FrontDoor over a fresh replica pool; torn down on exit."""
    door_kwargs.setdefault("n_nodes", N)
    with ReplicaPool(snapshot, workers) as pool:
        door = FrontDoor(
            MicroBatchScheduler(pool, batch_size=batch_size), port=0, **door_kwargs
        )
        try:
            door.start()
            yield door
        finally:
            door.stop()


class TestWireExactness:
    def test_stream_bit_identical_over_wire(self, snapshot):
        queries = make_queries(N, 40, "zipf", seed=3)
        reference = reference_engine(snapshot)
        with running_door(snapshot) as door:
            with FrontDoorClient(*door.address) as client:
                responses = [client.query(q, k=5) for q in queries]
        want = reference.top_k_many(queries, 5)
        assert all(r["status"] == "ok" for r in responses)
        assert [wire_items(r) for r in responses] == [engine_items(w) for w in want]

    def test_pipelined_responses_match_by_id(self, snapshot):
        queries = make_queries(N, 20, "uniform", seed=9)
        reference = reference_engine(snapshot)
        with running_door(snapshot) as door:
            with FrontDoorClient(*door.address) as client:
                for i, q in enumerate(queries):
                    client.send({"op": "query", "id": i, "query": int(q), "k": 6})
                responses = {r["id"]: r for r in (client.recv() for _ in queries)}
        assert sorted(responses) == list(range(len(queries)))
        for i, q in enumerate(queries):
            assert responses[i]["status"] == "ok"
            assert wire_items(responses[i]) == engine_items(reference.top_k(q, 6))

    def test_mixed_k_and_echoed_fields(self, snapshot):
        requests = [(0, 3), (5, 7), (0, 5), (12, 3)]
        reference = reference_engine(snapshot)
        with running_door(snapshot) as door:
            with FrontDoorClient(*door.address) as client:
                for q, k in requests:
                    response = client.query(q, k=k)
                    assert (response["query"], response["k"]) == (q, k)
                    assert response["epoch"] == 0
                    assert wire_items(response) == engine_items(reference.top_k(q, k))
                # Naming the exact tier changes nothing: same items, and
                # no precision or error-bound echo.
                response = client.request(
                    {"op": "query", "query": 5, "k": 4, "precision": "exact"}
                )
                assert response["status"] == "ok"
                assert wire_items(response) == engine_items(reference.top_k(5, 4))
                assert "precision" not in response
                assert "error_bound" not in response


class TestProtocolAndOps:
    def test_ping(self, snapshot):
        with running_door(snapshot) as door:
            with FrontDoorClient(*door.address) as client:
                response = client.ping()
        assert response["status"] == "ok" and response["pong"] is True

    def test_info(self, snapshot):
        with running_door(snapshot, max_inflight=7) as door:
            with FrontDoorClient(*door.address) as client:
                info = client.info()
        assert info["status"] == "ok"
        assert info["tier"] == "replica"
        assert info["n_nodes"] == N
        assert info["epoch"] == 0
        assert info["max_inflight"] == 7
        assert info["draining"] is False

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"op": "flush"}, "unknown op"),
            ({"op": "query", "query": "zero"}, "integer node id"),
            ({"op": "query", "query": True}, "integer node id"),
            ({"op": "query", "query": N + 5}, "out of range"),
            ({"op": "query", "query": -1}, "out of range"),
            ({"op": "query", "query": 0, "k": 0}, "positive integer"),
            ({"op": "query", "query": 0, "k": "five"}, "positive integer"),
            ({"op": "query", "query": 0, "timeout_ms": -3}, "positive number"),
            ({"op": "query", "query": 0, "precision": "bounded"}, "only 'exact'"),
            (
                {"op": "query", "query": 0, "precision": "best_effort(0.01)"},
                "only 'exact'",
            ),
            ({"op": "query", "query": 0, "precision": 3}, "only 'exact'"),
            ({"op": "query", "query": 0, "eps": 0.1}, "eps"),
            (
                {"op": "query", "query": 0, "precision": "exact", "eps": 0.1},
                "eps",
            ),
        ],
    )
    def test_invalid_requests_answer_error(self, snapshot, payload, fragment):
        with running_door(snapshot) as door:
            with FrontDoorClient(*door.address) as client:
                response = client.request(payload)
                assert response["status"] == "error"
                assert fragment in response["message"]
                # The connection survives an application-level error.
                assert client.query(0, k=3)["status"] == "ok"
            assert door.reconciled()

    def test_non_object_payload_is_protocol_error(self, snapshot):
        with running_door(snapshot) as door:
            with FrontDoorClient(*door.address) as client:
                data = json.dumps([1, 2, 3]).encode()
                client._sock.sendall(FRAME_HEADER.pack(len(data)) + data)
                response = client.recv()
                assert response["status"] == "error"
                assert "protocol error" in response["message"]
                # Protocol violations close the connection.
                with pytest.raises(ServingError, match="closed"):
                    client.recv()

    def test_deeply_nested_payload_is_protocol_error(self, snapshot):
        # json.loads raises RecursionError, not ValueError, on this frame.
        with running_door(snapshot) as door:
            with FrontDoorClient(*door.address) as client:
                data = b"[" * 100_000 + b"]" * 100_000
                client._sock.sendall(FRAME_HEADER.pack(len(data)) + data)
                response = client.recv()
                assert response["status"] == "error"
                assert "protocol error" in response["message"]
                with pytest.raises(ServingError, match="closed"):
                    client.recv()
            assert door.reconciled()

    def test_oversized_frame_length_is_protocol_error(self, snapshot):
        with running_door(snapshot) as door:
            with FrontDoorClient(*door.address) as client:
                client._sock.sendall(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1))
                response = client.recv()
                assert response["status"] == "error"
                assert "invalid frame length" in response["message"]

    def test_encode_frame_roundtrip(self):
        frame = encode_frame({"op": "ping", "id": 3})
        (length,) = FRAME_HEADER.unpack(frame[: FRAME_HEADER.size])
        assert length == len(frame) - FRAME_HEADER.size
        assert json.loads(frame[FRAME_HEADER.size :]) == {"op": "ping", "id": 3}

    def test_max_inflight_must_be_positive(self):
        with pytest.raises(ServingError, match="max_inflight"):
            FrontDoor(None, max_inflight=0)

    def test_start_twice_rejected(self, snapshot):
        with running_door(snapshot) as door:
            with pytest.raises(ServingError, match="already started"):
                door.start()


class TestOverload:
    def test_every_request_terminal_and_reconciled(self, snapshot):
        """30 pipelined requests into max_inflight=1 over a slow backend:
        nothing hangs, everything is answered, the counters reconcile,
        and the admitted subset is still bit-identical."""
        queries = make_queries(N, 30, "zipf", seed=11)
        reference = reference_engine(snapshot)
        with running_door(snapshot, max_inflight=1, wave_delay=0.05) as door:
            with FrontDoorClient(*door.address) as client:
                for i, q in enumerate(queries):
                    client.send({"op": "query", "id": i, "query": int(q), "k": 5})
                responses = {r["id"]: r for r in (client.recv() for _ in queries)}
            counts = door.counters()
            assert door.reconciled()
        assert sorted(responses) == list(range(len(queries)))
        statuses = {r["status"] for r in responses.values()}
        assert statuses <= {"ok", "rejected"}
        assert "rejected" in statuses and "ok" in statuses
        assert counts["offered"] == len(queries)
        assert counts["ok"] + counts["rejected"] == len(queries)
        for i, response in responses.items():
            if response["status"] == "ok":
                assert wire_items(response) == engine_items(
                    reference.top_k(queries[i], 5)
                )

    def test_sequential_clients_are_never_rejected(self, snapshot):
        # Closed-loop traffic keeps inflight <= 1, so even the tightest
        # admission bound admits everything.
        with running_door(snapshot, max_inflight=1) as door:
            with FrontDoorClient(*door.address) as client:
                assert all(
                    client.query(q, k=4)["status"] == "ok" for q in (3, 1, 4, 1, 5)
                )
            assert door.counters()["rejected"] == 0


class TestDeadlines:
    def test_expired_while_queued_dropped_before_dispatch(self, snapshot):
        # Request A occupies the dispatch thread for wave_delay seconds;
        # B's 20ms budget is long gone by the time its wave forms.
        with running_door(snapshot, wave_delay=0.12) as door:
            with FrontDoorClient(*door.address) as client:
                client.send({"op": "query", "id": "a", "query": 0, "k": 5})
                client.send(
                    {"op": "query", "id": "b", "query": 1, "k": 5, "timeout_ms": 20}
                )
                responses = {r["id"]: r for r in (client.recv(), client.recv())}
            assert responses["a"]["status"] == "ok"
            assert responses["b"]["status"] == "deadline_exceeded"
            assert door.counters()["deadline_exceeded"] == 1
            assert door.reconciled()

    def test_expired_during_execution_discards_the_answer(self, snapshot):
        with running_door(snapshot, wave_delay=0.08) as door:
            with FrontDoorClient(*door.address) as client:
                response = client.query(0, k=5, timeout_ms=1)
            assert response["status"] == "deadline_exceeded"
            assert "items" not in response

    def test_generous_deadline_is_ok(self, snapshot):
        with running_door(snapshot) as door:
            with FrontDoorClient(*door.address) as client:
                assert client.query(0, k=5, timeout_ms=60_000)["status"] == "ok"


class TestDrainAndSwap:
    def test_drain_answers_draining(self, snapshot):
        with running_door(snapshot) as door:
            with FrontDoorClient(*door.address) as client:
                assert client.query(0, k=3)["status"] == "ok"
                assert door.drain() is True
                response = client.query(1, k=3)
                assert response["status"] == "draining"
                assert client.info()["draining"] is True
            assert door.reconciled()

    def test_stop_is_idempotent(self, snapshot):
        with running_door(snapshot) as door:
            door.stop()
            door.stop()  # second stop is a no-op, not a hang

    def test_hot_swap_over_wire(self, tmp_path, snapshot):
        """Same barrier semantics as the in-process scheduler: answers
        before the swap come from epoch 0, after it from epoch 1, both
        bit-identical to engines over the corresponding archives."""
        store = SnapshotStore(str(tmp_path))
        publisher = SnapshotPublisher(reference_engine(snapshot), store)
        snap0 = publisher.publish()
        with running_door(snap0) as door:
            with FrontDoorClient(*door.address) as client:
                before = client.query(0, k=5)
                assert before["epoch"] == 0
                _, snap1 = publisher.apply_and_publish(
                    inserts=[(0, 59, 2.0)], deletes=[]
                )
                door.publish(snap1)
                after = client.query(0, k=5)
        assert after["epoch"] == 1
        reference = QueryEngine(
            DynamicKDash.from_index(load_index(snap1.path), rebuild_threshold=None)
        )
        assert wire_items(after) == engine_items(reference.top_k(0, 5))
        assert wire_items(before) != wire_items(after)

    def test_publish_must_advance_the_epoch(self, snapshot):
        with running_door(snapshot) as door:
            with pytest.raises(InvalidParameterError, match="advance"):
                door.publish(snapshot)


class TestWorkerCrash:
    def test_crash_mid_wave_still_answers_everything(self, snapshot, tmp_path):
        """A worker that dies (here: a swap to a missing archive, sent
        behind the door's back) fails the next wave; the in-flight
        request still gets a terminal ``error`` response carrying the
        crash, and later requests are refused with the same cause
        instead of hanging."""
        with ReplicaPool(snapshot, 1) as pool:
            door = FrontDoor(
                MicroBatchScheduler(pool, batch_size=4), port=0, n_nodes=None
            )
            try:
                door.start()
                missing = str(tmp_path / "missing.npz")
                pool.send(0, ("swap", snapshot.epoch + 1, missing))
                with FrontDoorClient(*door.address) as client:
                    response = client.query(0, k=5)
                    assert response["status"] == "error"
                    assert "service failed" in response["message"]
                    follow_up = client.query(0, k=5)
                    assert follow_up["status"] == "error"
                    assert "service failed" in follow_up["message"]
                assert door.reconciled()
            finally:
                door.stop()


class TestShardedFrontDoor:
    def test_sharded_door_bit_identical(self, tmp_path):
        graph = planted_partition_graph([15] * 4, 0.4, 0.02, directed=True, seed=21)
        store = SnapshotStore(str(tmp_path))
        dyn = DynamicKDash(graph, c=0.95, rebuild_threshold=None)
        snapshot = SnapshotPublisher(
            QueryEngine(dyn), store, shard_spec=(4, "louvain")
        ).publish()
        reference = QueryEngine(KDash(graph, c=0.95).build(), cache_size=0)
        queries = make_queries(graph.n_nodes, 30, "zipf", seed=5)
        with ShardPool(snapshot) as pool:
            door = FrontDoor(
                ShardedScheduler(pool, batch_size=8), port=0, n_nodes=pool.n_nodes
            )
            try:
                door.start()
                with FrontDoorClient(*door.address) as client:
                    assert client.info()["tier"] == "sharded"
                    responses = [client.query(q, k=5) for q in queries]
            finally:
                door.stop()
        assert all(r["status"] == "ok" for r in responses)
        assert [wire_items(r) for r in responses] == [
            engine_items(w) for w in reference.top_k_many(queries, 5)
        ]


class TestFrontDoorMetrics:
    def test_registry_mirrors_counters_and_latency(self, snapshot):
        registry = MetricsRegistry()
        with running_door(snapshot, registry=registry) as door:
            with FrontDoorClient(*door.address) as client:
                for q in (0, 5, 12):
                    assert client.query(q, k=5)["status"] == "ok"
                assert client.query(N + 1, k=5)["status"] == "error"
            counts = door.counters()
            scraped = registry.snapshot()
        counters = scraped["counters"]
        assert counters["repro_frontdoor_offered_total"] == counts["offered"] == 4
        assert counters["repro_frontdoor_requests_total{outcome=ok}"] == 3
        assert counters["repro_frontdoor_requests_total{outcome=error}"] == 1
        assert scraped["gauges"]["repro_frontdoor_inflight"] == 0
        latency = scraped["histograms"]["repro_request_seconds{tier=frontdoor}"]
        assert latency["count"] == 3  # only `ok` answers are observed

    def test_null_registry_keeps_a_local_histogram(self, snapshot):
        with running_door(snapshot) as door:
            with FrontDoorClient(*door.address) as client:
                client.query(0, k=5)
            assert door.latency.percentiles()["count"] == 1
            assert set(door.counters()) == {"offered", *STATUSES}


class TestOpenLoopLoadgen:
    def test_poisson_arrivals_seeded_and_calibrated(self):
        import numpy as np

        from repro.serving import poisson_arrivals

        a = poisson_arrivals(4000, rate=100.0, seed=7)
        b = poisson_arrivals(4000, rate=100.0, seed=7)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) > 0)  # cumulative offsets are monotone
        mean_gap = float(a[-1] / a.size)
        assert 0.008 < mean_gap < 0.012  # ~1/rate

    def test_poisson_arrivals_validation(self):
        from repro.serving import poisson_arrivals

        with pytest.raises(InvalidParameterError, match="rate"):
            poisson_arrivals(10, rate=0.0)
        with pytest.raises(InvalidParameterError, match="count"):
            poisson_arrivals(0, rate=5.0)

    def test_uncontended_run_is_all_ok_and_reconciled(self, snapshot):
        from repro.serving import run_open_loop

        queries = make_queries(N, 60, "zipf", seed=2)
        with running_door(snapshot) as door:
            host, port = door.address
            report = run_open_loop(host, port, queries, k=5, rate=3000.0, seed=2)
            assert door.reconciled()
        assert report.reconciled
        assert report.n_ok == report.n_offered == 60
        assert report.transport_errors == []
        assert report.latency["count"] == 60
        assert report.achieved_qps > 0
        assert set(report.statuses) <= set(STATUSES)
        payload = report.as_dict()
        assert payload["reconciled"] is True
        assert payload["statuses"] == {"ok": 60}

    def test_overloaded_run_sheds_but_reconciles(self, snapshot):
        """Open-loop past the knee: the admission controller sheds, the
        deadline clock fires, and still every offered request comes back
        with exactly one terminal status."""
        from repro.serving import run_open_loop

        queries = make_queries(N, 40, "zipf", seed=4)
        with running_door(snapshot, max_inflight=2, wave_delay=0.03) as door:
            host, port = door.address
            report = run_open_loop(
                host, port, queries, k=5, rate=4000.0, timeout_ms=2000, seed=4
            )
            assert door.reconciled()
        assert report.reconciled
        assert report.statuses.get("rejected", 0) > 0
        assert report.reject_rate > 0
        assert set(report.statuses) <= set(STATUSES)

    def test_saturation_sweep_orders_rates(self, snapshot):
        from repro.serving import saturation_sweep

        with running_door(snapshot) as door:
            host, port = door.address
            reports = saturation_sweep(
                host, port, N, rates=[2000.0, 500.0], queries_per_rate=30, k=5
            )
        assert [r.rate_offered for r in reports] == [500.0, 2000.0]
        assert all(r.reconciled for r in reports)
        assert all(r.n_offered == 30 for r in reports)
