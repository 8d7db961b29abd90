"""Worker death and full pipes: reported at once, never a hang.

Each pool worker talks to the gather side over two one-way pipes, so a
worker that dies without a word (``kill -9``) closes them, and the next
send to it (a broken pipe) or receive from it (end of file) raises a
:class:`~repro.exceptions.ServingError` naming it at once — well inside
the pool timeout these tests set to 30 s.  Over the front door the
request in flight is answered ``error`` with ``service failed``, and
so is every later one.

The gather side writes requests without blocking: a backlog bigger
than both pipe buffers, with replies bigger than the requests, must
still finish and match the single-process engine, because a send that
finds the request pipe full reads the ready replies first.  ``close``
returns one stats dict per live worker, and returns promptly when a
worker has died.

A snapshot header is read without pickle: a header field holding a
pickled object is refused before anything in it runs.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core import DynamicKDash, load_index
from repro.exceptions import ServingError
from repro.graph import erdos_renyi_graph
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

N = 60
TIMEOUT = 30.0  # pool timeout: a dead worker must be reported long before it
PROMPT = 2.0  # seconds within which a death is reported


def _publish(directory, shard_spec=None):
    graph = erdos_renyi_graph(N, 0.08, seed=42)
    dyn = DynamicKDash(graph, c=0.9, rebuild_threshold=None)
    return SnapshotPublisher(
        QueryEngine(dyn), SnapshotStore(str(directory)), shard_spec=shard_spec
    ).publish()


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    return _publish(tmp_path_factory.mktemp("fault-snapshots"))


@pytest.fixture(scope="module")
def sharded_snapshot(tmp_path_factory):
    return _publish(tmp_path_factory.mktemp("fault-sharded"), shard_spec=(2, "range"))


@pytest.fixture(params=["replica", "sharded"])
def tier(request, snapshot, sharded_snapshot):
    """A two-worker pool of either tier and a scheduler over it."""
    if request.param == "replica":
        pool = ReplicaPool(snapshot, 2, timeout=TIMEOUT)
        scheduler = MicroBatchScheduler(pool, batch_size=8)
    else:
        pool = ShardPool(sharded_snapshot, timeout=TIMEOUT)
        scheduler = ShardedScheduler(pool, batch_size=8)
    with pool:
        yield pool, scheduler


def kill(pool, worker_id):
    """SIGKILL one worker and wait until it is gone."""
    process = pool._workers[worker_id]
    os.kill(process.pid, signal.SIGKILL)
    process.join(5.0)
    assert not process.is_alive()


def names_worker(pool, worker_id):
    """The ServingError message of a killed worker: its id, process name
    and signal exit code."""
    name = pool._workers[worker_id].name
    return rf"worker {worker_id} failed:\n.*{name} died \(exit code -9\)"


class TestWorkerDeath:
    def test_recv_reports_the_dead_worker_at_once(self, tier):
        pool, _ = tier
        kill(pool, 1)
        t0 = time.monotonic()
        with pytest.raises(ServingError, match=names_worker(pool, 1)):
            pool.recv()
        assert time.monotonic() - t0 < PROMPT
        # And again on the next receive, not a wait for the timeout.
        with pytest.raises(ServingError, match=names_worker(pool, 1)):
            pool.recv()
        assert time.monotonic() - t0 < PROMPT

    def test_send_reports_the_dead_worker_at_once(self, tier):
        pool, _ = tier
        kill(pool, 0)
        t0 = time.monotonic()
        with pytest.raises(ServingError, match=names_worker(pool, 0)):
            pool.send(0, ("stats",))
        assert time.monotonic() - t0 < PROMPT

    def test_in_flight_request_over_the_door_is_answered(self, tier):
        """The request sits in the dispatch thread's wave (``wave_delay``)
        when its worker is killed; its answer is ``service failed`` with
        the worker named, and so is the next request's."""
        pool, scheduler = tier
        query = 7
        # The worker the request goes to: rr starts at worker 0.
        target = pool.home_worker(query) if isinstance(pool, ShardPool) else 0
        door = FrontDoor(scheduler, port=0, n_nodes=N, wave_delay=0.3)
        try:
            door.start()
            with FrontDoorClient(*door.address) as client:
                client.send({"op": "query", "id": "a", "query": query, "k": 5})
                deadline = time.monotonic() + 5.0
                while door.inflight == 0 and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert door.inflight == 1
                kill(pool, target)
                t0 = time.monotonic()
                response = client.recv()
                assert time.monotonic() - t0 < PROMPT
                assert response["id"] == "a"
                assert response["status"] == "error"
                assert response["message"].startswith("service failed")
                assert pool._workers[target].name in response["message"]
                follow_up = client.query(query, k=5)
                assert follow_up["status"] == "error"
                assert follow_up["message"].startswith("service failed")
            assert door.reconciled()
            assert door.counters()["error"] == 2
        finally:
            door.stop()

    def test_death_found_at_submit_fails_the_door(self, tier):
        """With ``batch_size=1`` the submit itself writes to the dead
        worker's pipe; that request is ``service failed`` too."""
        pool, scheduler = tier
        query = 7
        target = pool.home_worker(query) if isinstance(pool, ShardPool) else 0
        kill(pool, target)
        door = FrontDoor(type(scheduler)(pool, batch_size=1), port=0, n_nodes=N)
        try:
            door.start()
            with FrontDoorClient(*door.address) as client:
                t0 = time.monotonic()
                response = client.query(query, k=5)
                assert time.monotonic() - t0 < PROMPT
                assert response["status"] == "error"
                assert response["message"].startswith("service failed")
                assert pool._workers[target].name in response["message"]
            assert door.reconciled()
        finally:
            door.stop()


class TestFullPipes:
    def test_backlog_larger_than_both_pipes_completes(self, snapshot):
        """20,000 queries at k = n to one worker: about 140 KB of requests
        go out before any reply is read, and each reply of 32 answers is
        about 27 KB, so both 64 KB pipe buffers fill.  A blocking send
        would wait on a worker blocked on its own reply.  The pool keeps
        no answer cache, so every repeat goes out too."""
        queries = make_queries(N, 20_000, "uniform", seed=17)
        with ReplicaPool(snapshot, 1, cache_size=0, timeout=TIMEOUT) as pool:
            got = MicroBatchScheduler(pool, batch_size=32).run(queries, k=N)
        want = QueryEngine(load_index(snapshot.path)).top_k_many(queries, N)
        assert len(got) == len(want) == 20_000
        assert [r.query for r in got] == list(queries)
        assert [r.items for r in got] == [w.items for w in want]


class TestClose:
    def test_close_is_prompt_after_a_worker_died(self, tier):
        pool, scheduler = tier
        scheduler.run(range(8), k=3)
        kill(pool, 1)
        t0 = time.monotonic()
        final = pool.close()
        assert time.monotonic() - t0 < PROMPT
        assert len(final) == 1
        assert not any(p.is_alive() for p in pool._workers)


_UNPICKLED = []


def _tripwire(value):
    _UNPICKLED.append(value)
    return value


class _Pickled:
    """An object whose unpickling calls :func:`_tripwire`."""

    def __reduce__(self):
        return (_tripwire, (N,))


def test_pickled_header_field_is_refused(tmp_path):
    """An archive whose ``n_nodes`` is a pickled object array: the pool
    refuses it at boot, before it starts a worker, and unpickles nothing."""
    n_nodes = np.empty(1, dtype=object)
    n_nodes[0] = _Pickled()
    path = str(tmp_path / "hostile.npz")
    np.savez(path, n_nodes=n_nodes, format_version=np.int64(2))
    with pytest.raises(ServingError, match="cannot read snapshot.*allow_pickle"):
        ReplicaPool(path, 1, timeout=TIMEOUT)
    assert _UNPICKLED == []
