"""The default kernel backend, end to end, with the oracle in the loop.

Most serving tests compare a pool against an in-process engine, and with
``numpy`` as the default both sides scan with the same backend.  This
module pins the default itself and keeps the scalar ``python`` oracle in
the comparison.  With ``$REPRO_KERNEL_BACKEND`` unset:

- every ``kernel.scan`` leaf a traced replica or shard pool returns
  names ``numpy``;
- a default ``QueryEngine`` never builds the plain-list mirrors that
  only the ``python`` loop reads;
- a seeded stream through each pool equals, bit for bit, the same
  stream through the ``python`` backend in process: items and scan
  counters.  The shard pool and the planner drive one gather, so their
  counters agree on any graph, including one where a scan that ignored
  the gather's running candidates would compute more proximities.
"""

import pytest

from repro.core import DynamicKDash, KDash, load_sharded_index
from repro.graph import erdos_renyi_graph, planted_partition_graph, scale_free_digraph
from repro.obs import Tracer
from repro.query import QueryEngine, ScatterGatherPlanner
from repro.query.backends import ENV_VAR
from repro.serving import (
    MicroBatchScheduler,
    ReplicaPool,
    ShardPool,
    ShardedScheduler,
    SnapshotPublisher,
    SnapshotStore,
    make_queries,
)

N = 60
N_COMMUNITIES = 4


def replica_graph():
    return erdos_renyi_graph(N, 0.08, seed=42)


def sharded_graph():
    return planted_partition_graph(
        [15] * N_COMMUNITIES, 0.4, 0.02, directed=True, seed=21
    )


@pytest.fixture(autouse=True)
def no_backend_env(monkeypatch):
    """Nothing selects a backend: pool workers fork with this env too."""
    monkeypatch.delenv(ENV_VAR, raising=False)


def publish(tmp_path, graph, c, shard_spec=None):
    dyn = DynamicKDash(graph, c=c, rebuild_threshold=None)
    store = SnapshotStore(str(tmp_path))
    return SnapshotPublisher(QueryEngine(dyn), store, shard_spec=shard_spec).publish()


def oracle_engine(graph, c):
    return QueryEngine(KDash(graph, c=c, kernel_backend="python").build())


def scan_backends(tracer):
    return {r["tags"]["backend"] for r in tracer.export() if r["name"] == "kernel.scan"}


def answers(results):
    return [(r.items, r.n_visited, r.n_computed) for r in results]


def test_default_engine_never_builds_python_mirrors():
    engine = QueryEngine(KDash(replica_graph(), c=0.9).build())
    prepared = engine.index._prepared
    assert prepared.backend == "numpy"
    engine.top_k_many(make_queries(N, 40, "zipf", seed=3), 5)
    assert engine.last_stats.executed > 0
    assert not prepared.python_mirrors_built


def test_replica_pool_scans_numpy_and_matches_the_oracle(tmp_path):
    queries = make_queries(N, 80, "zipf", seed=11)
    tracer = Tracer()
    with ReplicaPool(publish(tmp_path, replica_graph(), 0.9), 2) as pool:
        scheduler = MicroBatchScheduler(pool, batch_size=8, tracer=tracer)
        got = scheduler.run(queries, k=5)
    assert scan_backends(tracer) == {"numpy"}
    want = oracle_engine(replica_graph(), 0.9).top_k_many(queries, 5)
    assert answers(got) == answers(want)


def check_shard_pool(tmp_path, graph, n_shards):
    queries = make_queries(N, 60, "uniform", seed=12)
    tracer = Tracer()
    snapshot = publish(tmp_path, graph, 0.95, shard_spec=(n_shards, "louvain"))
    with ShardPool(snapshot) as pool:
        scheduler = ShardedScheduler(pool, batch_size=8, tracer=tracer)
        got = scheduler.run(queries, k=5)
    assert scan_backends(tracer) == {"numpy"}
    # The same plan over the same shards, scanned by the oracle in
    # process: items and the plan's summed scan counters.
    planner = ScatterGatherPlanner(load_sharded_index(snapshot.path), backend="python")
    assert answers(got) == answers(planner.top_k_many(queries, 5))
    want = oracle_engine(graph, 0.95).top_k_many(queries, 5)
    assert [r.items for r in got] == [r.items for r in want]


def test_shard_pool_scans_numpy_and_matches_the_oracle(tmp_path):
    check_shard_pool(tmp_path, sharded_graph(), N_COMMUNITIES)


def test_shard_pool_counters_match_the_planner_on_a_scale_free_graph(tmp_path):
    """Remote scans prune under the gather's θ: on this graph a scan
    from an empty heap computes more proximities than the planner."""
    check_shard_pool(tmp_path, scale_free_digraph(N, 240, seed=1), 2)
