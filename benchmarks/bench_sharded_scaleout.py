"""Sharded scale-out: shard-skip rate, fan-out, and exactness under load.

Three questions about the partition-sharded tier, answered on a
planted-partition graph (the regime sharding is *for*: strong
communities, rare cross-community edges):

1. **pruning power** — across shard counts × partitioners × workloads,
   how many non-home shards does the cross-shard bound actually skip
   (``skip_rate``), and how many shards does a query touch on average
   (``mean_fan_out``)?  The skewed (zipf) workload is the serving-
   realistic case; the acceptance bar is a **nonzero skip rate** there.
2. **work accounting** — exact proximities computed per query by the
   scatter-gather plan vs the single-index pruned scan.  The plan
   cannot BFS-prune inside a shard (it trades that for whole-shard
   skips), so this ratio is the honest cost of horizontality.
3. **process tier** — the same plan spread over a
   :class:`~repro.serving.sharded.ShardPool` (one worker per shard):
   throughput and the same skip accounting, plus a bit-identical
   equivalence check against a single-process engine.

Every cell also verifies the planner's answers equal the single-index
engine's **exactly** (ids, proximities, order) on a query sample.

Regression gate (machine-independent, ROADMAP item 4(b))
--------------------------------------------------------
``--check BENCH_scaleout.json`` gates on the **invariants** (the
"sharded" section of the committed file): grid + pool exactness and
the nonzero skewed skip rate.  A committed invariant that flips (or
goes missing) exits 1.

Run standalone for wall-clock tables::

    PYTHONPATH=src python benchmarks/bench_sharded_scaleout.py

or in smoke mode (tiny graph, JSON artifact for CI)::

    PYTHONPATH=src python benchmarks/bench_sharded_scaleout.py --smoke \
        --output BENCH_sharded_scaleout.json --check BENCH_scaleout.json
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from repro.core import DynamicKDash, KDash, ShardedIndex
from repro.graph import planted_partition_graph
from repro.obs import MetricsRegistry, Tracer, write_metrics_json
from repro.query import QueryEngine, ScatterGatherPlanner
from repro.serving import (
    ShardPool,
    ShardedScheduler,
    SnapshotPublisher,
    SnapshotStore,
    make_queries,
)

C = 0.95
K = 10

#: The booleans the --check gate holds across machines (the committed
#: BENCH_scaleout.json stores them under its "sharded" section).
INVARIANT_KEYS = (
    "grid_exact",
    "pool_bit_identical",
    "skewed_skip_nonzero",
)


def build_graph(n_communities: int, community_size: int, seed: int = 7):
    """A strongly clustered directed graph: dense inside, sparse across."""
    return planted_partition_graph(
        [community_size] * n_communities,
        p_in=min(1.0, 8.0 / community_size),
        p_out=0.2 / (n_communities * community_size),
        directed=True,
        seed=seed,
    )


def bench_planner_grid(
    index, shard_counts, partitioners, workloads, check_queries
) -> List[Dict]:
    """Section 1+2: the in-process planner across the whole grid."""
    rows = []
    # The single-index reference depends only on the workload — compute
    # it once per workload, not once per grid cell.
    reference_items = {q: index.top_k(q, K).items for q in check_queries}
    engine_computed_by_workload = {
        workload: sum(index.top_k(q, K).n_computed for q in queries)
        for workload, queries in workloads.items()
    }
    for n_shards in shard_counts:
        for partitioner in partitioners:
            sharded = ShardedIndex.from_index(
                index, n_shards, partitioner=partitioner
            )
            for workload, queries in workloads.items():
                planner = ScatterGatherPlanner(sharded)
                t0 = time.perf_counter()
                planner.top_k_many(queries, K)
                seconds = time.perf_counter() - t0
                # Snapshot the workload's accounting *before* any further
                # queries: the exactness check below runs on a fresh
                # planner so it cannot pollute the reported rates.
                stats = planner.stats.as_dict()
                verifier = ScatterGatherPlanner(sharded)
                exact = all(
                    verifier.top_k(q, K).items == reference_items[q]
                    for q in check_queries
                )
                engine_computed = engine_computed_by_workload[workload]
                row = {
                    "n_shards": n_shards,
                    "partitioner": partitioner,
                    "workload": workload,
                    "queries": len(queries),
                    "seconds": round(seconds, 4),
                    "queries_per_second": round(len(queries) / seconds, 1),
                    "skip_rate": round(stats["skip_rate"], 4),
                    "mean_fan_out": round(stats["mean_fan_out"], 3),
                    "nodes_computed": stats["nodes_computed"],
                    "single_engine_computed": engine_computed,
                    "work_ratio_vs_single": round(
                        stats["nodes_computed"] / max(engine_computed, 1), 2
                    ),
                    "exact": exact,
                }
                rows.append(row)
                print(
                    f"  {n_shards} shards / {partitioner:7s} / "
                    f"{workload:7s}: skip {row['skip_rate']:.2f}, "
                    f"fan-out {row['mean_fan_out']:.2f}, "
                    f"work x{row['work_ratio_vs_single']:.2f}, "
                    f"exact={exact}"
                )
    return rows


def bench_shard_pool(graph, n_shards: int, queries, reference_engine,
                     metrics_path=None, trace_path=None) -> Dict:
    """Section 3: the process tier — one worker per shard.

    With ``metrics_path``/``trace_path`` the run is instrumented (live
    registry, 1-in-10 trace sampling) and the pool-merged metrics JSON
    plus JSONL trace log are written as CI artifacts.
    """
    registry = MetricsRegistry() if (metrics_path or trace_path) else None
    tracer = Tracer(sample_every=10) if trace_path else None
    with tempfile.TemporaryDirectory(prefix="kdash-sharded-bench-") as directory:
        store = SnapshotStore(directory)
        dyn = DynamicKDash(graph.copy(), c=C, rebuild_threshold=None)
        publisher = SnapshotPublisher(
            QueryEngine(dyn), store, shard_spec=(n_shards, "louvain")
        )
        snapshot = publisher.publish()
        with ShardPool(snapshot) as pool:
            scheduler = ShardedScheduler(
                pool, batch_size=16, registry=registry, tracer=tracer
            )
            t0 = time.perf_counter()
            got = scheduler.run(queries, K)
            seconds = time.perf_counter() - t0
            agg = scheduler.aggregate_stats(scheduler.collect_stats())
            if registry is not None:
                merged = MetricsRegistry()
                merged.merge(registry)
                merged.merge(pool.collect_metrics())
    want = reference_engine.top_k_many(queries, K)
    bit_identical = [r.items for r in got] == [r.items for r in want]
    row = {
        "n_shards": n_shards,
        "queries": len(queries),
        "seconds": round(seconds, 4),
        "queries_per_second": round(len(queries) / seconds, 1),
        "skip_rate": round(agg["skip_rate"], 4),
        "mean_fan_out": round(agg["mean_fan_out"], 3),
        "remote_queries": agg["remote_queries"],
        "bit_identical": bit_identical,
    }
    if registry is not None:
        envelope = scheduler.latency.percentiles()
        row["latency"] = envelope
        print(
            f"  latency envelope: p50 {envelope['p50'] * 1e3:.2f} ms, "
            f"p95 {envelope['p95'] * 1e3:.2f} ms, "
            f"p99 {envelope['p99'] * 1e3:.2f} ms "
            f"over {envelope['count']} requests"
        )
    if metrics_path:
        write_metrics_json(merged, metrics_path,
                           extra={"benchmark": "sharded_scaleout"})
        row["metrics_artifact"] = metrics_path
    if trace_path:
        spans = tracer.export()
        tracer.write_jsonl(trace_path)
        row["spans"] = len(spans)
        row["traces"] = len({s["trace_id"] for s in spans})
        row["trace_artifact"] = trace_path
    print(
        f"  shard pool ({n_shards} workers): "
        f"{row['queries_per_second']:8,.0f} q/s, "
        f"skip {row['skip_rate']:.2f}, fan-out {row['mean_fan_out']:.2f}, "
        f"bit-identical={bit_identical}"
    )
    return row


def check_against(invariants: Dict, committed_path: Path) -> int:
    """Gate this run against the committed baseline's sharded section."""
    committed = json.loads(committed_path.read_text())["sharded"]["invariants"]
    failures = []
    for key, committed_value in committed.items():
        got = invariants.get(key)
        status = "ok" if got == committed_value else "REGRESSION"
        print(f"  gate {key:22s}: committed {committed_value}, run {got} — {status}")
        if got != committed_value:
            failures.append(f"{key}: committed {committed_value}, run {got}")
    for key in INVARIANT_KEYS:
        if key not in committed:
            failures.append(f"{key}: missing from committed baseline")
    if failures:
        print("sharded scale-out gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("sharded scale-out gate passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny graph + short workloads (CI artifact mode)",
    )
    parser.add_argument("--output", help="write the JSON report here")
    parser.add_argument(
        "--metrics-json",
        help="write the pool run's merged metrics snapshot here",
    )
    parser.add_argument(
        "--trace-jsonl",
        help="write the pool run's span records here (JSONL)",
    )
    parser.add_argument(
        "--check",
        type=Path,
        help="compare this run's invariants to the 'sharded' section of a "
        "committed BENCH_scaleout.json and exit 1 on any flip",
    )
    args = parser.parse_args()

    if args.smoke:
        n_communities, community_size = 4, 25
        n_queries = 150
        shard_counts = (2, 4)
    else:
        n_communities, community_size = 8, 150
        n_queries = 2000
        shard_counts = (2, 4, 8)

    graph = build_graph(n_communities, community_size)
    n = graph.n_nodes
    print(
        f"graph: {n:,} nodes / {graph.n_edges:,} edges "
        f"({n_communities} planted communities)"
    )
    index = KDash(graph, c=C).build()
    engine = QueryEngine(index, cache_size=0)

    workloads = {
        "skewed": make_queries(n, n_queries, "zipf", seed=11),
        "uniform": make_queries(n, n_queries, "uniform", seed=12),
    }
    check_queries = list(range(0, n, max(1, n // 40)))

    print("planner grid (skip rate / fan-out / work ratio):")
    grid = bench_planner_grid(
        index,
        shard_counts,
        ("louvain", "range"),
        workloads,
        check_queries,
    )

    print("process tier:")
    pool_row = bench_shard_pool(
        graph,
        shard_counts[-1],
        workloads["skewed"][: max(100, n_queries // 4)],
        engine,
        metrics_path=args.metrics_json,
        trace_path=args.trace_jsonl,
    )

    skewed_skips = [r["skip_rate"] for r in grid if r["workload"] == "skewed"
                    and r["n_shards"] > 1]
    invariants = {
        "grid_exact": all(r["exact"] for r in grid),
        "pool_bit_identical": bool(pool_row["bit_identical"]),
        "skewed_skip_nonzero": bool(
            skewed_skips and min(skewed_skips) > 0.0
        ),
    }
    report = {
        "config": {
            "smoke": args.smoke,
            "n_nodes": n,
            "n_edges": graph.n_edges,
            "c": C,
            "k": K,
            "cpu_count": os.cpu_count(),
        },
        "planner_grid": grid,
        "shard_pool": pool_row,
        "all_exact": all(r["exact"] for r in grid) and pool_row["bit_identical"],
        "skewed_skip_rate_min": min(skewed_skips) if skewed_skips else 0.0,
        "invariants": invariants,
    }
    print(
        f"all exact: {report['all_exact']}; "
        f"min skewed skip rate: {report['skewed_skip_rate_min']:.2f}"
    )
    for key, value in invariants.items():
        print(f"invariant {key:22s}: {'ok' if value else 'VIOLATED'}")
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.output}")
    if args.check:
        return check_against(invariants, args.check)
    return 0 if all(invariants.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
