"""Replica-pool scale-out: throughput vs workers, batching, routing, churn.

Four questions about the multi-process serving tier, answered on one
published snapshot of a scale-free graph:

1. **scale-out** — how does throughput grow with worker count on a
   skewed (zipf) workload?  One Python process is GIL-bound; replicas
   are share-nothing, so the ceiling is the core count (the report
   records ``cpu_count`` — on a 1-core box every count measures ~the
   same, by construction).
2. **micro-batch size** — the scheduler amortises IPC over batches;
   batch size 1 is the queue-round-trip-per-query floor, and the sweep
   shows where amortisation saturates.
3. **routing policy** — consistent-hash affinity sends repeated roots
   to the same replica; round-robin spreads them.  The answer cache
   sits at the scheduler, so a repeated ``(query, k)`` reaches no
   worker under either router: same stream, same workers, the same
   hit rate, and only where the misses run differs.
4. **update churn soak** — queries interleaved with publisher batches
   and snapshot hot-swaps, with a single-process reference asserting
   the pool's answers stay **bit-identical** across every swap.

Regression gate (machine-independent, ROADMAP item 4(b))
--------------------------------------------------------
Wall-clock numbers are trajectory only.  ``--check BENCH_scaleout.json``
gates on the **invariants** — booleans that hold on any hardware:
churn-soak bit-identity, full answer accounting, a consistent-hash
hit rate no lower than round-robin's on a zipf stream and live
telemetry artifacts.  A
committed invariant that flips (or goes missing) exits 1; numbers
drifting is fine, semantics drifting is not.

Run standalone for wall-clock tables::

    PYTHONPATH=src python benchmarks/bench_serving_scaleout.py

or in smoke mode (tiny graph, 2 workers, JSON artifact for CI)::

    PYTHONPATH=src python benchmarks/bench_serving_scaleout.py --smoke \
        --output BENCH_serving_scaleout.json --check BENCH_scaleout.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.core import DynamicKDash, load_index
from repro.graph import scale_free_digraph
from repro.obs import MetricsRegistry, Tracer, write_metrics_json
from repro.query import QueryEngine
from repro.serving import (
    MicroBatchScheduler,
    ReplicaPool,
    SnapshotPublisher,
    SnapshotStore,
    make_queries,
    make_update_batch,
)

C = 0.95
K = 10

#: The booleans the --check gate holds across machines (the committed
#: BENCH_scaleout.json stores them under its "serving" section).
INVARIANT_KEYS = (
    "scaleout_answers_complete",
    "routing_affinity_wins",
    "churn_exact",
    "telemetry_spans_present",
)


def publish_base(graph, directory: str):
    """Build once, publish epoch 0; returns (store, snapshot)."""
    store = SnapshotStore(directory)
    dyn = DynamicKDash(graph, c=C, rebuild_threshold=None)
    snapshot = SnapshotPublisher(QueryEngine(dyn), store).publish()
    return store, snapshot


def timed_run(snapshot, workers: int, router: str, batch_size: int,
              queries: List[int], cache_size: int = 1024) -> Dict:
    """One fresh pool + scheduler serving the whole stream; stats out."""
    with ReplicaPool(snapshot, workers, cache_size=cache_size) as pool:
        scheduler = MicroBatchScheduler(pool, router=router, batch_size=batch_size)
        t0 = time.perf_counter()
        results = scheduler.run(queries, K)
        seconds = time.perf_counter() - t0
        agg = scheduler.aggregate_stats(scheduler.collect_stats())
    return {
        "workers": workers,
        "router": router,
        "batch_size": batch_size,
        "seconds": seconds,
        "queries_per_second": len(queries) / seconds,
        "hit_rate": round(agg["hit_rate"], 4),
        "scans_executed": agg["scans_executed"],
        "answers_complete": len(results) == len(queries),
    }


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def bench_scaleout(snapshot, worker_counts, queries, batch_size) -> Dict:
    rows = {}
    for workers in worker_counts:
        row = timed_run(snapshot, workers, "rr", batch_size, queries)
        base = rows.get(worker_counts[0])
        row["speedup"] = round(
            base["seconds"] / row["seconds"], 2) if base else 1.0
        rows[workers] = row
        print(
            f"  {workers} workers: {row['queries_per_second']:10,.0f} q/s "
            f"({row['seconds']:.3f}s, speedup {row['speedup']:.2f}x, "
            f"hit rate {row['hit_rate']:.2f})"
        )
    return {str(w): r for w, r in rows.items()}


def bench_batch_sizes(snapshot, workers, queries, sizes) -> Dict:
    rows = {}
    for size in sizes:
        row = timed_run(snapshot, workers, "rr", size, queries)
        rows[str(size)] = row
        print(
            f"  batch {size:4d}: {row['queries_per_second']:10,.0f} q/s "
            f"({row['seconds']:.3f}s)"
        )
    return rows


def bench_routing(snapshot, workers, queries, batch_size) -> Dict:
    rows = {}
    for router in ("rr", "hash"):
        row = timed_run(snapshot, workers, router, batch_size, queries)
        rows[router] = row
        print(
            f"  {router:4s}: hit rate {row['hit_rate']:.3f}, "
            f"{row['queries_per_second']:10,.0f} q/s, "
            f"{row['scans_executed']} scans"
        )
    gain = rows["hash"]["hit_rate"] - rows["rr"]["hit_rate"]
    print(f"  hit-rate difference, hash minus round-robin: {gain:+.3f}")
    return rows


def bench_churn(store, snapshot, workers, batch_size, n_chunks,
                queries_per_chunk, updates_per_batch, n_nodes, seed) -> Dict:
    """Queries interleaved with publish+hot-swap; exactness asserted.

    The single-process reference mirrors the deployment: it starts from
    the same epoch-0 archive and compacts (rebuilds) at every
    publication point, exactly as the publisher does — so its stream of
    answers is the ground truth the pool must match bit-for-bit.
    """
    publisher = SnapshotPublisher(
        QueryEngine(DynamicKDash.from_index(load_index(snapshot.path),
                                            rebuild_threshold=None)),
        store,
    )
    reference = QueryEngine(
        DynamicKDash.from_index(load_index(snapshot.path),
                                rebuild_threshold=None)
    )
    rng = np.random.default_rng(seed)
    scratch = publisher.engine.dynamic.graph.copy()
    chunks = [
        make_queries(n_nodes, queries_per_chunk, "zipf", seed=seed + 10 + i)
        for i in range(n_chunks)
    ]
    batches = [
        make_update_batch(scratch, updates_per_batch, rng)
        for _ in range(n_chunks - 1)
    ]

    got: List = []
    want: List = []
    swap_seconds = []
    with ReplicaPool(snapshot, workers) as pool:
        scheduler = MicroBatchScheduler(pool, router="hash", batch_size=batch_size)
        t0 = time.perf_counter()
        for i, chunk in enumerate(chunks):
            got.extend(scheduler.run(chunk, K))
            if i < len(batches):
                inserts, deletes = batches[i]
                _, snap = publisher.apply_and_publish(inserts, deletes)
                t_swap = time.perf_counter()
                scheduler.publish(snap)
                swap_seconds.append(time.perf_counter() - t_swap)
        seconds = time.perf_counter() - t0
        final_epoch = pool.snapshot.epoch
    for i, chunk in enumerate(chunks):
        want.extend(reference.top_k_many(chunk, K))
        if i < len(batches):
            inserts, deletes = batches[i]
            reference.apply_updates(inserts, deletes)
            reference.rebuild()
    exact = [r.items for r in got] == [r.items for r in want]
    n_queries = sum(len(c) for c in chunks)
    row = {
        "workers": workers,
        "n_queries": n_queries,
        "update_batches": len(batches),
        "final_epoch": final_epoch,
        "seconds": seconds,
        "queries_per_second": n_queries / seconds,
        "mean_swap_seconds": float(np.mean(swap_seconds)) if swap_seconds else 0.0,
        "exact_across_swaps": exact,
    }
    print(
        f"  {n_queries} queries / {len(batches)} published batches: "
        f"{row['queries_per_second']:10,.0f} q/s, mean swap "
        f"{row['mean_swap_seconds'] * 1e3:.1f} ms, "
        f"bit-identical to single process: {exact}"
    )
    if not exact:
        raise SystemExit("churn soak: pool diverged from single-process reference")
    return row


def bench_telemetry(snapshot, workers, queries, batch_size,
                    metrics_path, trace_path) -> Dict:
    """Section 5: one instrumented run, artifacts for CI.

    Serves the stream with a live registry and a 1-in-10 trace sampler,
    then writes the pool-merged metrics JSON and the JSONL trace log —
    the scrape/trace artifacts the observability quickstart documents.
    """
    registry, tracer = MetricsRegistry(), Tracer(sample_every=10)
    with ReplicaPool(snapshot, workers) as pool:
        scheduler = MicroBatchScheduler(
            pool, router="hash", batch_size=batch_size,
            registry=registry, tracer=tracer,
        )
        t0 = time.perf_counter()
        scheduler.run(queries, K)
        seconds = time.perf_counter() - t0
        merged = MetricsRegistry()
        merged.merge(registry)
        merged.merge(pool.collect_metrics())
    envelope = scheduler.latency.percentiles()
    spans = tracer.export()
    row = {
        "workers": workers,
        "queries": len(queries),
        "queries_per_second": len(queries) / seconds,
        "latency": envelope,
        "spans": len(spans),
        "traces": len({s["trace_id"] for s in spans}),
    }
    if metrics_path:
        write_metrics_json(merged, metrics_path,
                           extra={"benchmark": "serving_scaleout"})
        row["metrics_artifact"] = metrics_path
    if trace_path:
        tracer.write_jsonl(trace_path)
        row["trace_artifact"] = trace_path
    print(
        f"  instrumented ({workers} workers): p50 "
        f"{envelope['p50'] * 1e3:.2f} ms, p95 {envelope['p95'] * 1e3:.2f} ms, "
        f"p99 {envelope['p99'] * 1e3:.2f} ms over {envelope['count']} "
        f"requests; {row['spans']} spans / {row['traces']} traces"
    )
    return row


def collect_invariants(results: Dict) -> Dict:
    """The machine-independent booleans the --check gate holds."""
    runs = (
        list(results["scaleout"].values())
        + list(results["batch_sizes"].values())
        + list(results["routing"].values())
    )
    return {
        "scaleout_answers_complete": all(r["answers_complete"] for r in runs),
        "routing_affinity_wins": (
            results["routing"]["hash"]["hit_rate"]
            >= results["routing"]["rr"]["hit_rate"]
        ),
        "churn_exact": bool(results["churn"]["exact_across_swaps"]),
        "telemetry_spans_present": (
            results["telemetry"]["spans"] > 0 and results["telemetry"]["traces"] > 0
        ),
    }


def check_against(invariants: Dict, committed_path: Path, section: str) -> int:
    """Gate this run's invariants against the committed baseline section."""
    committed = json.loads(committed_path.read_text())[section]["invariants"]
    failures = []
    for key, committed_value in committed.items():
        got = invariants.get(key)
        status = "ok" if got == committed_value else "REGRESSION"
        print(f"  gate {key:26s}: committed {committed_value}, run {got} — {status}")
        if got != committed_value:
            failures.append(f"{key}: committed {committed_value}, run {got}")
    for key in INVARIANT_KEYS:
        if key not in committed:
            failures.append(f"{key}: missing from committed baseline")
    if failures:
        print(f"{section} scale-out gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"{section} scale-out gate passed")
    return 0


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes + JSON output (CI artifact mode)",
    )
    parser.add_argument(
        "--output", default="BENCH_serving_scaleout.json",
        help="where --smoke writes its JSON report",
    )
    parser.add_argument(
        "--metrics-json",
        help="write the instrumented run's merged metrics snapshot here",
    )
    parser.add_argument(
        "--trace-jsonl",
        help="write the instrumented run's span records here (JSONL)",
    )
    parser.add_argument(
        "--check",
        type=Path,
        help="compare this run's invariants to the 'serving' section of a "
        "committed BENCH_scaleout.json and exit 1 on any flip",
    )
    args = parser.parse_args()

    if args.smoke:
        config = {
            "n": 300, "m": 1200,
            "worker_counts": [1, 2], "batch_size": 16,
            "n_queries": 400, "sweep_sizes": [1, 16, 64],
            "churn_chunks": 3, "churn_queries": 60, "churn_updates": 4,
        }
    else:
        config = {
            "n": 3000, "m": 12000,
            "worker_counts": [1, 2, 4], "batch_size": 64,
            "n_queries": 20000, "sweep_sizes": [1, 8, 32, 128, 512],
            "churn_chunks": 6, "churn_queries": 1500, "churn_updates": 16,
        }

    graph = scale_free_digraph(config["n"], config["m"], seed=5)
    queries = make_queries(config["n"], config["n_queries"], "zipf", seed=17)
    results: Dict = {"config": config, "cpu_count": os.cpu_count()}

    with tempfile.TemporaryDirectory(prefix="kdash-bench-") as directory:
        store, snapshot = publish_base(graph, directory)

        print(f"\nscale-out (zipf, batch {config['batch_size']}, "
              f"{os.cpu_count()} cores):")
        results["scaleout"] = bench_scaleout(
            snapshot, config["worker_counts"], queries, config["batch_size"]
        )

        max_workers = config["worker_counts"][-1]
        print(f"\nmicro-batch size sweep ({max_workers} workers):")
        results["batch_sizes"] = bench_batch_sizes(
            snapshot, max_workers, queries, config["sweep_sizes"]
        )

        print(f"\nrouting policy ({max_workers} workers, zipf):")
        results["routing"] = bench_routing(
            snapshot, max_workers, queries, config["batch_size"]
        )

        print(f"\nupdate-churn soak ({min(2, max_workers)} workers):")
        results["churn"] = bench_churn(
            store, snapshot, min(2, max_workers), config["batch_size"],
            config["churn_chunks"], config["churn_queries"],
            config["churn_updates"], config["n"], seed=23,
        )

        print(f"\ninstrumented run ({max_workers} workers, telemetry on):")
        results["telemetry"] = bench_telemetry(
            snapshot, max_workers, queries, config["batch_size"],
            args.metrics_json, args.trace_jsonl,
        )

    top = results["scaleout"][str(config["worker_counts"][-1])]
    print(
        f"\n{config['worker_counts'][-1]} workers vs 1: "
        f"{top['speedup']:.2f}x throughput "
        f"({os.cpu_count()} cores available; share-nothing replicas scale "
        f"with cores)"
    )
    gain = (results["routing"]["hash"]["hit_rate"]
            - results["routing"]["rr"]["hit_rate"])
    print(f"consistent-hash affinity: {gain:+.3f} hit rate against round-robin "
          "(the answer cache is the scheduler's, shared by both routers)")

    invariants = collect_invariants(results)
    results["invariants"] = invariants
    for key, value in invariants.items():
        print(f"invariant {key:26s}: {'ok' if value else 'VIOLATED'}")

    if args.smoke:
        payload = {"benchmark": "serving_scaleout", "k": K, "c": C, **results}
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nwrote {args.output}")
    if args.check:
        return check_against(invariants, args.check, "serving")
    return 0 if all(invariants.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
