"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------

``stats``
    Print the structural summary of a named synthetic dataset.
``build``
    Build a K-dash index for a dataset (or an edge-list file) and save
    it to disk — as a single archive, or, with ``--shards N
    --partitioner {louvain,range}``, as a format-v6 sharded manifest
    plus one payload file per shard.
``query``
    Load a saved index and run a top-k query — one node (``--node``) or
    a batched request (``--batch 3,7,3,12``) served through the
    :class:`~repro.query.engine.QueryEngine` (deduplication, shared
    workspace, result cache, throughput report).  A sharded manifest is
    served through the
    :class:`~repro.query.planner.ScatterGatherPlanner` instead,
    reporting shard fan-out and skip rate.
``update``
    Apply a batch of edge insertions/deletions to a saved index via the
    exact Woodbury correction, optionally run a verification query, and
    optionally rebuild + re-save the index.
``serve``
    Run a mixed update/query operation stream (file or stdin) against a
    saved index — in-process through the
    :class:`~repro.query.engine.QueryEngine`, or, with ``--workers N``,
    through the multi-process replica pool: updates flow through the
    :class:`~repro.serving.publisher.SnapshotPublisher` and hot-swap
    epoch-tagged snapshots into the workers, queries are micro-batched
    and routed (``--router rr|hash``).  With ``--sharded --shards N``
    the workers own *shards* instead of full replicas: queries scatter
    home-shard-first, gather in descending bound order, and skip
    bounded-out shards.  Final engine stats are printed on shutdown
    either way.
``loadgen``
    Synthesise a query workload (zipf or uniform, optionally interleaved
    with update/publish cycles) and drive it through the replica pool —
    or, with ``--sharded``, through shard-owning workers — reporting
    throughput, per-request latency percentiles (p50/p95/p99), hit
    rates and routing balance.
``metrics``
    Render a metrics JSON artifact (from ``serve --metrics-json`` /
    ``loadgen --metrics-json``) as a table or as Prometheus text
    exposition format.
``experiment``
    Run a single paper experiment (fig2 ... table2, restart_sweep) and
    print its table.

Observability flags (``serve`` and ``loadgen``): ``--metrics-json
PATH`` dumps the merged metrics registry (gather side + every worker)
as sorted-key JSON; ``--metrics-interval S`` re-dumps it periodically
while the stream runs; ``--trace-jsonl PATH`` samples per-query trace
spans (1 in ``--trace-sample``) across the process boundary and writes
the span log as JSONL.

Examples
--------

::

    python -m repro.cli stats --dataset Citation
    python -m repro.cli build --dataset Citation --output citation.npz
    python -m repro.cli query --index citation.npz --node 5 --k 10
    python -m repro.cli query --index citation.npz --node 5 --backend python
    python -m repro.cli query --index citation.npz --batch 5,9,5,12 --k 10
    python -m repro.cli update --index citation.npz --add 0:5:2.0,3:4 \\
        --remove 1:2 --node 5 --output citation-v2.npz
    python -m repro.cli serve --index citation.npz --ops ops.txt --max-rank 32
    python -m repro.cli serve --index citation.npz --ops ops.txt \\
        --workers 4 --router hash --batch-size 64
    python -m repro.cli loadgen --index citation.npz --workers 4 \\
        --queries 5000 --dist zipf --update-every 1000
    python -m repro.cli experiment --name fig7 --scale 0.5

``serve`` operation files hold one operation per line (``#`` comments
allowed)::

    add 0 5 2.0
    remove 1 2
    query 5 10
    batch 3,7,3,12 10
    rebuild

Consecutive ``add``/``remove`` lines are flushed as **one** update batch
(one epoch, one cache invalidation) when the next query arrives.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import List, Optional

from .core import KDash, load_index, save_index
from .datasets import DATASET_NAMES, load_dataset
from .exceptions import InvalidParameterError, NodeNotFoundError, SerializationError
from .graph import graph_statistics, read_edge_list
from .query.backends import (
    DEFAULT_BACKEND,
    ENV_VAR as _BACKEND_ENV_VAR,
    available_backends,
)
from .validation import check_k, check_node_id

_EXPERIMENTS = (
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig9",
    "table2",
    "restart_sweep",
)


def _cmd_stats(args) -> int:
    dataset = load_dataset(args.dataset, args.scale)
    stats = graph_statistics(dataset.graph)
    print(f"{dataset.name}: {dataset.description}")
    print(f"  paper original: n={dataset.paper_n:,}, m={dataset.paper_m:,}")
    for key, value in stats.as_dict().items():
        if isinstance(value, float):
            print(f"  {key}: {value:.4f}")
        else:
            print(f"  {key}: {value:,}")
    return 0


def _load_graph(args):
    if args.dataset:
        return load_dataset(args.dataset, args.scale).graph
    return read_edge_list(args.edge_list)


def _cmd_build(args) -> int:
    graph = _load_graph(args)
    index = KDash(graph, c=args.c, reordering=args.reordering).build()
    report = index.build_report
    print(
        f"built in {report.total_seconds:.2f}s "
        f"(reorder {report.reorder_seconds:.2f}s, LU {report.lu_seconds:.2f}s, "
        f"inversion {report.inverse_seconds:.2f}s)"
    )
    print(
        f"index: {index.index_nnz:,} nonzeros, "
        f"{report.fill_in.inverse_ratio:.1f}x the edge count"
    )
    if args.shards:
        from .core import ShardedIndex, save_sharded_index

        sharded = ShardedIndex.from_index(
            index, args.shards, partitioner=args.partitioner
        )
        written = save_sharded_index(sharded, args.output)
        sizes = [s.n_members for s in sharded.summaries]
        boundary = [f"{s.boundary_frac:.2f}" for s in sharded.summaries]
        print(
            f"sharded into {sharded.n_shards} shards ({args.partitioner}): "
            f"sizes {sizes}, boundary fractions {boundary}"
        )
        print(f"saved manifest + {len(written) - 1} shard files to {written[-1]}")
    else:
        save_index(index, args.output)
        print(f"saved to {args.output}")
    return 0


def _parse_batch(spec: str):
    """Comma-separated node ids of ``--batch``; ``None`` on bad input."""
    try:
        queries = [int(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError:
        return None
    return queries or None


def _is_sharded_archive(path: str) -> bool:
    """Whether ``path`` is a sharded manifest; an unreadable archive
    raises :class:`~repro.exceptions.SerializationError`."""
    from .core.index_io import is_sharded_version, read_format_version

    return is_sharded_version(read_format_version(path))


def _reject_sharded_index(path: str, command: str) -> Optional[int]:
    """Exit-code 2 with a remedy when ``path`` is a sharded manifest;
    ``None`` when the command can proceed on a single-index archive."""
    if _is_sharded_archive(path):
        print(
            f"error: {path} is a sharded (format-v3, v5 or v6) manifest; "
            f"'{command}' needs a single-index archive — build one without "
            "--shards, then re-shard at serve time with --sharded --shards N"
        )
        return 2
    return None


def _cmd_query(args) -> int:
    if _is_sharded_archive(args.index):
        return _run_sharded_query(args)
    index = load_index(args.index)
    if args.batch is not None:
        return _run_batch_query(index, args)
    result = index.top_k(args.node, args.k)
    print(
        f"top-{args.k} for node {args.node} "
        f"(computed {result.n_computed}/{index.graph.n_nodes} proximities, "
        f"early stop: {result.terminated_early}):"
    )
    for rank, (node, proximity) in enumerate(result.items, start=1):
        label = index.graph.label_of(node)
        print(f"  {rank:3d}. {label:30s} {proximity:.8f}")
    return 0


def _run_sharded_query(args) -> int:
    """``query`` against a sharded manifest: plan over the shards."""
    from .core import load_sharded_index
    from .query import ScatterGatherPlanner

    sharded = load_sharded_index(args.index)
    planner = ScatterGatherPlanner(sharded)

    def label(node: int) -> str:
        # Mirrors DiGraph.label_of's fallback for unlabelled graphs.
        return sharded.labels[node] if sharded.labels else f"node-{node}"

    queries = [args.node] if args.batch is None else _parse_batch(args.batch)
    if queries is None:
        print(f"error: --batch expects comma-separated node ids, got {args.batch!r}")
        return 2
    results = planner.top_k_many(queries, args.k)
    stats = planner.stats
    print(
        f"sharded top-{args.k} over {sharded.n_shards} shards "
        f"({sharded.partitioner}): {len(queries)} queries, "
        f"mean fan-out {stats.mean_fan_out:.2f}, "
        f"shard-skip rate {stats.skip_rate:.2f}"
    )
    if args.batch is None:
        plan = planner.last_plan
        result = results[0]
        print(
            f"  visited {plan.shards_visited} shard(s), skipped "
            f"{plan.shards_skipped}, computed {plan.nodes_computed}/"
            f"{sharded.n} proximities"
        )
        for rank, (node, proximity) in enumerate(result.items, start=1):
            print(f"  {rank:3d}. {label(node):30s} {proximity:.8f}")
    else:
        for query, result in zip(queries, results):
            top_node, top_p = result.items[0]
            print(
                f"  node {query:6d}: top {label(top_node):30s} {top_p:.8f}"
            )
    return 0


def _run_batch_query(index, args) -> int:
    """The ``query --batch`` path: serve many queries via the engine."""
    from .query import QueryEngine

    queries = _parse_batch(args.batch)
    if queries is None:
        print(f"error: --batch expects comma-separated node ids, got {args.batch!r}")
        return 2
    engine = QueryEngine(index)
    results = engine.top_k_many(queries, args.k)
    stats = engine.last_stats
    print(
        f"batch of {stats.n_queries} queries (k={args.k}): "
        f"{stats.queries_per_second:,.0f} queries/s, "
        f"{stats.executed} scans executed, "
        f"{stats.dedup_hits} deduped, {stats.cache_hits} cache hits"
    )
    for query, result in zip(queries, results):
        top_node, top_p = result.items[0]
        print(
            f"  node {query:6d}: top {index.graph.label_of(top_node):30s} "
            f"{top_p:.8f}  (computed {result.n_computed}, "
            f"early stop: {result.terminated_early})"
        )
    return 0


def _parse_edges(spec: str, allow_weight: bool):
    """Parse comma-separated ``u:v`` / ``u:v:w`` edge specs; None on error."""
    edges = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        parts = tok.split(":")
        try:
            if allow_weight and len(parts) == 3:
                edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
            elif len(parts) == 2:
                edges.append((int(parts[0]), int(parts[1])))
            else:
                return None
        except ValueError:
            return None
    return edges


def _print_topk(result, graph, header: str) -> None:
    print(header)
    for rank, (node, proximity) in enumerate(result.items, start=1):
        print(f"  {rank:3d}. {graph.label_of(node):30s} {proximity:.8f}")


def _cmd_update(args) -> int:
    """The ``update`` path: batched exact edge updates on a saved index."""
    from .core import DynamicKDash
    from .exceptions import GraphError
    from .query import QueryEngine

    inserts = _parse_edges(args.add, allow_weight=True) if args.add else []
    deletes = _parse_edges(args.remove, allow_weight=False) if args.remove else []
    if inserts is None or deletes is None:
        print("error: edge specs are comma-separated u:v (deletes) or u:v[:w] (inserts)")
        return 2
    if not inserts and not deletes:
        print("error: update needs at least one --add or --remove edge")
        return 2
    code = _reject_sharded_index(args.index, "update")
    if code is not None:
        return code
    index = load_index(args.index)
    if args.node is not None:
        # Before the batch: a bad id or k applies nothing and writes nothing.
        check_node_id(args.node, index.graph.n_nodes, "node")
        check_k(args.k)
    engine = QueryEngine(DynamicKDash.from_index(index, rebuild_threshold=None))
    try:
        report = engine.apply_updates(inserts, deletes)
    except GraphError as exc:
        print(f"error: {exc}")
        return 2
    print(
        f"applied {report.n_inserted} inserts, {report.n_deleted} deletes "
        f"in {report.seconds * 1e3:.2f} ms "
        f"(correction rank {report.pending_rank}, epoch {engine.epoch})"
    )
    if args.node is not None:
        result = engine.top_k(args.node, args.k)
        _print_topk(
            result,
            engine.dynamic.graph,
            f"top-{args.k} for node {args.node} (exact under pending updates):",
        )
    if args.output:
        engine.rebuild()
        save_index(engine.index, args.output)
        print(f"rebuilt (pruned fast path restored) and saved to {args.output}")
    return 0


def _print_engine_stats(stats: dict, header: str = "final engine stats:") -> None:
    """Dump an EngineStats dict so operators see serving health at exit."""
    print(header)
    for key, value in stats.items():
        if isinstance(value, float):
            print(f"  {key}: {value:.4f}")
        else:
            print(f"  {key}: {value}")


def _serve_telemetry(args):
    """(registry, tracer) per the shared observability flags (or Nones)."""
    from .obs import MetricsRegistry, Tracer

    registry = (
        MetricsRegistry()
        if (args.metrics_json or args.metrics_interval)
        else None
    )
    tracer = Tracer(sample_every=args.trace_sample) if args.trace_jsonl else None
    return registry, tracer


class _MetricsDump:
    """Periodic + final metrics-JSON dumps behind ``--metrics-json``.

    ``collect`` returns the registry to dump — the gather-side registry
    merged with every worker's, for the pool modes.  Each dump rewrites
    the artifact in place (the file is a snapshot, not a log), stamped
    with a monotone ``dumps`` count.
    """

    def __init__(self, path, interval, collect) -> None:
        import time

        self.path = path
        self.interval = float(interval or 0.0)
        self.collect = collect
        self.dumps = 0
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Dump when the interval has elapsed (no-op without one)."""
        if not self.path or not self.interval:
            return
        import time

        now = time.perf_counter()
        if now - self._last >= self.interval:
            self._dump()
            self._last = now

    def final(self) -> None:
        if self.path:
            self._dump()
            print(f"wrote metrics JSON ({self.dumps} dumps) to {self.path}")

    def _dump(self) -> None:
        from .obs import write_metrics_json

        self.dumps += 1
        write_metrics_json(self.collect(), self.path, extra={"dumps": self.dumps})


def _finish_trace(tracer, path) -> None:
    """Write the sampled span log as JSONL and say what went where."""
    if tracer is None:
        return
    records = tracer.export()
    tracer.write_jsonl(path)
    traces = len({r["trace_id"] for r in records})
    print(f"wrote {len(records)} spans across {traces} traces to {path}")


def _ticked_handlers(dump, handlers):
    """Wrap the op handlers so every op boundary ticks the periodic dump.

    Periodic dumps piggyback on op boundaries: the stream is the clock
    (no background thread to leak into worker spawns).  Without an
    interval the handlers pass through untouched.
    """
    if not (dump.path and dump.interval):
        return handlers

    def ticked(fn):
        def wrapper(*handler_args):
            out = fn(*handler_args)
            dump.tick()
            return out

        return wrapper

    return [ticked(fn) for fn in handlers]


def _merged_pool_metrics(registry, pool):
    """Gather-side registry folded with every worker's (pool-level view).

    Safe only between op/run boundaries — the worker metrics round-trip
    shares the reply queue with batch results.
    """
    from .obs import MetricsRegistry

    merged = MetricsRegistry()
    if registry is not None:
        merged.merge(registry)
    merged.merge(pool.collect_metrics())
    return merged


def _print_latency_envelope(histogram) -> None:
    """The per-request latency line the mean-throughput figure hides."""
    env = histogram.percentiles()
    if not env["count"]:
        return
    print(
        f"request latency (n={env['count']}): "
        f"p50 {env['p50'] * 1e3:.3f} ms, "
        f"p95 {env['p95'] * 1e3:.3f} ms, "
        f"p99 {env['p99'] * 1e3:.3f} ms, "
        f"max {env['max'] * 1e3:.3f} ms"
    )


def _read_ops(args) -> Optional[List[str]]:
    if args.ops == "-":
        return sys.stdin.read().splitlines()
    try:
        with open(args.ops) as handle:
            return handle.read().splitlines()
    except OSError as exc:
        print(f"error: cannot read ops file: {exc}")
        return None


def _run_ops_stream(
    lines: List[str],
    default_k: int,
    flush,
    on_query,
    on_batch,
    on_rebuild,
) -> int:
    """Parse and dispatch the ``serve`` op grammar (shared by both modes).

    One operation per line (``#`` comments allowed): ``add u v [w]``,
    ``remove u v``, ``query n [k]``, ``batch n1,n2,... [k]``,
    ``rebuild``.  Consecutive updates are buffered and flushed as one
    batch when the next non-update operation (or end of stream)
    arrives.

    The serving mode plugs in behaviour via four handlers:
    ``flush(inserts, deletes, first_lineno)`` applies one buffered
    update batch and returns error text (or ``None``);
    ``on_query(node, k)`` / ``on_batch(queries, k)`` / ``on_rebuild()``
    serve one already-flushed operation.  Returns the process exit code.
    """
    from .exceptions import GraphError, NodeNotFoundError

    pending_inserts: List[tuple] = []
    pending_deletes: List[tuple] = []
    pending_lines: List[int] = []

    def do_flush() -> Optional[str]:
        if not pending_inserts and not pending_deletes:
            return None
        try:
            return flush(
                list(pending_inserts), list(pending_deletes), pending_lines[0]
            )
        finally:
            pending_inserts.clear()
            pending_deletes.clear()
            pending_lines.clear()

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        op, rest = parts[0], parts[1:]
        try:
            if op == "add" and len(rest) in (2, 3):
                u, v = int(rest[0]), int(rest[1])
                w = float(rest[2]) if len(rest) == 3 else 1.0
                pending_inserts.append((u, v, w))
                pending_lines.append(lineno)
            elif op == "remove" and len(rest) == 2:
                pending_deletes.append((int(rest[0]), int(rest[1])))
                pending_lines.append(lineno)
            elif (
                (op == "query" and len(rest) in (1, 2))
                or (op == "batch" and len(rest) in (1, 2))
                or (op == "rebuild" and not rest)
            ):
                error = do_flush()
                if error is not None:
                    print(f"error: {error}")
                    return 2
                if op == "query":
                    k = int(rest[1]) if len(rest) == 2 else default_k
                    on_query(int(rest[0]), k)
                elif op == "batch":
                    k = int(rest[1]) if len(rest) == 2 else default_k
                    queries = [
                        int(tok) for tok in rest[0].split(",") if tok.strip()
                    ]
                    on_batch(queries, k)
                else:
                    on_rebuild()
            else:
                print(f"error: line {lineno}: unrecognised operation {line!r}")
                return 2
        except (GraphError, NodeNotFoundError, ValueError) as exc:
            print(f"error: line {lineno}: {exc}")
            return 2
    error = do_flush()
    if error is not None:
        print(f"error: {error}")
        return 2
    return 0


def _cmd_serve(args) -> int:
    """The ``serve`` path: a mixed update/query stream through the engine."""
    import time

    from .core import DynamicKDash
    from .exceptions import GraphError
    from .query import QueryEngine, RebuildPolicy

    code = _reject_sharded_index(args.index, "serve")
    if code is not None:
        return code
    if args.port is not None:
        if args.ops:
            print("note: --port ignores --ops (requests arrive over TCP)")
        return _serve_frontdoor(args)
    if args.ops is None:
        print("error: serve needs --ops (op-stream mode) or --port (TCP front door)")
        return 2
    lines = _read_ops(args)
    if lines is None:
        return 2
    if args.sharded:
        ignored = []
        if args.workers:
            ignored.append("--workers (the pool runs one worker per shard)")
        if args.router != "rr":
            ignored.append("--router (routing is by home shard)")
        if args.cache_size != 1024:
            ignored.append("--cache-size (the answer cache keeps 1,024 answers)")
        if ignored:
            print("note: --sharded ignores " + "; ".join(ignored))
    if args.sharded or args.workers:
        return _serve_pool(args, lines)

    registry, tracer = _serve_telemetry(args)
    if tracer is not None:
        print(
            "note: --trace-jsonl needs --workers or --sharded "
            "(in-process serving emits no cross-process spans)"
        )
        tracer = None
    index = load_index(args.index)
    policy = RebuildPolicy(max_rank=args.max_rank, max_slowdown=args.max_slowdown)
    engine = QueryEngine(
        DynamicKDash.from_index(index, rebuild_threshold=None),
        cache_size=args.cache_size,
        rebuild_policy=policy,
        registry=registry,
    )
    graph = engine.dynamic.graph
    dump = _MetricsDump(
        args.metrics_json, args.metrics_interval, lambda: engine.metrics
    )

    def flush(inserts, deletes, first_line) -> Optional[str]:
        try:
            report = engine.apply_updates(inserts, deletes)
        except GraphError as exc:
            return f"line {first_line}: {exc}"
        tail = " -> rebuilt" if report.rebuilt else ""
        print(
            f"[epoch {engine.epoch}] applied batch: "
            f"+{report.n_inserted}/-{report.n_deleted} edges, "
            f"correction rank {report.pending_rank}{tail}"
        )
        return None

    def on_query(node: int, k: int) -> None:
        result = engine.top_k(node, k)
        stats = engine.last_stats
        path = "corrected" if stats.corrected else (
            "cached" if stats.cache_hits else "pruned"
        )
        top_node, top_p = result.items[0]
        print(
            f"query {node:>6d} top-{k}: {graph.label_of(top_node)} "
            f"{top_p:.8f}  [{path}, epoch {stats.epoch}, "
            f"rank {stats.pending_rank}]"
        )

    def on_batch(queries: List[int], k: int) -> None:
        engine.top_k_many(queries, k)
        stats = engine.last_stats
        path = "corrected" if stats.corrected else "pruned"
        print(
            f"batch of {stats.n_queries} queries: "
            f"{stats.queries_per_second:,.0f} q/s, "
            f"{stats.executed} scans, {stats.dedup_hits} deduped, "
            f"{stats.cache_hits} cache hits  [{path}]"
        )

    def on_rebuild() -> None:
        engine.rebuild()
        print(f"[epoch {engine.epoch}] forced rebuild (#{engine.stats.rebuilds})")

    t_start = time.perf_counter()
    code = _run_ops_stream(
        lines, args.k, *_ticked_handlers(dump, [flush, on_query, on_batch, on_rebuild])
    )
    if code != 0:
        return code
    total = time.perf_counter() - t_start

    agg = engine.stats
    print(
        f"served {agg.queries_served} queries / "
        f"{agg.updates_applied} edge updates in {total:.2f}s: "
        f"{agg.update_batches} update batches, {agg.invalidations} cache "
        f"invalidations, {agg.rebuilds} rebuilds, "
        f"{agg.corrected_queries} corrected scans, "
        f"hit rate {agg.hit_rate:.2f}"
    )
    _print_engine_stats(engine.stats.as_dict())
    dump.final()
    return 0


@contextlib.contextmanager
def _serving_tier(args, registry, tracer):
    """Publish ``args.index`` as snapshot epoch 0 and serve it from a pool.

    The one place the CLI builds the serving tier, for ``serve
    --workers``/``--sharded``/``--port`` and ``loadgen``: a single-writer
    publisher (re-sharding every snapshot under ``--sharded``), then a
    :class:`~repro.serving.sharded.ShardPool` with its
    :class:`~repro.serving.sharded.ShardedScheduler`, or a
    :class:`~repro.serving.replica.ReplicaPool` (``--workers``, default
    2) with a :class:`~repro.serving.scheduler.MicroBatchScheduler`.
    Yields ``(publisher, pool, scheduler)``; on exit the pool is closed
    and a default snapshot directory removed.
    """
    import tempfile

    from .core import DynamicKDash
    from .query import QueryEngine
    from .serving import (
        MicroBatchScheduler,
        ReplicaPool,
        ShardPool,
        ShardedScheduler,
        SnapshotPublisher,
        SnapshotStore,
    )

    publisher_engine = QueryEngine(
        DynamicKDash.from_index(load_index(args.index), rebuild_threshold=None)
    )
    shard_spec = (args.shards, args.partitioner) if args.sharded else None
    with tempfile.TemporaryDirectory(prefix="kdash-snapshots-") as default_dir:
        publisher = SnapshotPublisher(
            publisher_engine,
            SnapshotStore(args.snapshot_dir or default_dir),
            shard_spec=shard_spec,
            registry=registry,
        )
        snapshot = publisher.publish()
        if args.sharded:
            pool = ShardPool(snapshot)
        else:
            pool = ReplicaPool(snapshot, args.workers or 2, cache_size=args.cache_size)
        with pool:
            if args.sharded:
                scheduler = ShardedScheduler(
                    pool, batch_size=args.batch_size, registry=registry, tracer=tracer
                )
            else:
                scheduler = MicroBatchScheduler(
                    pool,
                    router=args.router,
                    batch_size=args.batch_size,
                    registry=registry,
                    tracer=tracer,
                )
            yield publisher, pool, scheduler


def _serve_pool(args, lines: List[str]) -> int:
    """``serve --workers N`` / ``serve --sharded``: the stream through a pool.

    Updates flow through the single-writer publisher (one snapshot per
    flushed batch, re-sharded under ``--sharded``, hot-swapped into
    every worker at a barrier); queries and batches are micro-batched
    and routed by the configured policy, or by home shard.  Answers stay
    bit-identical to single-process serving.
    """
    import time

    from .exceptions import GraphError

    registry, tracer = _serve_telemetry(args)
    sharded = args.sharded
    unit = "shard workers" if sharded else "workers"
    resharded = "re-sharded and " if sharded else ""

    with _serving_tier(args, registry, tracer) as (publisher, pool, scheduler):
        graph = publisher.engine.dynamic.graph
        if sharded:
            print(
                f"published sharded snapshot epoch {pool.snapshot.epoch} "
                f"({args.shards} shards, {args.partitioner}); started one "
                f"worker per shard (batch size {args.batch_size})"
            )
        else:
            print(
                f"published snapshot epoch {pool.snapshot.epoch}; started "
                f"{pool.n_workers} workers (router {args.router}, "
                f"batch size {args.batch_size})"
            )
        dump = _MetricsDump(
            args.metrics_json,
            args.metrics_interval,
            lambda: _merged_pool_metrics(registry, pool),
        )

        def tags() -> str:
            """The epoch, plus the shard plan's running fan-out and skip rate."""
            plan = (
                f", fan-out {scheduler.stats.mean_fan_out:.2f}, "
                f"skip rate {scheduler.stats.skip_rate:.2f}"
                if sharded
                else ""
            )
            return f"[epoch {pool.snapshot.epoch}{plan}]"

        def flush(inserts, deletes, first_line) -> Optional[str]:
            try:
                report, snap = publisher.apply_and_publish(inserts, deletes)
            except GraphError as exc:
                return f"line {first_line}: {exc}"
            scheduler.publish(snap)
            print(
                f"[epoch {snap.epoch}] published batch: "
                f"+{report.n_inserted}/-{report.n_deleted} edges, "
                f"{resharded}hot-swapped {pool.n_workers} {unit}"
            )
            return None

        def on_query(node: int, k: int) -> None:
            result = scheduler.run([node], k)[0]
            top_node, top_p = result.items[0]
            print(
                f"query {node:>6d} top-{k}: {graph.label_of(top_node)} "
                f"{top_p:.8f}  {tags()}"
            )

        def on_batch(queries: List[int], k: int) -> None:
            t0 = time.perf_counter()
            scheduler.run(queries, k)
            seconds = time.perf_counter() - t0
            print(
                f"batch of {len(queries)} queries: "
                f"{len(queries) / seconds:,.0f} q/s across "
                f"{pool.n_workers} {unit}  {tags()}"
            )

        def on_rebuild() -> None:
            publisher.engine.rebuild()
            snap = publisher.publish()
            scheduler.publish(snap)
            print(
                f"[epoch {snap.epoch}] forced rebuild "
                f"{resharded or 'published and '}hot-swapped"
            )

        t_start = time.perf_counter()
        code = _run_ops_stream(
            lines,
            args.k,
            *_ticked_handlers(dump, [flush, on_query, on_batch, on_rebuild]),
        )
        if code != 0:
            return code
        total = time.perf_counter() - t_start
        agg = scheduler.aggregate_stats(scheduler.collect_stats())
        summary = (
            f"skip rate {agg['skip_rate']:.2f}, "
            f"mean fan-out {agg['mean_fan_out']:.2f}"
            if sharded
            else f"hit rate {agg['hit_rate']:.2f}"
        )
        print(
            f"served {agg['queries_served']} queries in {total:.2f}s "
            f"across {pool.n_workers} {unit}: "
            f"{agg['snapshot_swaps']} snapshot swaps, {summary}, "
            f"routed {scheduler.routed_counts}"
        )
        _print_engine_stats(
            agg, header=f"final {'shard-' if sharded else ''}pool stats:"
        )
        _print_engine_stats(
            publisher.engine.stats.as_dict(), header="final publisher stats:"
        )
        if registry is not None:
            _print_latency_envelope(scheduler.latency)
        dump.final()
        _finish_trace(tracer, args.trace_jsonl)
    return 0


def _serve_frontdoor(args) -> int:
    """``serve --port``: the pool behind an asyncio TCP front door.

    Publishes the index as epoch 0, starts a replica pool (or shard
    pool with ``--sharded``), and serves framed-JSON requests with
    admission control, per-request deadlines, and backpressure until
    SIGTERM/SIGINT (graceful drain: admitted requests complete, new
    ones are answered ``draining``) or ``--serve-seconds`` elapses.
    """
    import signal
    import threading
    import time

    from .serving import FrontDoor

    registry, tracer = _serve_telemetry(args)
    with _serving_tier(args, registry, tracer) as (_, pool, scheduler):
        door = FrontDoor(
            scheduler,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            n_nodes=pool.n_nodes,
            default_k=args.k,
            registry=registry,
        )
        dump = _MetricsDump(
            args.metrics_json,
            args.metrics_interval,
            lambda: _merged_pool_metrics(registry, pool),
        )
        try:
            host, port = door.start()
            print(
                f"front door listening on {host}:{port} "
                f"(epoch {pool.snapshot.epoch}, {pool.n_workers} "
                f"{'shard ' if args.sharded else ''}workers, "
                f"max_inflight {args.max_inflight})",
                flush=True,
            )
            if args.port_file:
                with open(args.port_file, "w") as handle:
                    handle.write(f"{port}\n")

            stop_event = threading.Event()

            def _on_signal(signum, frame):
                print(f"\nsignal {signum}: draining front door", flush=True)
                stop_event.set()

            try:
                signal.signal(signal.SIGTERM, _on_signal)
                signal.signal(signal.SIGINT, _on_signal)
            except ValueError:
                pass  # not the main thread (tests drive --serve-seconds)

            if args.serve_seconds > 0:
                deadline = time.perf_counter() + args.serve_seconds
                while time.perf_counter() < deadline and not stop_event.is_set():
                    stop_event.wait(0.2)
                    dump.tick()
            else:
                while not stop_event.is_set():
                    stop_event.wait(0.5)
                    dump.tick()
            door.stop()  # graceful drain: admitted requests complete
            counts = door.counters()
            print(
                "front door counters: "
                + ", ".join(f"{key}={counts[key]}" for key in sorted(counts))
                + f" (reconciled: {door.reconciled()})"
            )
            _print_latency_envelope(door.latency)
            per_worker = scheduler.collect_stats()
            _print_engine_stats(
                scheduler.aggregate_stats(per_worker),
                header="final pool stats:",
            )
            dump.final()
            _finish_trace(tracer, args.trace_jsonl)
        finally:
            door.stop()
    return 0


def _cmd_loadgen(args) -> int:
    """The ``loadgen`` path: synthetic traffic through the serving tier.

    Default is the replica pool; ``--sharded`` drives the same workload
    through shard-owning workers instead (routing is then by home
    shard, so ``--router`` is ignored).  The scheduler always runs with
    a live metrics registry — the per-request latency envelope is the
    point of a load test.
    """
    import json

    from .obs import MetricsRegistry, Tracer
    from .serving import make_queries, run_load

    if args.connect:
        return _loadgen_connect(args)
    if not args.index:
        print(
            "error: loadgen needs --index (pool mode) or "
            "--connect HOST:PORT (front-door mode)"
        )
        return 2
    registry = MetricsRegistry()
    tracer = Tracer(sample_every=args.trace_sample) if args.trace_jsonl else None
    with _serving_tier(args, registry, tracer) as (publisher, pool, scheduler):
        n = pool.n_nodes
        if args.sharded:
            layout = f"{pool.n_workers} shard workers ({args.partitioner})"
        else:
            layout = f"{pool.n_workers} workers, router {args.router}"
        print(
            f"index: n={n:,} nodes; workload: {args.queries} {args.dist} "
            f"queries, k={args.k}, {layout}, batch size {args.batch_size}"
        )
        report = run_load(
            scheduler,
            make_queries(n, args.queries, args.dist, seed=args.seed),
            k=args.k,
            publisher=publisher if args.update_every else None,
            update_every=args.update_every,
            updates_per_batch=args.updates_per_batch,
            seed=args.seed,
            router_name="home" if args.sharded else args.router,
        )
        if args.metrics_json:
            from .obs import write_metrics_json

            write_metrics_json(
                _merged_pool_metrics(registry, pool), args.metrics_json
            )
            print(f"wrote metrics JSON to {args.metrics_json}")
    hit = (
        f"hit rate {report.pool_stats['hit_rate']:.2f}"
        if "hit_rate" in report.pool_stats
        else f"skip rate {report.pool_stats['skip_rate']:.2f}"
    )
    print(
        f"served {report.n_queries} queries in {report.seconds:.2f}s: "
        f"{report.queries_per_second:,.0f} q/s, {hit}, "
        f"routed {report.routed_counts}"
    )
    _print_latency_envelope(scheduler.latency)
    if report.update_batches:
        print(
            f"churn: {report.update_batches} update batches "
            f"({report.updates_applied} edges), "
            f"{report.snapshots_published} snapshots hot-swapped"
        )
    _print_engine_stats(report.pool_stats, header="final pool stats:")
    _finish_trace(tracer, args.trace_jsonl)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.as_dict(), handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def _loadgen_connect(args) -> int:
    """``loadgen --connect``: open-loop Poisson traffic at a front door.

    Unlike pool mode (closed-loop: the driver waits for the pool, so
    the system is never overloaded), connect mode offers load at a
    fixed rate regardless of completions — the only way to observe the
    admission controller and deadline machinery shed load.  ``--sweep``
    runs one open-loop burst per offered rate: the saturation curve.
    """
    import json

    from .exceptions import ServingError
    from .serving import (
        FrontDoorClient,
        make_queries,
        run_open_loop,
        saturation_sweep,
    )

    host, _, port_str = args.connect.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port_str)
    except ValueError:
        print(f"error: --connect expects HOST:PORT, got {args.connect!r}")
        return 2
    try:
        with FrontDoorClient(host, port, timeout=10.0) as probe:
            info = probe.info()
    except (OSError, ServingError) as exc:
        print(f"error: cannot reach front door at {host}:{port}: {exc}")
        return 2
    n_nodes = info.get("n_nodes")
    if not n_nodes:
        print(
            f"error: front door at {host}:{port} did not report n_nodes; "
            "cannot synthesise a query stream"
        )
        return 2
    print(
        f"front door at {host}:{port}: tier {info.get('tier')}, "
        f"epoch {info.get('epoch')}, n={n_nodes:,} nodes, "
        f"max_inflight {info.get('max_inflight')}"
    )

    if args.sweep:
        rates = sorted(
            float(token) for token in args.sweep.split(",") if token.strip()
        )
        reports = saturation_sweep(
            host,
            port,
            n_nodes,
            rates,
            queries_per_rate=args.queries,
            k=args.k,
            dist=args.dist,
            timeout_ms=args.timeout_ms,
            seed=args.seed,
        )
        _print_saturation_table(reports)
        payload: dict = {
            "mode": "saturation_sweep",
            "connect": f"{host}:{port}",
            "sweep": [report.as_dict() for report in reports],
        }
        failed = [r for r in reports if not r.reconciled]
    else:
        queries = make_queries(n_nodes, args.queries, args.dist, seed=args.seed)
        report = run_open_loop(
            host,
            port,
            queries,
            k=args.k,
            rate=args.rate,
            timeout_ms=args.timeout_ms,
            seed=args.seed,
        )
        _print_saturation_table([report])
        payload = {
            "mode": "open_loop",
            "connect": f"{host}:{port}",
            **report.as_dict(),
        }
        failed = [] if report.reconciled else [report]
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if failed:
        print(
            f"error: {len(failed)} run(s) did not reconcile "
            "(offered != terminal responses) — see transport_errors"
        )
        return 1
    return 0


def _print_saturation_table(reports) -> None:
    """Offered vs achieved vs tail vs shed — the saturation curve rows."""
    print(
        f"{'offered q/s':>12} {'achieved q/s':>13} {'ok':>6} {'rej':>6} "
        f"{'expired':>8} {'p50 ms':>9} {'p95 ms':>9} {'p99 ms':>9}"
    )
    for report in reports:
        latency = report.latency or {}
        expired = report.statuses.get("deadline_exceeded", 0)
        rejected = report.statuses.get("rejected", 0) + report.statuses.get(
            "draining", 0
        )

        def _ms(key):
            return f"{latency[key] * 1e3:9.3f}" if key in latency else f"{'—':>9}"

        print(
            f"{report.rate_offered:>12.0f} {report.achieved_qps:>13.0f} "
            f"{report.n_ok:>6d} {rejected:>6d} {expired:>8d} "
            f"{_ms('p50')} {_ms('p95')} {_ms('p99')}"
        )


def _cmd_metrics(args) -> int:
    """The ``metrics`` path: render a metrics JSON artifact for humans
    (table) or scrapers (Prometheus text exposition format).

    A reader that closes the pipe early (``repro metrics … | head``) is
    a normal end: exit 0, nothing on stderr.
    """
    from .obs import MetricsRegistry, read_metrics_json

    try:
        payload = read_metrics_json(args.input)
        registry = MetricsRegistry.from_snapshot(payload["metrics"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot read metrics file {args.input!r}: {exc}")
        return 2
    try:
        _print_metrics(payload, registry, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit: send that to
        # /dev/null instead of raising a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _print_metrics(payload: dict, registry, fmt: str) -> None:
    """Print ``registry`` as a table (with ``payload``'s metadata) or
    as Prometheus text."""
    import json

    from .obs import to_prometheus

    if fmt == "prometheus":
        print(to_prometheus(registry), end="")
        return
    meta = {k: v for k, v in payload.items() if k != "metrics"}
    if meta:
        print(f"metadata: {json.dumps(meta, sort_keys=True)}")
    counters, gauges, histograms = (
        registry.counters(),
        registry.gauges(),
        registry.histograms(),
    )
    if counters:
        print("counters:")
        for c in counters:
            print(f"  {c.name:55s} {c.value:,.0f}")
    if gauges:
        print("gauges:")
        for g in gauges:
            print(f"  {g.name:55s} {g.value:g}")
    if histograms:
        print("histograms (seconds unless the name says otherwise):")
        for h in histograms:
            env = h.percentiles()
            print(
                f"  {h.name:55s} n={env['count']:<8d} "
                f"p50={env['p50']:.6f} p95={env['p95']:.6f} "
                f"p99={env['p99']:.6f} max={env['max']:.6f}"
            )
    if not (counters or gauges or histograms):
        print("(empty registry)")


def _cmd_experiment(args) -> int:
    from .eval import experiments
    from .eval.harness import ExperimentContext

    module = {
        "fig2": experiments.fig2_efficiency,
        "fig3": experiments.fig3_precision,
        "fig4": experiments.fig4_tradeoff,
        "fig5": experiments.fig5_nnz,
        "fig6": experiments.fig6_precompute,
        "fig7": experiments.fig7_pruning,
        "fig9": experiments.fig9_root_selection,
        "table2": experiments.table2_case_study,
        "restart_sweep": experiments.restart_sweep,
    }[args.name]
    ctx = ExperimentContext(scale=args.scale)
    result = module.run(ctx)
    tables = result if isinstance(result, list) else [result]
    for table in tables:
        print(table.render())
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="K-dash reproduction command-line interface"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared by every scan-executing subcommand.  The choice is exported
    # as $REPRO_KERNEL_BACKEND before any index is loaded, so spawned
    # workers (replica pool, shard pool) inherit it too.
    backend_parent = argparse.ArgumentParser(add_help=False)
    backend_parent.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="kernel backend for the pruned scans (default: "
        f"${_BACKEND_ENV_VAR} if set, else {DEFAULT_BACKEND!r}); all "
        "backends are bit-identical",
    )

    # Shared by serve and loadgen: the observability surface.
    telemetry_parent = argparse.ArgumentParser(add_help=False)
    telemetry_parent.add_argument(
        "--metrics-json",
        help="write the merged metrics registry (gather side + workers) "
        "here as sorted-key JSON",
    )
    telemetry_parent.add_argument(
        "--metrics-interval",
        type=float,
        default=0.0,
        help="re-dump --metrics-json every this many seconds while the "
        "stream runs (0 = final dump only)",
    )
    telemetry_parent.add_argument(
        "--trace-jsonl",
        help="write sampled per-query trace spans here as JSONL "
        "(pool modes only)",
    )
    telemetry_parent.add_argument(
        "--trace-sample",
        type=int,
        default=1,
        help="trace 1 in N submitted queries (default: every query)",
    )

    p_stats = sub.add_parser("stats", help="summarise a synthetic dataset")
    p_stats.add_argument("--dataset", required=True, choices=DATASET_NAMES)
    p_stats.add_argument("--scale", type=float, default=1.0)
    p_stats.set_defaults(func=_cmd_stats)

    p_build = sub.add_parser(
        "build",
        help="build and save a K-dash index",
        parents=[backend_parent],
    )
    source = p_build.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", choices=DATASET_NAMES)
    source.add_argument("--edge-list", help="path to a 'u v [w]' edge list")
    p_build.add_argument("--scale", type=float, default=1.0)
    p_build.add_argument("--c", type=float, default=0.95)
    p_build.add_argument(
        "--reordering",
        default="hybrid",
        choices=("hybrid", "degree", "cluster", "random", "identity", "rcm"),
    )
    p_build.add_argument(
        "--shards",
        type=int,
        default=0,
        help="split the built index into this many shards and save a "
        "format-v6 manifest (0 = single v4 archive)",
    )
    p_build.add_argument(
        "--partitioner",
        default="louvain",
        choices=("louvain", "range"),
        help="node->shard assignment: Louvain communities or contiguous "
        "id ranges",
    )
    p_build.add_argument("--output", required=True)
    p_build.set_defaults(func=_cmd_build)

    p_query = sub.add_parser(
        "query",
        help="query a saved index",
        parents=[backend_parent],
    )
    p_query.add_argument("--index", required=True)
    target = p_query.add_mutually_exclusive_group(required=True)
    target.add_argument("--node", type=int, help="single query node")
    target.add_argument(
        "--batch",
        help="comma-separated query node ids, served via the QueryEngine",
    )
    p_query.add_argument("--k", type=int, default=5)
    p_query.set_defaults(func=_cmd_query)

    p_update = sub.add_parser(
        "update",
        help="apply exact edge updates to a saved index",
        parents=[backend_parent],
    )
    p_update.add_argument("--index", required=True)
    p_update.add_argument(
        "--add", help="comma-separated u:v[:w] edge insertions (weight defaults to 1)"
    )
    p_update.add_argument("--remove", help="comma-separated u:v edge deletions")
    p_update.add_argument(
        "--node", type=int, help="run a verification top-k query after the batch"
    )
    p_update.add_argument("--k", type=int, default=5)
    p_update.add_argument(
        "--output",
        help="rebuild after the batch and save the fresh index here",
    )
    p_update.set_defaults(func=_cmd_update)

    p_serve = sub.add_parser(
        "serve",
        help="run a mixed update/query stream against a saved index",
        parents=[backend_parent, telemetry_parent],
    )
    p_serve.add_argument("--index", required=True)
    p_serve.add_argument(
        "--ops",
        help="operations file ('-' for stdin): add/remove/query/batch/rebuild "
        "lines (required unless --port serves over TCP instead)",
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="serve framed-JSON requests over TCP on this port instead of "
        "an ops file (0 = ephemeral; see --port-file); runs until "
        "SIGTERM/SIGINT with a graceful drain",
    )
    p_serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for --port (default: loopback)",
    )
    p_serve.add_argument(
        "--port-file",
        help="write the bound port here once listening (for --port 0)",
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=256,
        help="front-door admission bound: requests beyond this many "
        "in flight are answered 'rejected' and the connection is "
        "backpressured",
    )
    p_serve.add_argument(
        "--serve-seconds",
        type=float,
        default=0.0,
        help="with --port: stop (with drain) after this many seconds "
        "(0 = run until signalled)",
    )
    p_serve.add_argument("--k", type=int, default=5, help="default k for query lines")
    p_serve.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="answer-cache entries: the engine's LRU when serving "
        "in-process; with --workers or --port, the scheduler's gather-side "
        "cache (the workers keep none); 0 keeps none.  --sharded always "
        "keeps 1,024",
    )
    p_serve.add_argument(
        "--max-rank",
        type=int,
        default=64,
        help="rebuild once the correction rank reaches this (policy trigger)",
    )
    p_serve.add_argument(
        "--max-slowdown",
        type=float,
        default=None,
        help="rebuild once corrected queries are this many times slower than clean ones",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="serve through a replica pool of this many worker processes "
        "(0 = in-process serving)",
    )
    p_serve.add_argument(
        "--router",
        default="rr",
        choices=("rr", "hash"),
        help="pool request routing: round-robin load spread or "
        "consistent-hash root affinity",
    )
    p_serve.add_argument(
        "--batch-size",
        type=int,
        default=32,
        help="micro-batch flush threshold per worker (pool mode)",
    )
    p_serve.add_argument(
        "--snapshot-dir",
        help="directory for published snapshots (default: a temp dir)",
    )
    p_serve.add_argument(
        "--sharded",
        action="store_true",
        help="serve through shard-owning workers (one process per shard) "
        "with scatter-gather planning instead of full replicas",
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        default=2,
        help="shard count for --sharded serving",
    )
    p_serve.add_argument(
        "--partitioner",
        default="louvain",
        choices=("louvain", "range"),
        help="node->shard assignment for --sharded serving",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_load = sub.add_parser(
        "loadgen",
        help="drive synthetic traffic through the serving tier",
        parents=[backend_parent, telemetry_parent],
    )
    p_load.add_argument(
        "--index",
        help="index archive for pool mode (omit with --connect)",
    )
    p_load.add_argument(
        "--connect",
        help="HOST:PORT of a running front door (`serve --port`): drive it "
        "open-loop over TCP instead of spawning a local pool",
    )
    p_load.add_argument(
        "--rate",
        type=float,
        default=200.0,
        help="offered load in requests/second for --connect "
        "(Poisson arrivals, honoured regardless of completions)",
    )
    p_load.add_argument(
        "--sweep",
        help="comma-separated offered rates: one open-loop run per rate, "
        "printed as a saturation table (--connect only)",
    )
    p_load.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        help="per-request deadline for --connect requests (expired ones "
        "are answered 'deadline_exceeded')",
    )
    p_load.add_argument("--workers", type=int, default=2)
    p_load.add_argument("--router", default="rr", choices=("rr", "hash"))
    p_load.add_argument("--batch-size", type=int, default=32)
    p_load.add_argument("--queries", type=int, default=1000)
    p_load.add_argument("--dist", default="zipf", choices=("zipf", "uniform"))
    p_load.add_argument("--k", type=int, default=10)
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="entries of the scheduler's gather-side answer cache in pool "
        "mode (the workers keep none; a --connect run uses the server's "
        "own); 0 keeps none.  --sharded always keeps 1,024",
    )
    p_load.add_argument(
        "--update-every",
        type=int,
        default=0,
        help="publish one update batch + snapshot hot-swap every this many "
        "queries (0 = read-only workload)",
    )
    p_load.add_argument(
        "--updates-per-batch",
        type=int,
        default=4,
        help="edge updates per published batch",
    )
    p_load.add_argument("--snapshot-dir", help="snapshot directory (default: temp)")
    p_load.add_argument("--json", help="write the loadgen report here as JSON")
    p_load.add_argument(
        "--sharded",
        action="store_true",
        help="drive shard-owning workers (one process per shard, "
        "scatter-gather planning) instead of full replicas",
    )
    p_load.add_argument(
        "--shards",
        type=int,
        default=2,
        help="shard count for --sharded load generation",
    )
    p_load.add_argument(
        "--partitioner",
        default="louvain",
        choices=("louvain", "range"),
        help="node->shard assignment for --sharded load generation",
    )
    p_load.set_defaults(func=_cmd_loadgen)

    p_metrics = sub.add_parser(
        "metrics",
        help="render a metrics JSON artifact (table or Prometheus text)",
    )
    p_metrics.add_argument(
        "--input", required=True, help="metrics JSON file from --metrics-json"
    )
    p_metrics.add_argument(
        "--format",
        default="table",
        choices=("table", "prometheus"),
        help="human-readable table or Prometheus text exposition format",
    )
    p_metrics.set_defaults(func=_cmd_metrics)

    p_exp = sub.add_parser(
        "experiment", help="run one paper experiment", parents=[backend_parent]
    )
    p_exp.add_argument("--name", required=True, choices=_EXPERIMENTS)
    p_exp.add_argument("--scale", type=float, default=1.0)
    p_exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "backend", None):
        # Exported (not just threaded through) so pool workers spawned
        # by `serve --workers` / `loadgen` inherit the same kernel.
        os.environ[_BACKEND_ENV_VAR] = args.backend
    try:
        return args.func(args)
    except (SerializationError, NodeNotFoundError, InvalidParameterError) as exc:
        # An unreadable or unwritable archive, or a bad node id or k.
        # args[0] is the message without the quotes str() of a KeyError adds.
        print(f"error: {exc.args[0] if exc.args else exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
