"""Server process of the serving benchmark.

Builds the index from the generated edge list and serves it exactly as
``repro serve --port`` does: the serve defaults come from the program's
own argument parser, and the publisher, pool, scheduler and front door
are constructed the same way.  The parent benchmark process talks to it
over stdin/stdout, one JSON object per line: the first line out is the
``ready`` record with the set-up timings, then every command line in
gets one reply line out.

With ``"trace": true`` in the config, timing proxies wrap the scheduler
handed to the front door and the pool handed to the scheduler, and the
scheduler gets a tracer through its public ``tracer=`` argument.  All of
it stays off until a ``record`` command switches it on, so one server
measures both the untraced and the traced phase.

Run as ``python3 servebench/server.py CONFIG.json``; the benchmark
writes the config and starts it.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.cli import build_parser  # noqa: E402
from repro.core import DynamicKDash, KDash, save_index  # noqa: E402
from repro.graph import read_edge_list  # noqa: E402
from repro.obs import Tracer  # noqa: E402
from repro.query import QueryEngine  # noqa: E402
from repro.query.approx import PrecisionPolicy  # noqa: E402
from repro.query.backends import resolve_backend_name  # noqa: E402
from repro.serving import (  # noqa: E402
    FrontDoor,
    MicroBatchScheduler,
    ReplicaPool,
    ShardPool,
    ShardedScheduler,
    Snapshot,
    SnapshotPublisher,
    SnapshotStore,
)

#: Reply kinds that carry one micro-batch's answers.
_BATCH_REPLIES = ("results", "partial", "candidates")


class PoolProxy:
    """Times every pool call the scheduler makes, from the gather side.

    Per answered micro-batch it keeps the submit-to-receive round trip,
    the worker's own span time for the batch (``worker.*`` spans) and the
    ``kernel.scan`` span time inside it.
    """

    def __init__(self, pool) -> None:
        self._pool = pool
        self.recording = False
        self.calls = []  # (t0, t1) of every submit/recv while recording
        self.batch_rows = []  # (round_trip_s, worker_s, scan_s, size)
        self._sent = {}
        self.broadcast_t = None
        self.last_ack_t = None

    def __getattr__(self, name):
        return getattr(self._pool, name)

    def _timed_submit(self, fn, worker_id, batch_id, requests, ctxs):
        if not self.recording:
            return fn(worker_id, batch_id, requests, ctxs=ctxs)
        t0 = perf_counter()
        fn(worker_id, batch_id, requests, ctxs=ctxs)
        t1 = perf_counter()
        self.calls.append((t0, t1))
        self._sent[batch_id] = (t0, len(requests))

    def submit(self, worker_id, batch_id, requests, ctxs=None):
        self._timed_submit(self._pool.submit, worker_id, batch_id, requests, ctxs)

    def submit_home(self, worker_id, batch_id, requests, ctxs=None):
        self._timed_submit(
            self._pool.submit_home, worker_id, batch_id, requests, ctxs
        )

    def submit_remote(self, worker_id, batch_id, requests, ctxs=None):
        self._timed_submit(
            self._pool.submit_remote, worker_id, batch_id, requests, ctxs
        )

    def recv(self, timeout=None):
        t0 = perf_counter()
        message = self._pool.recv(timeout)
        t1 = perf_counter()
        if message[0] == "swapped":
            self.last_ack_t = t1
        if self.recording:
            self.calls.append((t0, t1))
            sent = (
                self._sent.pop(message[2], None)
                if message[0] in _BATCH_REPLIES
                else None
            )
            if sent is not None:
                spans = message[4] if len(message) > 4 else ()
                worker_s = sum(
                    s["seconds"] for s in spans if s["name"].startswith("worker.")
                )
                scan_s = sum(
                    s["seconds"] for s in spans if s["name"] == "kernel.scan"
                )
                self.batch_rows.append((t1 - sent[0], worker_s, scan_s, sent[1]))
        return message

    def broadcast_swap(self, snapshot):
        self.broadcast_t = perf_counter()
        return self._pool.broadcast_swap(snapshot)


class SchedulerProxy:
    """Times the scheduler calls the front door's dispatch thread makes.

    ``submits`` holds one ``(t0, t1)`` per submitted request, in
    submission order; ``waves`` one ``(n_requests, drain_t0, drain_t1,
    take_t0, take_t1)`` per served wave (a wave's requests are the last
    ``n_requests`` submits before its ``take_results``).
    """

    def __init__(self, scheduler, pool_proxy: PoolProxy) -> None:
        self._scheduler = scheduler
        self._pool_proxy = pool_proxy
        self.recording = False
        self.submits = []
        self.waves = []
        self.publishes = []  # (t0, broadcast_t, last_ack_t, t1)
        self._drain = (0.0, 0.0)

    def __getattr__(self, name):
        return getattr(self._scheduler, name)

    def submit(self, query, k=5, precision=None):
        if not self.recording:
            return self._scheduler.submit(query, k, precision=precision)
        t0 = perf_counter()
        seq = self._scheduler.submit(query, k, precision=precision)
        self.submits.append((t0, perf_counter()))
        return seq

    def drain(self):
        t0 = perf_counter()
        self._scheduler.drain()
        self._drain = (t0, perf_counter())

    def take_results(self, seqs):
        t0 = perf_counter()
        results = self._scheduler.take_results(seqs)
        if self.recording:
            self.waves.append((len(seqs), *self._drain, t0, perf_counter()))
        return results

    def publish(self, snapshot):
        t0 = perf_counter()
        self._scheduler.publish(snapshot)
        self.publishes.append(
            (t0, self._pool_proxy.broadcast_t, self._pool_proxy.last_ack_t, perf_counter())
        )


def _reply(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _snapshot_bytes(path: str) -> int:
    """Bytes of one snapshot: the archive plus any per-shard payloads."""
    directory, name = os.path.split(path)
    stem = name[:-4]
    return sum(
        os.path.getsize(os.path.join(directory, f))
        for f in os.listdir(directory)
        if f == name or (f.startswith(stem + ".shard") and f.endswith(".npz"))
    )


class BenchServer:
    def __init__(self, config: dict) -> None:
        self.config = config
        self.trace = bool(config["trace"])
        sharded = bool(config["sharded"])
        parser = build_parser()
        build_args = parser.parse_args(
            ["build", "--edge-list", config["edge_list"], "--output", "unused"]
        )
        serve_args = parser.parse_args(
            ["serve", "--index", "unused", "--port", "0",
             "--snapshot-dir", config["snapshot_dir"]]
            + (["--sharded"] if sharded else [])
        )
        self.serve_args = serve_args
        graph = read_edge_list(config["edge_list"])
        self.tracer = None
        if self.trace:
            self.tracer = Tracer(sample_every=1)
            self.tracer.enabled = False

        # --- set-up, timed from the start of KDash.build -----------------
        self.t_build_start = perf_counter()
        index = KDash(graph, c=build_args.c, reordering=build_args.reordering).build()
        t_built = perf_counter()
        # From here on this mirrors `repro serve --port` (cli._serve_frontdoor).
        publisher_engine = QueryEngine(
            DynamicKDash.from_index(index, rebuild_threshold=None)
        )
        shard_spec = (
            (serve_args.shards, serve_args.partitioner) if serve_args.sharded else None
        )
        self.store = SnapshotStore(serve_args.snapshot_dir)
        self.publisher = SnapshotPublisher(
            publisher_engine, self.store, shard_spec=shard_spec
        )
        self.snapshot = self.publisher.publish()
        t_published = perf_counter()
        if serve_args.sharded:
            pool = ShardPool(self.snapshot)
        else:
            pool = ReplicaPool(
                self.snapshot, serve_args.workers or 2, cache_size=serve_args.cache_size
            )
        t_pool = perf_counter()
        self.pool = pool
        self.pool_proxy = PoolProxy(pool) if self.trace else None
        handed_pool = self.pool_proxy or pool
        if serve_args.sharded:
            scheduler = ShardedScheduler(
                handed_pool, batch_size=serve_args.batch_size, tracer=self.tracer
            )
        else:
            scheduler = MicroBatchScheduler(
                handed_pool,
                router=serve_args.router,
                batch_size=serve_args.batch_size,
                tracer=self.tracer,
            )
        self.scheduler = scheduler
        self.sched_proxy = (
            SchedulerProxy(scheduler, self.pool_proxy) if self.trace else None
        )
        self.door = FrontDoor(
            self.sched_proxy or scheduler,
            host=serve_args.host,
            port=serve_args.port,
            max_inflight=serve_args.max_inflight,
            n_nodes=graph.n_nodes,
            default_k=serve_args.k,
        )
        host, port = self.door.start()
        t_bound = perf_counter()

        self.prepared = []
        self.swaps = []
        self._churn_stop = threading.Event()
        self._churn_thread = None
        _reply(
            {
                "event": "ready",
                "pid": os.getpid(),
                "host": host,
                "port": port,
                "t_build_start": self.t_build_start,
                "t_bound": t_bound,
                "build_s": t_built - self.t_build_start,
                "publish_s": t_published - t_built,
                "pool_boot_s": t_pool - t_published,
                "n_nodes": graph.n_nodes,
                "n_edges": graph.n_edges,
                "n_workers": pool.n_workers,
                "snapshot": [self.snapshot.epoch, self.snapshot.path],
                "snapshot_bytes": _snapshot_bytes(self.snapshot.path),
                "backend": resolve_backend_name(),
                "precision": PrecisionPolicy.resolve(None).spec,
                "serve_defaults": {
                    "router": serve_args.router,
                    "batch_size": serve_args.batch_size,
                    "cache_size": serve_args.cache_size,
                    "max_inflight": serve_args.max_inflight,
                    "workers": pool.n_workers,
                    "sharded": serve_args.sharded,
                    "shards": serve_args.shards if serve_args.sharded else None,
                    "partitioner": serve_args.partitioner
                    if serve_args.sharded
                    else None,
                },
            }
        )

    # ------------------------------------------------------------------
    def _publish(self, path: str) -> None:
        """Hot-swap to ``path`` under the next epoch; records the duration."""
        epoch = self.scheduler.pool.snapshot.epoch + 1
        t0 = perf_counter()
        self.door.publish(Snapshot(epoch=epoch, path=path))
        self.swaps.append((epoch, path, perf_counter() - t0))

    def _churn_loop(self, interval: float) -> None:
        """Publish at interval/2, then every interval, until stopped."""
        i = 0
        wait = interval / 2
        while not self._churn_stop.wait(wait):
            self._publish(self.prepared[i % len(self.prepared)][1])
            i += 1
            wait = interval

    def handle(self, command: dict):
        cmd = command["cmd"]
        if cmd == "prepare":
            # Off the clock: the churn snapshots (each publish compacts
            # with a full rebuild) and, for a sharded store, a v2 archive
            # of the same index for the in-process reference engine.
            t0 = perf_counter()
            for inserts, deletes in command.get("updates", ()):
                _, snap = self.publisher.apply_and_publish(
                    [tuple(e) for e in inserts], [tuple(e) for e in deletes]
                )
                self.prepared.append((snap.epoch, snap.path))
            reference = self.snapshot.path
            if self.serve_args.sharded:
                reference = os.path.join(self.config["work_dir"], "reference.npz")
                save_index(self.publisher.engine.index, reference)
            return {
                "prepared": self.prepared,
                "reference": reference,
                "seconds": perf_counter() - t0,
            }
        if cmd == "churn":
            self._churn_stop.clear()
            self._churn_thread = threading.Thread(
                target=self._churn_loop, args=(float(command["interval"]),),
                name="bench-churn", daemon=True,
            )
            self._churn_thread.start()
            return {"ok": True}
        if cmd == "churn_stop":
            self._churn_stop.set()
            self._churn_thread.join()
            return {"swaps": self.swaps}
        if cmd == "swap_idle":
            for _ in range(int(command["count"])):
                self._publish(self.scheduler.pool.snapshot.path)
            return {"swaps": self.swaps}
        if cmd == "record":
            # Switched while the door is idle; the pool-level counters at
            # each switch bound the traced phase.
            on = bool(command["on"])
            self.tracer.enabled = on
            self.sched_proxy.recording = on
            self.pool_proxy.recording = on
            per_worker = self.scheduler.collect_stats()
            return {"stats": self.scheduler.aggregate_stats(per_worker)}
        if cmd == "report":
            return self._report()
        if cmd == "stop":
            self.door.stop()
            counts = self.door.counters()
            reconciled = self.door.reconciled()
            self.pool.close()
            return {"counters": counts, "reconciled": reconciled, "stopped": True}
        return {"error": f"unknown command {cmd!r}"}

    def _report(self) -> dict:
        """Recorded layer timings plus pool-level engine/plan counters.

        Only valid while the door is idle: the stats round trip shares
        the pool's reply queue with batch results.
        """
        per_worker = self.scheduler.collect_stats()
        stats = self.scheduler.aggregate_stats(per_worker)
        report = {"stats": stats, "swaps": self.swaps}
        if self.trace:
            report.update(
                submits=self.sched_proxy.submits,
                waves=self.sched_proxy.waves,
                publishes=self.sched_proxy.publishes,
                pool_calls=self.pool_proxy.calls,
                batches=self.pool_proxy.batch_rows,
            )
        return report


def main() -> int:
    with open(sys.argv[1]) as handle:
        config = json.load(handle)
    server = BenchServer(config)
    try:
        for line in sys.stdin:
            if not line.strip():
                continue
            reply = server.handle(json.loads(line))
            _reply(reply)
            if reply.get("stopped"):
                return 0
    finally:
        server.door.stop(drain=False)
        server.pool.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
