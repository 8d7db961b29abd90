#!/usr/bin/env python3
"""Serving benchmark: named workloads through the TCP front door.

Usage (from the repository root)::

    python3 servebench/run.py --workload replica-zipf --seed 1 --seconds 20 --trace 0

One run generates the workload's inputs from ``--seed``, then starts the
server (``servebench/server.py``: build, first snapshot publish, pool,
front door, exactly as ``repro serve --port`` builds them) several times
in fresh processes, timing each set-up to its first ``ok`` answer.  The
last server is driven over one connection: an open-loop Poisson phase
(latency timed from each request's scheduled send), then a closed-loop
phase with 64 requests pipelined (capacity).

- ``--trace 0`` prints the end-to-end metrics: set-up time, server CPU
  per answered request in the open loop, the share of requests answered
  ``ok`` and correct, and the server's memory.
- ``--trace 1`` runs the open-loop traffic twice, untraced then traced
  (timing proxies around the scheduler and pool, worker spans through the
  scheduler's ``tracer=``), adds in-process replays of the kernel, the
  engine and snapshot loading, and prints the per-layer metrics.  These
  include the wall-clock figures (``e2e.*``: latency percentiles,
  capacity, swap time), which a shared 2-vCPU host moves by up to 2x with
  its neighbours' load, too much to gate on.  Trace-0 runs print them as
  text.

Every ``ok`` answer is checked bit for bit against an in-process
``QueryEngine`` over the same snapshot (per reported epoch) after the
timed window.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a wrong answer
also makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".servebench_work")

#: Environment variables that would change what the server computes;
#: removed so every run serves the program's defaults.
PINNED_ENV = ("REPRO_KERNEL_BACKEND", "REPRO_PRECISION")

#: Whole-run watchdog (seconds): a hung server must not hang the run.
RUN_DEADLINE = 170

#: An open-loop phase whose sender lag p99 exceeds this (ms) no longer
#: offers the Poisson schedule it claims: the generator fell behind, and
#: the run is invalid.  At the workloads' rates, host stalls alone keep
#: the lag p99 at a few milliseconds.
LAG_LIMIT_MS = 25.0

#: Idle re-publishes timed after the window on workloads without churn.
IDLE_SWAPS = 11

#: Width (seconds) of the closed-loop windows whose median count gives
#: the capacity figure.
CAPACITY_WINDOW = 0.5

#: End-to-end metrics (trace 0), with units.
E2E_UNITS = {
    "setup_s": "s",
    "cpu_ms_per_req": "ms",
    "ok_frac": "ratio",
    "pss_mb": "MB",
}

#: Per-layer metrics (trace 1), with units.
LAYER_UNITS = {
    "frontdoor.queue_wait_ms.p50": "ms",
    "frontdoor.queue_wait_ms.p99": "ms",
    "frontdoor.self_ms.p50": "ms",
    "frontdoor.wave_size.mean": "count",
    "scheduler.submit_us.p50": "us",
    "scheduler.drain_ms.p50": "ms",
    "scheduler.drain_ms.p99": "ms",
    "scheduler.batch_fill.mean": "count",
    "scheduler.rounds_per_query": "count",
    "scheduler.shard_skip_rate": "ratio",
    "pool.ipc_ms.p50": "ms",
    "pool.worker_busy_frac": "ratio",
    "engine.hit_rate": "ratio",
    "engine.scans_per_query": "count",
    "engine.overhead_us.p50": "us",
    "kernel.scan_us.p50": "us",
    "kernel.shard_scan_us.p50": "us",
    "kernel.computed_per_query": "count",
    "kernel.visited_per_query": "count",
    "kernel.pool_share": "ratio",
    "kernel.latency_share": "ratio",
    "snapshot.load_ms": "ms",
    "snapshot.bytes": "bytes",
    "swap.barrier_ms": "ms",
    "swap.reload_ms": "ms",
    "swap.count_per_publish": "count",
    "setup.build_s": "s",
    "setup.publish_s": "s",
    "setup.pool_boot_s": "s",
    "setup.first_answer_ms": "ms",
    "mem.door_pss_mb": "MB",
    "mem.worker_pss_mb": "MB",
    "loadgen.sender_lag_ms.p99": "ms",
    "loadgen.client_cpu_frac": "ratio",
    "layer.loadgen_ms.mean": "ms",
    "layer.frontdoor_ms.mean": "ms",
    "layer.scheduler_ms.mean": "ms",
    "layer.pool_ms.mean": "ms",
    "reconcile.e2e_ms.mean": "ms",
    "reconcile.residual_frac": "ratio",
    "trace.overhead_ms": "ms",
    "e2e.p50_ms": "ms",
    "e2e.p90_ms": "ms",
    "e2e.p99_ms": "ms",
    "e2e.capacity_qps": "1/s",
    "e2e.swap_ms": "ms",
}


class InvalidRun(Exception):
    """The run measured its own generator, not the server."""


class ServerProcess:
    """One benchmark server process and its JSON-lines control channel."""

    def __init__(self, config: dict, work: str, env: dict) -> None:
        path = os.path.join(work, f"server-{config['index']}.json")
        with open(path, "w") as handle:
            json.dump(config, handle)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"), path],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=env,
        )
        self.ready = self._read()

    def _read(self) -> dict:
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited with code {self.proc.wait()} before replying"
                )
            if line.startswith("{"):
                reply = json.loads(line)
                if "error" in reply:
                    raise RuntimeError(f"server: {reply['error']}")
                return reply

    def call(self, **command) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        reply = self.call(cmd="stop")
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        return reply

    def kill(self) -> None:
        """Kill the server and its workers; wait until every one is gone."""
        if self.proc.poll() is not None:
            return
        from client import child_pids

        try:
            pids = child_pids(self.proc.pid)
        except OSError:
            pids = []
        for pid in [self.proc.pid] + pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait(timeout=30)
        deadline = time.monotonic() + 30
        while pids and time.monotonic() < deadline:
            pids = [p for p in pids if os.path.exists(f"/proc/{p}")]
            time.sleep(0.05)


def _on_alarm(signum, frame):
    raise TimeoutError(f"benchmark run exceeded {RUN_DEADLINE}s")


def server_env(work: str) -> dict:
    env = dict(os.environ)
    for var in PINNED_ENV:
        env.pop(var, None)
    env["TMPDIR"] = work
    env["PYTHONPATH"] = SRC
    return env


def start_servers(workload, graph_path, work, env, trace, servers, client_cls):
    """Set up ``SETUP_REPEATS`` servers; keep the last one serving.

    Returns ``(server, client, setups, probe_answer)``.
    """
    from workloads import K, SETUP_REPEATS

    setups = []
    for r in range(SETUP_REPEATS):
        config = {
            "index": r,
            "edge_list": graph_path,
            "snapshot_dir": os.path.join(work, f"snapshots-{r}"),
            "work_dir": work,
            "sharded": workload.sharded,
            "trace": trace,
        }
        server = ServerProcess(config, work, env)
        servers.append(server)
        ready = server.ready
        client = client_cls(ready["host"], ready["port"])
        probe = client.query(0, k=K)
        t_ok = time.perf_counter()
        if probe.get("status") != "ok":
            raise RuntimeError(f"set-up probe answered {probe!r}")
        setups.append(
            {
                "setup_s": t_ok - ready["t_build_start"],
                "first_answer_ms": (t_ok - ready["t_bound"]) * 1e3,
                "build_s": ready["build_s"],
                "publish_s": ready["publish_s"],
                "pool_boot_s": ready["pool_boot_s"],
            }
        )
        if r < SETUP_REPEATS - 1:
            client.close()
            server.stop()
    return server, client, setups, (0, K, int(probe["epoch"]), probe["items"])


def memory(server) -> tuple:
    """(door PSS, summed worker PSS) in MB."""
    from client import child_pids, pss_mb

    pid = server.ready["pid"]
    return pss_mb(pid), sum(pss_mb(c) for c in child_pids(pid))


def references(prepared: dict, swaps: list, sharded: bool) -> dict:
    """Epoch → in-process QueryEngine over that epoch's snapshot."""
    from repro.core import load_index
    from repro.query import QueryEngine

    paths = {0: prepared["reference"]}
    if not sharded:
        paths.update({int(e): p for e, p, _ in swaps})
    engines: dict = {}
    by_path: dict = {}
    for epoch, path in paths.items():
        if path not in by_path:
            by_path[path] = QueryEngine(load_index(path))
        engines[epoch] = by_path[path]
    return engines


def check_lag(phase) -> float:
    """Sender lag p99 (ms); raises InvalidRun past ``LAG_LIMIT_MS``."""
    from layers import pct

    lag_p99 = pct(phase.lag_s(), 99) * 1e3
    print(
        f"generator: sender lag p50 {pct(phase.lag_s(), 50) * 1e3:.3f} ms, "
        f"p99 {lag_p99:.3f} ms; client CPU {phase.cpu_frac:.1%} of one core"
    )
    if lag_p99 > LAG_LIMIT_MS:
        raise InvalidRun(
            f"sender lag p99 {lag_p99:.3f} ms exceeds {LAG_LIMIT_MS} ms"
        )
    return lag_p99


def split_schedule(offsets, queries, at):
    """Two open-loop halves of one schedule, the second re-based to 0."""
    first = [(o, q) for o, q in zip(offsets, queries) if o < at]
    second = [(o - at, q) for o, q in zip(offsets, queries) if o >= at]
    return (
        ([o for o, _ in first], [q for _, q in first]),
        ([o for o, _ in second], [q for _, q in second]),
    )


def run(workload_name: str, seed: int, seconds: float, trace: bool, work: str):
    import numpy as np

    from client import (
        child_pids,
        closed_loop,
        cpu_seconds,
        median_rate,
        mismatches,
        open_loop,
    )
    from layers import RECONCILE_TOL, pct, replay, request_breakdown, swap_breakdown
    from repro.core import load_index, load_sharded_index
    from repro.core.sharded import ShardedIndex
    from repro.graph import write_edge_list
    from repro.serving import FrontDoorClient
    from workloads import (
        CLOSED_INFLIGHT,
        K,
        OPEN_SHARE,
        TRACE_SHARE,
        WORKLOADS,
        build_graph,
        make_inputs,
    )

    workload = WORKLOADS[workload_name]
    # Untraced open loop, then (traced runs) the same traffic traced, then
    # the closed loop.
    base_seconds = seconds * (TRACE_SHARE if trace else OPEN_SHARE)
    traced_seconds = base_seconds if trace else 0.0
    closed_seconds = seconds - base_seconds - traced_seconds
    graph = build_graph(workload.graph)
    inputs = make_inputs(
        workload, graph, seed, base_seconds + traced_seconds, closed_seconds
    )
    base_schedule, traced_schedule = split_schedule(
        inputs.open_offsets, inputs.open_queries, base_seconds
    )
    graph_path = os.path.join(work, "graph.txt")
    write_edge_list(graph, graph_path)
    env = server_env(work)

    servers: list = []
    client = None
    try:
        server, client, setups, probe = start_servers(
            workload, graph_path, work, env, trace, servers, FrontDoorClient
        )
        ready = server.ready
        prepared = server.call(cmd="prepare", updates=inputs.updates)
        if workload.churn:
            server.call(cmd="churn", interval=workload.churn_every)

        server_pids = [ready["pid"]] + child_pids(ready["pid"])
        cpu0 = cpu_seconds(server_pids)
        base = open_loop(client, base_schedule[1], base_schedule[0], K)
        server_cpu = cpu_seconds(server_pids) - cpu0
        door_mb, worker_mb = memory(server)
        phases = [base]
        if trace:
            stats_on = server.call(cmd="record", on=True)["stats"]
            traced = open_loop(client, traced_schedule[1], traced_schedule[0], K)
            stats_off = server.call(cmd="record", on=False)["stats"]
            phases.append(traced)
        closed = closed_loop(
            client, inputs.closed_queries, closed_seconds, CLOSED_INFLIGHT, K
        )
        phases.append(closed)
        lag_p99 = check_lag(base)

        if workload.churn:
            swaps = server.call(cmd="churn_stop")["swaps"]
        else:
            swaps = server.call(cmd="swap_idle", count=IDLE_SWAPS)["swaps"]
        report = server.call(cmd="report") if trace else None
        client.close()
        client = None
        final = server.stop()
    finally:
        if client is not None:
            client.close()
        for server_process in servers:
            server_process.kill()

    # --- exactness, after the timed window ------------------------------
    answers = [probe] + [a for phase in phases for a in phase.answers]
    wrong = mismatches(answers, references(prepared, swaps, workload.sharded))
    offered = 1 + sum(p.offered for p in phases)
    ok = 1 + sum(p.n_ok for p in phases)
    failed = offered - ok + wrong

    swap_ms = statistics.median(s[2] for s in swaps) * 1e3
    config = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "graph": list(workload.graph),
        "n_nodes": ready["n_nodes"],
        "n_edges": ready["n_edges"],
        "k": K,
        "rate": workload.rate,
        "dist": workload.dist,
        "churn_every": workload.churn_every,
        "backend": ready["backend"],
        "precision": ready["precision"],
        "serve_defaults": ready["serve_defaults"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    print("config " + json.dumps(config, sort_keys=True))
    capacity = median_rate(closed.ok_times, closed_seconds, CAPACITY_WINDOW)
    latency = {q: pct(base.latencies_s, q) * 1e3 for q in (50, 90, 99)}
    print(
        f"samples: open-loop {base.offered} offered / {base.n_ok} ok, "
        f"setups {len(setups)}, swaps {len(swaps)} "
        f"({'under load' if workload.churn else 'idle, after the window'}), "
        f"prepared snapshots {len(prepared['prepared'])} "
        f"in {prepared['seconds']:.2f}s; server counters {final['counters']} "
        f"reconciled={final['reconciled']}"
    )
    print(
        f"exactness: {len(answers)} ok answers checked, {wrong} mismatched; "
        f"fail_frac {failed / offered:.6f}"
    )
    print(
        "open-loop latency (ms, from scheduled send): "
        + ", ".join(f"p{q} {v:.3f}" for q, v in latency.items())
        + f"; capacity {capacity:.1f}/s; swap_ms {swap_ms:.1f} over "
        f"{len(swaps)} publishes; server CPU {server_cpu:.2f}s"
    )

    if not trace:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "cpu_ms_per_req": server_cpu * 1e3 / base.n_ok,
            "ok_frac": (offered - failed) / offered,
            "pss_mb": door_mb + worker_mb,
        }
        units = E2E_UNITS
    else:
        stats = report["stats"]
        delta = {
            key: stats_off[key] - stats_on[key]
            for key, value in stats_off.items()
            if isinstance(value, int) and key in stats_on
        }
        n_workers = ready["n_workers"]
        metrics = request_breakdown(traced, report, n_workers)
        metrics.update(swap_breakdown(report["publishes"]))
        if workload.sharded:
            sharded = load_sharded_index(ready["snapshot"][1])
            single = load_index(prepared["reference"])
            metrics["scheduler.shard_skip_rate"] = delta["shards_skipped"] / (
                delta["queries_served"] * (n_workers - 1)
            )
            metrics["engine.hit_rate"] = 0.0  # the shard tier caches nothing
            metrics["engine.scans_per_query"] = (
                delta["home_queries"] + delta["remote_queries"]
            ) / delta["queries_served"]
            load = lambda: load_sharded_index(ready["snapshot"][1], only=[0])  # noqa: E731
        else:
            single = load_index(ready["snapshot"][1])
            sharded = ShardedIndex.from_index(single, 2, partitioner="louvain")
            metrics["scheduler.shard_skip_rate"] = 0.0
            metrics["engine.hit_rate"] = (
                delta["cache_hits"] + delta["dedup_hits"]
            ) / delta["queries_served"]
            metrics["engine.scans_per_query"] = (
                delta["scans_executed"] / delta["queries_served"]
            )
            load = lambda: load_index(ready["snapshot"][1])  # noqa: E731
        served_queries = [a[0] for a in traced.answers]
        metrics.update(replay(single, sharded, served_queries, K, workload.sharded))
        load_times = []
        for _ in range(3):
            t0 = time.perf_counter()
            load()
            load_times.append(time.perf_counter() - t0)
        metrics.update(
            {
                "snapshot.load_ms": statistics.median(load_times) * 1e3,
                "snapshot.bytes": ready["snapshot_bytes"],
                "swap.count_per_publish": stats["snapshot_swaps"]
                / n_workers
                / len(swaps),
                "setup.build_s": statistics.median(s["build_s"] for s in setups),
                "setup.publish_s": statistics.median(s["publish_s"] for s in setups),
                "setup.pool_boot_s": statistics.median(
                    s["pool_boot_s"] for s in setups
                ),
                "setup.first_answer_ms": statistics.median(
                    s["first_answer_ms"] for s in setups
                ),
                "mem.door_pss_mb": door_mb,
                "mem.worker_pss_mb": worker_mb,
                "loadgen.sender_lag_ms.p99": lag_p99,
                "loadgen.client_cpu_frac": base.cpu_frac,
                "trace.overhead_ms": pct(traced.latencies_s, 50) * 1e3 - latency[50],
                "e2e.p50_ms": latency[50],
                "e2e.p90_ms": latency[90],
                "e2e.p99_ms": latency[99],
                "e2e.capacity_qps": capacity,
                "e2e.swap_ms": swap_ms,
            }
        )
        units = LAYER_UNITS
        residual = metrics["reconcile.residual_frac"]
        print(
            f"reconciliation: layers leave {residual:+.2%} of the mean latency "
            f"unattributed (tolerance ±{RECONCILE_TOL:.0%})"
        )
        if abs(residual) > RECONCILE_TOL:
            raise RuntimeError("per-layer self-times do not reconcile")
    return {
        "correct": wrong == 0,
        "attempted": offered,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"expected one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    for var in PINNED_ENV:
        os.environ.pop(var, None)

    # Hand the interpreter lock between the sender and receiver threads
    # promptly (default 5 ms), so a burst of responses does not hold a
    # due send back.
    sys.setswitchinterval(0.0005)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    os.environ["TMPDIR"] = work
    tempfile.tempdir = work
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_DEADLINE)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except InvalidRun as exc:
        print(f"invalid run, not reported: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
