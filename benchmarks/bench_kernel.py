"""Per-backend kernel latency on the serving smoke graph.

This is the committed perf baseline for the pluggable kernel backends
(``src/repro/query/backends/``): every registered backend runs the same
Algorithm 4 pruned scans on the **same smoke graph as
``bench_batch_throughput.py``** (scale-free, n=2000, m=8000, c=0.95),
and the answers are asserted bit-identical before any number is
reported — a backend that drifts from the ``python`` oracle fails the
bench outright, so the committed speedups always describe *exact*
kernels.

Workloads
---------
Queries are the two highest out-degree hubs (deterministic on the fixed
graph seed) — hub scans visit most of the graph, so they measure the
kernel loop rather than per-call setup.  Six workloads per query:

- ``topk10`` / ``topk100`` — heap-mode scans (the serving path).  A
  sizeable share of their time is canonical-heap admissions, which are
  scalar in every backend by the exactness contract, so their speedup
  is structurally lower than the threshold scans'.
- ``thresh1e-6`` / ``thresh1e-8`` — range-query scans (Definition 2
  cut-off against a fixed θ).  These are scan-bound end to end and are
  the headline kernel-speed metric (``scan_speedup``).
- ``ppr`` — a 3-seed Personalized PageRank top-k (multi-source layer 0).
- ``shard_home`` — the sharded tier's hot loop: the top-10 block scan
  (``scan_shard``) of the query's home shard, on a 2-shard Louvain
  split of the same graph.

One more workload times the build rather than a scan:

- ``inverse`` — ``triangular_inverses`` on the graph's LU factors (the
  level kernel, min of ``TRIALS``, reported as ``numpy``) against the
  reach kernel it must match bit for bit (the oracle, reported as
  ``python``).  The oracle takes about 4 s here, so its one run, which
  also supplies the reference the kernel is checked against, is its
  time.  The headline speedups stay over the six scan workloads.

Regression gate
---------------
``--check BENCH_kernel.json`` re-runs the bench and fails (exit 1) when
any workload's ``numpy`` speedup degrades more than 20% below the
committed trajectory.  The gate compares *speedups* (numpy vs python in
the same run), not absolute latencies, so it is stable across machines;
absolute latencies are recorded for the trajectory only.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_kernel.py            # table
    PYTHONPATH=src python benchmarks/bench_kernel.py --output BENCH_kernel.json
    PYTHONPATH=src python benchmarks/bench_kernel.py --check BENCH_kernel.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.core import KDash, ShardedIndex
from repro.core.sharded import canonical_heap, heap_items, scan_shard
from repro.graph import column_normalized_adjacency, rwr_system_matrix, scale_free_digraph
from repro.lu import triangular_inverses
from repro.query.backends import available_backends, get_backend
from repro.sparse import CSCMatrix
from repro.sparse.triangular import sparse_lower_inverse, sparse_upper_inverse

# The bench_batch_throughput smoke graph, restated (importing the
# sibling module would depend on the invocation directory).
N_NODES = 2000
N_EDGES = 8000
GRAPH_SEED = 5
C = 0.95

N_HUBS = 2
REPS = 30
TRIALS = 6
GATE_TOLERANCE = 0.20  # fail when speedup drops >20% below committed

#: The scan-bound workloads that define the headline ``scan_speedup``.
SCAN_WORKLOADS = ("thresh1e-6", "thresh1e-8")

#: The ``shard_home`` workload's split and heap size.
N_SHARDS = 2
SHARD_K = 10


def build_prepared():
    graph = scale_free_digraph(N_NODES, N_EDGES, seed=GRAPH_SEED)
    index = KDash(graph, c=C).build()
    return graph, index, index._prepared


def hub_queries(graph) -> List[int]:
    """The N_HUBS highest out-degree nodes (deterministic tie-break)."""
    degrees = [
        (-len(graph.successors(u)), u) for u in range(graph.n_nodes)
    ]
    degrees.sort()
    return [u for _, u in degrees[:N_HUBS]]


def make_workloads(hubs: List[int]) -> List[Tuple[str, dict]]:
    return [
        ("topk10", dict(k=10)),
        ("topk100", dict(k=100)),
        ("thresh1e-6", dict(threshold=1e-6)),
        ("thresh1e-8", dict(threshold=1e-8)),
        ("ppr", dict(k=10, seeds={h: 1.0 for h in (*hubs, 0)})),
    ]


def _scan_args(prepared, y, query, spec):
    """Resolve one workload spec to pruned-scan arguments."""
    if "seeds" in spec:
        shares = dict(spec["seeds"])
        total = sum(shares.values())
        shares = {node: w / total for node, w in shares.items()}
        y_ppr, total_mass = prepared.seed_workspace(shares)
        kw = {k: v for k, v in spec.items() if k != "seeds"}
        return y_ppr, tuple(shares), total_mass, kw, None
    rows = prepared.scatter_column(y, query)
    return y, (query,), prepared.total_mass_of(query), dict(spec), rows


def time_backends(prepared, y, query, spec, backends) -> Dict[str, float]:
    """Best-of-TRIALS mean-of-REPS latency per backend, microseconds.

    Trials interleave the backends so slow drift (thermal, noisy
    neighbours) hits all of them equally instead of biasing whichever
    ran last.
    """
    yw, seeds, total_mass, kw, rows = _scan_args(prepared, y, query, spec)
    # Exactness first: the committed numbers only describe exact kernels.
    oracle = get_backend("python").scan(
        prepared, yw, seeds, total_mass=total_mass, **kw
    )
    for name in backends:
        got = get_backend(name).scan(
            prepared, yw, seeds, total_mass=total_mass, **kw
        )
        if got != oracle:
            raise SystemExit(
                f"backend {name!r} diverged from the python oracle on "
                f"query {query} {kw} — refusing to report its latency"
            )
    best = {name: float("inf") for name in backends}
    for _ in range(TRIALS):
        for name in backends:
            backend = get_backend(name)
            t0 = time.perf_counter()
            for _ in range(REPS):
                backend.scan(prepared, yw, seeds, total_mass=total_mass, **kw)
            best[name] = min(
                best[name], (time.perf_counter() - t0) / REPS * 1e6
            )
    if rows is not None:
        yw[rows] = 0.0
    return best


def time_shard_home(sharded, query, backends) -> Dict[str, float]:
    """Best-of-TRIALS mean-of-REPS home-shard scan latency per backend,
    microseconds, after asserting items and counters equal the oracle's."""
    y = sharded.workspace()
    rows, vals = sharded.scatter_column(y, query)
    ymax = float(vals.max()) if vals.size else 0.0
    home = sharded.shard(sharded.home_shard(query))

    def scan(backend):
        heap = canonical_heap(sharded.n, SHARD_K)
        counters = scan_shard(home, sharded.c, y, ymax, heap, backend=backend)
        return heap_items(heap), counters

    oracle = scan("python")
    for name in backends:
        if scan(name) != oracle:
            raise SystemExit(
                f"backend {name!r} diverged from the python oracle on the "
                f"home-shard scan of query {query} — refusing to report "
                "its latency"
            )
    best = {name: float("inf") for name in backends}
    for _ in range(TRIALS):
        for name in backends:
            backend = get_backend(name)
            t0 = time.perf_counter()
            for _ in range(REPS):
                scan(backend)
            best[name] = min(
                best[name], (time.perf_counter() - t0) / REPS * 1e6
            )
    sharded.clear_rows(y, rows)
    return best


def _same_bits(got, want) -> bool:
    return (
        np.array_equal(got.indptr, want.indptr)
        and np.array_equal(got.indices, want.indices)
        and np.array_equal(got.data.view(np.int64), want.data.view(np.int64))
    )


def time_inverse(graph, index) -> Dict[str, float]:
    """Microseconds to invert the LU factors ``index`` was built from:
    the level kernel's best of TRIALS (``numpy``) and the reach oracle's
    one run (``python``), after asserting the two bit-identical."""
    permuted = index._perm.permute_matrix(column_normalized_adjacency(graph))
    ell, u, _ = index._factorise(rwr_system_matrix(permuted, C))
    t0 = time.perf_counter()
    l_want = sparse_lower_inverse(CSCMatrix.from_scipy(ell), unit_diagonal=True)
    u_want = sparse_upper_inverse(CSCMatrix.from_scipy(u))
    oracle = time.perf_counter() - t0
    l_inv, u_inv = triangular_inverses(ell, u)
    if not (_same_bits(l_inv, l_want) and _same_bits(u_inv.to_csc(), u_want)):
        raise SystemExit(
            "triangular_inverses diverged from the reach oracle — refusing "
            "to report its time"
        )
    best = float("inf")
    for _ in range(TRIALS):
        t0 = time.perf_counter()
        triangular_inverses(ell, u)
        best = min(best, time.perf_counter() - t0)
    return {"numpy": best * 1e6, "python": oracle * 1e6}


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_bench(quick: bool = False) -> dict:
    global REPS, TRIALS
    if quick:
        REPS, TRIALS = 5, 2
    graph, index, prepared = build_prepared()
    hubs = hub_queries(graph)
    backends = list(available_backends())
    y = np.zeros(graph.n_nodes)

    sharded = ShardedIndex.from_index(index, N_SHARDS, partitioner="louvain")
    timers = [
        (
            workload,
            lambda q, spec=spec: time_backends(prepared, y, q, spec, backends),
        )
        for workload, spec in make_workloads(hubs)
    ]
    timers.append(
        ("shard_home", lambda q: time_shard_home(sharded, q, backends))
    )

    results = []
    speedups: Dict[str, Dict[str, List[float]]] = {}
    for workload, timer in timers:
        for query in hubs:
            latencies = timer(query)
            results.append(
                {
                    "workload": workload,
                    "query": query,
                    "latency_us": {
                        name: round(v, 1) for name, v in latencies.items()
                    },
                }
            )
            for name in backends:
                if name == "python":
                    continue
                speedups.setdefault(name, {}).setdefault(
                    workload, []
                ).append(latencies["python"] / latencies[name])

    workload_speedups = {
        name: {w: round(geomean(v), 2) for w, v in per.items()}
        for name, per in speedups.items()
    }
    headline = {
        name: {
            "scan_speedup": round(
                geomean(
                    [s for w in SCAN_WORKLOADS for s in per[w]]
                ),
                2,
            ),
            "overall_speedup": round(
                geomean([s for v in per.values() for s in v]), 2
            ),
        }
        for name, per in speedups.items()
    }
    inverse = time_inverse(graph, index)
    results.append(
        {
            "workload": "inverse",
            "query": None,
            "latency_us": {name: round(v, 1) for name, v in inverse.items()},
        }
    )
    workload_speedups["numpy"]["inverse"] = round(
        inverse["python"] / inverse["numpy"], 2
    )
    return {
        "bench": "kernel",
        "graph": {
            "generator": "scale_free_digraph",
            "n_nodes": N_NODES,
            "n_edges": N_EDGES,
            "seed": GRAPH_SEED,
            "c": C,
        },
        "shard_home": {
            "n_shards": N_SHARDS,
            "partitioner": "louvain",
            "k": SHARD_K,
        },
        "queries": hubs,
        "reps": REPS,
        "trials": TRIALS,
        "results": results,
        "speedup": workload_speedups,
        "headline": headline,
    }


def print_report(report: dict) -> None:
    hubs = report["queries"]
    print(
        f"kernel bench — scale-free n={N_NODES} m={N_EDGES} c={C}, "
        f"hub queries {hubs}"
    )
    for row in report["results"]:
        lat = row["latency_us"]
        parts = "  ".join(f"{n} {v:9.1f}us" for n, v in lat.items())
        ratio = lat["python"] / lat["numpy"]
        query = "" if row["query"] is None else f"q={row['query']}"
        print(
            f"  {row['workload']:11s} {query:7s} {parts}  numpy {ratio:4.2f}x"
        )
    for name, agg in report["headline"].items():
        print(
            f"  headline[{name}]: scan_speedup {agg['scan_speedup']:.2f}x, "
            f"overall {agg['overall_speedup']:.2f}x"
        )


def check_against(report: dict, committed_path: Path) -> int:
    committed = json.loads(committed_path.read_text())
    failures = []
    base = committed["speedup"]["numpy"]
    now = report["speedup"]["numpy"]
    for workload, committed_speedup in base.items():
        got = now.get(workload)
        if got is None:
            failures.append(f"workload {workload!r} missing from this run")
            continue
        floor = committed_speedup * (1.0 - GATE_TOLERANCE)
        status = "ok" if got >= floor else "REGRESSION"
        print(
            f"  gate {workload:11s}: committed {committed_speedup:5.2f}x, "
            f"run {got:5.2f}x, floor {floor:5.2f}x — {status}"
        )
        if got < floor:
            failures.append(
                f"{workload}: numpy speedup {got:.2f}x fell >"
                f"{GATE_TOLERANCE:.0%} below committed "
                f"{committed_speedup:.2f}x"
            )
    if failures:
        print("kernel bench regression gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("kernel bench regression gate passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, help="write the report JSON")
    parser.add_argument(
        "--check",
        type=Path,
        help="compare this run's speedups to a committed BENCH_kernel.json "
        "and exit 1 on >20%% degradation",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer reps/trials (CI smoke; noisier numbers)",
    )
    args = parser.parse_args(argv)

    report = run_bench(quick=args.quick)
    print_report(report)
    if args.output:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")
    if args.check:
        return check_against(report, args.check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
