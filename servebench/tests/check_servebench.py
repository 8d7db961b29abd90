"""Tests of the serving benchmark itself.

The file name keeps it out of the repository's default test collection:
the short end-to-end runs below take a few minutes.  Run it from the
repository root::

    python3 -m pytest servebench/tests/check_servebench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench  # noqa: E402
from client import Phase, mismatches  # noqa: E402
from layers import RECONCILE_TOL, request_breakdown  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("servebench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "2",
         "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_benchmark_json_matches_the_command():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.LAYER_UNITS
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_run_emits_every_metric(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = bench.LAYER_UNITS if trace else bench.E2E_UNITS
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace:
        metrics = result["metrics"]
        assert abs(metrics["reconcile.residual_frac"]["value"]) <= RECONCILE_TOL
        assert metrics["swap.count_per_publish"]["value"] == 1.0


def test_exactness_rejects_a_perturbed_answer():
    from repro.core import KDash
    from repro.graph import grid_graph
    from repro.query import QueryEngine

    engine = QueryEngine(KDash(grid_graph(4, 5), c=0.95).build())
    answers = [
        (q, 5, 0, [[int(n), float(p)] for n, p in engine.top_k(q, 5).items])
        for q in range(6)
    ]
    assert mismatches(answers, {0: engine}) == 0
    node, proximity = answers[3][3][1]
    answers[3][3][1] = [node, float(np.nextafter(proximity, 1.0))]
    assert mismatches(answers, {0: engine}) == 1
    # An epoch with no reference snapshot cannot be vouched for.
    assert mismatches([(0, 5, 9, answers[0][3])], {0: engine}) == 1


def test_reconciliation_accounts_for_every_interval():
    # Two requests served in one wave; the dispatch thread spends 0.1 ms
    # between the two submits and 0.1 ms before the drain, outside any
    # scheduler call.
    phase = Phase(seconds=1.0)
    phase.scheduled = [0.0, 0.001]
    phase.sent = [0.0001, 0.0011]
    phase.received = [0.010, 0.011]
    report = {
        "submits": [(0.0010, 0.0012), (0.0013, 0.0015)],
        "waves": [(2, 0.0016, 0.0080, 0.0080, 0.0081)],
        "pool_calls": [(0.0020, 0.0070)],
        "batches": [(0.006, 0.004, 0.003, 2)],
    }
    m = request_breakdown(phase, report, n_workers=2)
    layers = sum(
        m[f"layer.{name}_ms.mean"]
        for name in ("loadgen", "frontdoor", "scheduler", "pool")
    )
    e2e = m["reconcile.e2e_ms.mean"]
    assert e2e == pytest.approx(10.0)
    assert m["reconcile.residual_frac"] == pytest.approx(0.00015 / 0.010)
    assert layers + m["reconcile.residual_frac"] * e2e == pytest.approx(e2e)
    assert m["layer.pool_ms.mean"] == pytest.approx(5.0)
    assert m["frontdoor.queue_wait_ms.p50"] == pytest.approx(0.55)


def test_breakdown_refuses_unjoinable_traces():
    phase = Phase(seconds=1.0)
    phase.scheduled, phase.sent, phase.received = [0.0], [0.0], [0.001]
    report = {"submits": [], "waves": [], "pool_calls": [], "batches": []}
    with pytest.raises(RuntimeError):
        request_breakdown(phase, report, n_workers=2)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "servebench", ignore=shutil.ignore_patterns("__pycache__")
    )
    out = _run("replica-zipf", 0, cwd=str(tmp_path))
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
