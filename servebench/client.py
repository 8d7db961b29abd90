"""Client side of the serving benchmark: traffic, answers, exactness, memory.

One connection, at most two threads.  The open-loop phase sends on a
pre-drawn Poisson schedule from the calling thread while one receiver
thread reads responses; each request is timed from its *scheduled* send
time, so a generator stall shows up as latency of the requests behind
it, and the stall itself is reported as sender lag.  The closed-loop
phase keeps a fixed number of requests pipelined from the calling thread
alone.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: One ``ok`` answer as received: (query, k, epoch, items).
Answer = Tuple[int, int, int, list]


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Phase:
    """What one traffic phase offered and what came back."""

    offered: int = 0
    statuses: Dict[str, int] = field(default_factory=dict)
    answers: List[Answer] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    seconds: float = 0.0
    cpu_frac: float = 0.0
    # Closed loop only: seconds from the phase start at which each ok
    # answer arrived inside the window.
    ok_times: List[float] = field(default_factory=list)
    # Open loop only, indexed by request id (= send order).
    scheduled: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    received: List[float] = field(default_factory=list)

    @property
    def n_ok(self) -> int:
        return self.statuses.get("ok", 0)

    def lag_s(self) -> List[float]:
        return [s - d for s, d in zip(self.sent, self.scheduled)]


@contextlib.contextmanager
def no_gc():
    """Keep the client's cyclic GC out of the timed window.

    Every response is kept until the exactness check, so a full
    collection would walk them all while holding the interpreter lock,
    stalling the sender by tens of milliseconds.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _note(phase: Phase, query: int, response: dict) -> bool:
    status = response.get("status", "error")
    phase.statuses[status] = phase.statuses.get(status, 0) + 1
    if status != "ok":
        return False
    phase.answers.append(
        (int(query), int(response["k"]), int(response["epoch"]), response["items"])
    )
    return True


def open_loop(
    client, queries: List[int], offsets: List[float], k: int, settle: float = 60.0
) -> Phase:
    """Offer ``queries`` at ``offsets`` (seconds from now), open-loop."""
    n = len(queries)
    phase = Phase(offered=n)
    phase.sent = [0.0] * n
    phase.received = [0.0] * n
    responses: List[Optional[dict]] = [None] * n
    failure: List[BaseException] = []

    def receive() -> None:
        try:
            for _ in range(n):
                response = client.recv()
                t = time.perf_counter()
                rid = response["id"]
                responses[rid] = response
                phase.received[rid] = t
        except BaseException as exc:  # reported by the sending thread
            failure.append(exc)

    receiver = threading.Thread(target=receive, name="bench-recv", daemon=True)
    with no_gc():
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        phase.scheduled = [t0 + off for off in offsets]
        receiver.start()
        for i, (query, due) in enumerate(zip(queries, phase.scheduled)):
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            phase.sent[i] = time.perf_counter()
            client.send({"op": "query", "id": i, "query": int(query), "k": k})
        receiver.join(settle)
        phase.seconds = time.perf_counter() - t0
        phase.cpu_frac = (_cpu_seconds() - cpu0) / phase.seconds
    if receiver.is_alive():
        raise RuntimeError(f"open loop: responses still missing after {settle:.0f}s")
    if failure:
        raise RuntimeError(f"open loop: receiver failed: {failure[0]!r}")
    for i, (query, response) in enumerate(zip(queries, responses)):
        if _note(phase, query, response):
            phase.latencies_s.append(phase.received[i] - phase.scheduled[i])
    return phase


def closed_loop(
    client, queries: List[int], seconds: float, inflight: int, k: int
) -> Phase:
    """Keep ``inflight`` requests pipelined for ``seconds``; count answers."""
    phase = Phase()
    pending: Dict[int, int] = {}
    next_id = 0

    def send() -> None:
        nonlocal next_id
        query = queries[next_id % len(queries)]
        client.send({"op": "query", "id": next_id, "query": int(query), "k": k})
        pending[next_id] = query
        next_id += 1

    with no_gc():
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        deadline = t0 + seconds
        for _ in range(inflight):
            send()
        while pending:
            response = client.recv()
            now = time.perf_counter()
            query = pending.pop(response["id"])
            if _note(phase, query, response) and now <= deadline:
                phase.ok_times.append(now - t0)
            if now < deadline:
                send()
        phase.cpu_frac = (_cpu_seconds() - cpu0) / (time.perf_counter() - t0)
    phase.seconds = seconds
    phase.offered = next_id
    return phase


def median_rate(times: List[float], seconds: float, width: float) -> float:
    """Answers per second: the median count over ``width``-second windows.

    The first window (pipeline fill) is left out.  The median keeps a few
    windows stalled by a busy shared host from moving the figure.
    """
    counts = [0] * max(1, int(seconds // width) - 1)
    for t in times:
        w = int(t // width) - 1
        if 0 <= w < len(counts):
            counts[w] += 1
    return statistics.median(counts) / width


def mismatches(answers: List[Answer], references: Dict[int, object]) -> int:
    """Answers that are not bit-identical to the in-process engine.

    ``references`` maps a snapshot epoch to a
    :class:`~repro.query.engine.QueryEngine` over that snapshot.  Items
    *and* float proximities must match exactly (JSON round-trips an
    IEEE-754 double), compared per the epoch the server reported.
    """
    wanted: Dict[Tuple[int, int], set] = {}
    for query, k, epoch, _ in answers:
        wanted.setdefault((epoch, k), set()).add(query)
    expected: Dict[Tuple[int, int, int], list] = {}
    for (epoch, k), queries in wanted.items():
        engine = references.get(epoch)
        if engine is None:
            continue
        ordered = sorted(queries)
        for query, result in zip(ordered, engine.top_k_many(ordered, k)):
            expected[(epoch, k, query)] = [
                [int(node), float(p)] for node, p in result.items
            ]
    return sum(
        1
        for query, k, epoch, items in answers
        if expected.get((epoch, k, query)) != items
    )


# ----------------------------------------------------------------------
# Memory: proportional set size straight from /proc (no psutil needed)
# ----------------------------------------------------------------------
def pss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/smaps_rollup") as handle:
        for line in handle:
            if line.startswith("Pss:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no Pss line for pid {pid}")


def cpu_seconds(pids: List[int]) -> float:
    """User plus system CPU seconds the processes have used so far."""
    tick = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as handle:
            # Fields after the parenthesised command name; utime and
            # stime are the 14th and 15th fields of the whole line.
            fields = handle.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total / tick


def child_pids(pid: int) -> List[int]:
    children: List[int] = []
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                children.extend(int(c) for c in handle.read().split())
        except FileNotFoundError:  # thread exited while listing
            continue
    return sorted(set(children))
