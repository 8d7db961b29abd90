"""Scatter-gather top-k planning over a sharded index.

The shard-level pruning contract is written once, as :class:`Gather`:

1. **home first** — scan the shard owning the query node; its members
   hold most of the proximity mass on a well-partitioned graph, so the
   running K-th proximity θ rises as fast as possible;
2. **descending bounds** — contract every other shard's
   :class:`~repro.core.sharded.ShardSummary` against the scattered seed
   column and visit survivors in descending bound order, each scan
   starting from the gather's running candidates and scattering the
   seed column the home scan returned (only the home shard holds it);
3. **skip below θ** — the first shard whose bound falls below the
   running θ certifies (bounds are sorted, θ is monotone) that *every*
   remaining shard is out, the Lemma 2 argument one level up.

:class:`ScatterGatherPlanner` drives a gather in process, with one
:meth:`~repro.core.sharded.ShardedIndex.scan_request` per visited
shard; :class:`~repro.serving.sharded.ShardedScheduler` drives the same
gather over worker rounds, so both run one plan with the same counters.

Because per-shard scans compute the same float dot products as the
unified kernel and merge through the same canonical ``(proximity,
-node)`` heap discipline, the planner's answers are **bit-identical**
to :meth:`repro.core.kdash.KDash.top_k` / the single-index
:class:`~repro.query.engine.QueryEngine` — asserted across graph
families × partitioners × shard counts × k by
``tests/property/test_prop_sharded.py``.

Living graphs: hand the planner the same
:class:`~repro.core.dynamic.DynamicKDash` the writer mutates.  While
corrections are pending every query serves the exact Woodbury-corrected
vector (identical to the single engine's corrected path); once the
writer compacts (``rebuild()``), the planner notices the new base index
and re-derives its shards before the next clean query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, List, Optional

from ..core.sharded import ShardedIndex, canonical_heap, merge_candidates
from ..core.topk import TopKResult
from ..exceptions import InvalidParameterError
from ..validation import check_k, check_node_id
from .kernel import ScanResult, scan_to_topk


@dataclass(frozen=True)
class PlanStats:
    """Per-query plan accounting: how much work the bounds saved."""

    query: int
    k: int
    shards_visited: int
    shards_skipped: int
    nodes_checked: int
    nodes_computed: int
    corrected: bool = False

    @property
    def fan_out(self) -> int:
        """Shards that actually executed a scan for this query."""
        return self.shards_visited


@dataclass
class PlannerStats:
    """Lifetime aggregates across every planned query."""

    queries: int = 0
    corrected_queries: int = 0
    shards_visited: int = 0
    shards_skipped: int = 0
    nodes_checked: int = 0
    nodes_computed: int = 0
    reshards: int = 0
    _n_shards: int = field(default=0, repr=False)

    def record(self, plan: PlanStats, n_shards: int) -> None:
        self.queries += 1
        self.corrected_queries += int(plan.corrected)
        self.shards_visited += plan.shards_visited
        self.shards_skipped += plan.shards_skipped
        self.nodes_checked += plan.nodes_checked
        self.nodes_computed += plan.nodes_computed
        self._n_shards = n_shards

    @property
    def skip_rate(self) -> float:
        """Skipped share of the non-home shard visits a naive scatter
        would have made (0.0 until a multi-shard query ran)."""
        possible = self.queries * max(self._n_shards - 1, 0)
        return (self.shards_skipped / possible) if possible else 0.0

    @property
    def mean_fan_out(self) -> float:
        """Average shards scanned per query (1.0 = pure home-shard
        hits)."""
        return (self.shards_visited / self.queries) if self.queries else 0.0

    def as_dict(self) -> dict:
        return {
            "queries": self.queries,
            "corrected_queries": self.corrected_queries,
            "shards_visited": self.shards_visited,
            "shards_skipped": self.shards_skipped,
            "skip_rate": self.skip_rate,
            "mean_fan_out": self.mean_fan_out,
            "nodes_checked": self.nodes_checked,
            "nodes_computed": self.nodes_computed,
            "reshards": self.reshards,
        }


class Gather:
    """One query's home-first, bound-ordered gather over shard replies.

    Built from the home shard's reply ``(items, bounds, checked,
    computed, seed)`` (see
    :meth:`~repro.core.sharded.ShardedIndex.scan_request`).  Its driver
    asks :meth:`next_shard` for the next shard, scans it from
    :attr:`candidates` and the query's :attr:`seed` column, and hands
    the reply to :meth:`absorb`, until :meth:`next_shard` returns
    ``None``; :meth:`result` and :meth:`plan` then give the answer and
    its accounting.
    """

    __slots__ = (
        "query", "k", "n", "seed", "candidates", "theta", "bounds", "order",
        "cursor", "visited", "skipped", "checked", "computed",
    )

    def __init__(self, query: int, k: int, n: int, home: int, reply) -> None:
        self.query, self.k, self.n = query, k, n
        self.seed = reply[4]
        bounds = self.bounds = reply[1]
        self.order = sorted(
            (s for s in range(len(bounds)) if s != home),
            key=lambda s: (-bounds[s], s),
        )
        self.cursor = 0
        self.visited = 1
        self.skipped = 0
        self.checked = 0
        self.computed = 0
        self.absorb(reply)

    def absorb(self, reply) -> None:
        """Adopt a scanned shard's heap and add its counters.

        The scan started from :attr:`candidates`, so its items are the
        gather's running answer.
        """
        items, _, checked, computed = reply[:4]
        self.candidates = items
        self.theta = merge_candidates(canonical_heap(self.n, self.k), items)
        self.checked += checked
        self.computed += computed

    def next_shard(self) -> Optional[int]:
        """The next shard to visit, or ``None`` when the plan is done.

        Shards come in descending bound order (ties by id).  At the
        first bound below θ the whole sorted tail is skipped and counted:
        bounds only fall and θ only rises.
        """
        if self.cursor >= len(self.order):
            return None
        if self.bounds[self.order[self.cursor]] < self.theta:
            self.skipped += len(self.order) - self.cursor
            self.cursor = len(self.order)
            return None
        self.cursor += 1
        self.visited += 1
        return self.order[self.cursor - 1]

    def result(self) -> TopKResult:
        """The gathered answer, ranked and padded like a single scan's."""
        scan = ScanResult(
            items=self.candidates,
            n_visited=self.checked,
            n_computed=self.computed,
            n_pruned=self.n - self.computed,
            terminated_early=self.computed < self.n,
        )
        return scan_to_topk(self.query, self.k, self.n, scan)

    def plan(self) -> PlanStats:
        """This query's plan accounting."""
        return PlanStats(
            query=self.query,
            k=self.k,
            shards_visited=self.visited,
            shards_skipped=self.skipped,
            nodes_checked=self.checked,
            nodes_computed=self.computed,
        )


class ScatterGatherPlanner:
    """Serve exact top-k queries from a :class:`ShardedIndex`.

    Parameters
    ----------
    sharded:
        The sharded index (from
        :meth:`~repro.core.sharded.ShardedIndex.from_index` or
        :func:`~repro.core.index_io.load_sharded_index` — every shard
        payload must be loaded; manifest-only loads serve workers, not
        planners).
    dynamic:
        Optional :class:`~repro.core.dynamic.DynamicKDash` shared with
        the writer.  Pending corrections route queries through the exact
        corrected path; a compaction triggers an automatic re-shard.

    Examples
    --------
    >>> from repro.core import KDash
    >>> from repro.core.sharded import ShardedIndex
    >>> from repro.graph import star_graph
    >>> index = KDash(star_graph(6), c=0.9).build()
    >>> planner = ScatterGatherPlanner(
    ...     ShardedIndex.from_index(index, 3, partitioner="range"))
    >>> planner.top_k(0, 3).items == index.top_k(0, 3).items
    True
    """

    def __init__(
        self,
        sharded: ShardedIndex,
        dynamic=None,
        backend=None,
        registry=None,
    ) -> None:
        for shard_id, payload in enumerate(sharded.shards):
            if payload is None:
                raise InvalidParameterError(
                    f"shard {shard_id} has no payload: the planner needs "
                    "every shard loaded (pass only= loads to shard workers "
                    "instead)"
                )
        # Resolve the kernel backend once (name, object, or the
        # REPRO_KERNEL_BACKEND environment default); every per-shard
        # scan of this planner goes through it.  All backends are
        # bit-identical — see repro.query.backends.
        from .backends import get_backend

        from ..obs.metrics import NULL_REGISTRY

        self._backend = get_backend(backend)
        self._sharded = sharded
        self._dynamic = dynamic
        self._seen_serial = dynamic.update_serial if dynamic is not None else 0
        self._workspace = sharded.workspace()
        self.stats = PlannerStats()
        self.last_plan: Optional[PlanStats] = None
        #: Metrics sink (plan latency, fan-out/skip counters); the
        #: no-op singleton unless the caller opted into telemetry.
        self.metrics = NULL_REGISTRY if registry is None else registry
        self._metric_handles: Optional[dict] = None

    # ------------------------------------------------------------------
    @property
    def sharded(self) -> ShardedIndex:
        """The currently served sharded index (a new object after a
        post-compaction re-shard; hold the planner, not the index)."""
        return self._sharded

    def _sync(self) -> bool:
        """Observe the writer.  Returns True when corrections are pending.

        A compaction (``rebuild()``) leaves ``n_pending_columns == 0``
        but a moved ``update_serial`` — the base index the shards were
        sliced from is gone, so the shards are re-derived from the new
        one with the same ``(n_shards, partitioner, seed)`` spec.
        """
        dynamic = self._dynamic
        if dynamic is None:
            return False
        if (
            dynamic.update_serial != self._seen_serial
            and dynamic.n_pending_columns == 0
        ):
            n_shards, partitioner, seed = self._sharded.spec
            self._sharded = ShardedIndex.from_index(
                dynamic.base_index, n_shards, partitioner=partitioner, seed=seed
            )
            self._workspace = self._sharded.workspace()
            self._seen_serial = dynamic.update_serial
            self.stats.reshards += 1
        return dynamic.n_pending_columns > 0

    # ------------------------------------------------------------------
    def top_k(self, query: int, k: int = 5) -> TopKResult:
        """Top-k via home-first scatter-gather with shard skipping."""
        t0 = perf_counter()
        pending = self._sync()
        sharded = self._sharded  # _sync may have re-sharded
        if pending:
            result = self._dynamic.top_k(query, k)
            plan = PlanStats(
                query=int(query),
                k=int(k),
                shards_visited=sharded.n_shards,
                shards_skipped=0,
                nodes_checked=result.n_visited,
                nodes_computed=result.n_computed,
                corrected=True,
            )
        else:
            query = check_node_id(query, sharded.n, "query")
            k = check_k(k)
            y, backend = self._workspace, self._backend
            home = sharded.home_shard(query)
            gather = Gather(
                query, k, sharded.n, home,
                sharded.scan_request(y, home, query, k, home=True, backend=backend),
            )
            shard_id = gather.next_shard()
            while shard_id is not None:
                gather.absorb(
                    sharded.scan_request(
                        y, shard_id, query, k, gather.candidates, gather.seed,
                        backend=backend,
                    )
                )
                shard_id = gather.next_shard()
            result = gather.result()
            plan = gather.plan()
        self.last_plan = plan
        self.stats.record(plan, sharded.n_shards)
        if self.metrics.enabled:
            self._observe(plan, perf_counter() - t0)
        return result

    def _observe(self, plan: PlanStats, seconds: float) -> None:
        """Fold one plan into the metrics registry (handles cached once)."""
        handles = self._metric_handles
        if handles is None:
            metrics = self.metrics
            handles = self._metric_handles = {
                "seconds": metrics.histogram(
                    "repro_planner_seconds",
                    help="wall-clock seconds per planned query",
                ),
                "pruned": metrics.counter(
                    "repro_planner_queries_total",
                    help="planned queries",
                    labels={"path": "pruned"},
                ),
                "corrected": metrics.counter(
                    "repro_planner_queries_total",
                    help="planned queries",
                    labels={"path": "corrected"},
                ),
                "visited": metrics.counter(
                    "repro_planner_shards_visited_total", help="shards scanned"
                ),
                "skipped": metrics.counter(
                    "repro_planner_shards_skipped_total",
                    help="shards skipped by the cross-shard bound",
                ),
                "checked": metrics.counter(
                    "repro_planner_nodes_checked_total",
                    help="nodes bound-checked",
                ),
                "computed": metrics.counter(
                    "repro_planner_nodes_computed_total",
                    help="exact proximities computed",
                ),
            }
        handles["seconds"].observe(seconds)
        handles["corrected" if plan.corrected else "pruned"].inc()
        handles["visited"].inc(plan.shards_visited)
        handles["skipped"].inc(plan.shards_skipped)
        handles["checked"].inc(plan.nodes_checked)
        handles["computed"].inc(plan.nodes_computed)

    def top_k_many(self, queries: Iterable[int], k: int = 5) -> List[TopKResult]:
        """Plan a batch of queries; results in input order.

        Each query reuses the planner's single dense workspace; the
        answers equal per-query :meth:`top_k` calls exactly, which in
        turn equal the single-index engine's batch path.
        """
        return [self.top_k(int(q), k) for q in queries]

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero the lifetime aggregates (keeps the shard state)."""
        self.stats = PlannerStats()
        self.last_plan = None
