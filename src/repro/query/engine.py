"""The serving layer: batched, cached, observable K-dash queries.

:class:`QueryEngine` is the surface the CLI, the examples and future
sharding/async work build on.  It owns one built
:class:`~repro.core.kdash.KDash` index — or, for a **living graph**, a
:class:`~repro.core.dynamic.DynamicKDash` wrapper — and adds what a
query *server* needs on top of a query *algorithm*:

- **batching** — :meth:`top_k_many` runs many queries against one reused
  dense workspace (cleared in O(nnz of the seed column) between queries
  instead of reallocated in O(n)), deduplicates repeated queries within
  the batch, and preserves input order in the output;
- **caching** — an optional LRU result cache across calls; real traffic
  is heavily skewed, and a K-dash result never goes stale *within an
  update epoch*;
- **observability** — every call emits a :class:`QueryStats` record
  (wall time, cache/dedup accounting, pruning counters, epoch and
  pending-update rank) and folds into the lifetime :class:`EngineStats`;
- **mutability** — :meth:`apply_updates` pushes a batch of edge
  insertions/deletions through the dynamic index, bumps the engine's
  :attr:`epoch` and atomically invalidates the result cache.  While
  updates are pending, every query mode transparently switches to the
  exact Woodbury-corrected path; a :class:`RebuildPolicy` decides when
  to flatten the accumulated updates into a freshly built index (a new
  :class:`~repro.query.prepared.PreparedIndex` behind the same engine
  handle), restoring the pruned fast path.

All static-path query modes route through the same
:func:`~repro.query.kernel.pruned_scan` kernel the index itself uses, so
engine answers are bit-identical to direct index calls.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from time import perf_counter
from typing import TYPE_CHECKING, Deque, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.topk import TopKResult
from ..exceptions import InvalidParameterError
from ..obs.metrics import NULL_REGISTRY
from ..validation import check_k, check_node_id, check_non_negative_int
from .kernel import pruned_scan, scan_to_topk
from .stats import EngineStats, QueryStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (kdash uses the kernel)
    from ..core.dynamic import DynamicKDash, UpdateReport
    from ..core.kdash import KDash

# EWMA weight of the newest latency sample in the per-scan running
# averages that feed RebuildPolicy.max_slowdown.
_LATENCY_EWMA_ALPHA = 0.3


@dataclass(frozen=True)
class RebuildPolicy:
    """When should a dynamic engine flatten pending updates?

    Corrected queries are exact but exhaustive — their cost grows with
    the correction rank and never benefits from pruning.  A rebuild costs
    one full precomputation but restores the fast path.  This object
    encodes the trade-off; the engine consults it after every update
    batch and after every corrected query.

    Attributes
    ----------
    max_rank:
        Rebuild once the Woodbury correction rank (distinct updated
        columns) reaches this value.  ``None`` disables the rank trigger.
    max_slowdown:
        Rebuild once the running average of corrected per-query seconds
        exceeds ``max_slowdown ×`` the clean pruned per-query average.
        Needs at least one clean and one corrected sample; ``None``
        disables the latency trigger.

    Examples
    --------
    >>> policy = RebuildPolicy(max_rank=8)
    >>> policy.should_rebuild(pending_rank=3)
    False
    >>> policy.should_rebuild(pending_rank=8)
    True
    >>> latency = RebuildPolicy(max_rank=None, max_slowdown=10.0)
    >>> latency.should_rebuild(3, corrected_seconds=0.05, clean_seconds=0.001)
    True
    """

    max_rank: Optional[int] = 64
    max_slowdown: Optional[float] = None

    def should_rebuild(
        self,
        pending_rank: int,
        corrected_seconds: Optional[float] = None,
        clean_seconds: Optional[float] = None,
    ) -> bool:
        """Decide for the current pending rank and measured latencies."""
        if pending_rank <= 0:
            return False
        if self.max_rank is not None and pending_rank >= self.max_rank:
            return True
        if (
            self.max_slowdown is not None
            and corrected_seconds is not None
            and clean_seconds is not None
            and clean_seconds > 0.0
            and corrected_seconds >= self.max_slowdown * clean_seconds
        ):
            return True
        return False


class QueryEngine:
    """Serve top-k / threshold / personalized queries from one index.

    Parameters
    ----------
    index:
        A :class:`~repro.core.kdash.KDash` instance (built on the spot
        when :meth:`~repro.core.kdash.KDash.build` has not run yet) or a
        :class:`~repro.core.dynamic.DynamicKDash` for a graph that keeps
        changing.
    cache_size:
        Maximum entries of the LRU result cache; ``0`` disables caching
        entirely.  Cached entries are the immutable ``TopKResult``
        objects themselves, so the footprint is small — prefer a
        capacity above the working set: sustained eviction churn costs
        more than the cache saves on uniform traffic.
    history_size:
        How many per-call :class:`QueryStats` records to retain in
        :attr:`history`.
    rebuild_policy:
        A :class:`RebuildPolicy` consulted after update batches and
        corrected queries; only meaningful with a dynamic index
        (rejected otherwise).  ``None`` leaves rebuilds to the caller
        and to ``DynamicKDash.rebuild_threshold``.
    registry:
        A :class:`~repro.obs.metrics.MetricsRegistry` every call
        records into (per-mode latency histograms, cache/scan/pruning
        counters, epoch gauges).  ``None`` installs the no-op
        :data:`~repro.obs.metrics.NULL_REGISTRY`, keeping the hot path
        at a single ``enabled`` attribute check — the ≤5% overhead
        budget of ``tests/unit/test_obs_overhead.py``.

    Examples
    --------
    >>> from repro.graph import star_graph
    >>> from repro.core import KDash
    >>> engine = QueryEngine(KDash(star_graph(4), c=0.9))
    >>> [r.nodes[0] for r in engine.top_k_many([0, 1, 0], k=2)]
    [0, 1, 0]

    Serving a living graph — updates bump the epoch and invalidate the
    cache, queries stay exact throughout:

    >>> from repro.core import DynamicKDash
    >>> engine = QueryEngine(DynamicKDash(star_graph(4), c=0.9),
    ...                      rebuild_policy=RebuildPolicy(max_rank=8))
    >>> engine.top_k(1, 2).nodes[0]
    1
    >>> report = engine.apply_updates(inserts=[(1, 2)])
    >>> (engine.epoch, report.pending_rank)
    (1, 1)
    >>> engine.top_k(1, 2).nodes[0]   # exact under the pending update
    1
    >>> engine.last_stats.corrected
    True
    """

    def __init__(
        self,
        index,
        cache_size: int = 1024,
        history_size: int = 64,
        rebuild_policy: Optional[RebuildPolicy] = None,
        registry=None,
    ) -> None:
        # Duck-typed dynamic detection keeps the import graph acyclic
        # (core.kdash itself imports this package).
        if hasattr(index, "update_serial"):
            self._dynamic: Optional["DynamicKDash"] = index
            self._static_index: Optional["KDash"] = None
            self._seen_serial = index.update_serial
        else:
            if not index.is_built:
                index.build()
            self._dynamic = None
            self._static_index = index
            self._seen_serial = 0
        if rebuild_policy is not None and self._dynamic is None:
            raise InvalidParameterError(
                "rebuild_policy requires a DynamicKDash-backed engine"
            )
        self.rebuild_policy = rebuild_policy
        #: The metrics sink; NULL_REGISTRY (enabled=False) unless the
        #: caller opted into telemetry.
        self.metrics = NULL_REGISTRY if registry is None else registry
        # Per-mode instrument handles, resolved lazily by _observe.
        self._metric_handles: dict = {}
        # Counters/gauges mirror EngineStats aggregates at scrape time
        # (per-call work stays one histogram observation; see _observe).
        self.metrics.add_collector(self._sync_metrics)
        self.cache_size = check_non_negative_int(cache_size, "cache_size")
        history_size = check_non_negative_int(history_size, "history_size")
        self._cache: "OrderedDict[tuple, TopKResult]" = OrderedDict()
        self.history: Deque[QueryStats] = deque(maxlen=history_size)
        self.last_stats: Optional[QueryStats] = None
        self.stats = EngineStats()
        self.epoch = 0
        # Epoch tag of the snapshot this engine last adopted (replica
        # workers set it at load time and on every hot-swap); None for
        # an engine that never served from a published snapshot.
        self.snapshot_epoch: Optional[int] = None
        # Per-executed-scan wall-clock EWMAs feeding the latency trigger
        # of RebuildPolicy.max_slowdown.
        self._clean_seconds: Optional[float] = None
        self._corrected_seconds: Optional[float] = None

    # ------------------------------------------------------------------
    # Index plumbing
    # ------------------------------------------------------------------
    @property
    def index(self) -> "KDash":
        """The built index currently serving the fast path.

        For a dynamic engine this is :attr:`DynamicKDash.base_index` —
        a *new* object after every rebuild; hold the engine, not the
        index.
        """
        if self._dynamic is not None:
            return self._dynamic.base_index
        return self._static_index

    @property
    def dynamic(self) -> Optional["DynamicKDash"]:
        """The dynamic wrapper, or ``None`` on a static engine."""
        return self._dynamic

    def swap_index(self, index, source_epoch: Optional[int] = None) -> None:
        """Hot-swap a *different* built index in behind this engine.

        The replica-worker half of snapshot publication: a worker holds
        a static engine over the current snapshot, and when the
        publisher announces a new epoch it loads the archive and swaps
        it in here *between* micro-batches.  Unlike :meth:`rebuild`
        (same answers, fresh fast path) the new index generally reflects
        **new graph state**, so the result cache is dropped atomically
        and :attr:`epoch` advances — a cached result can never outlive
        the snapshot it was computed on.

        Parameters
        ----------
        index:
            A :class:`~repro.core.kdash.KDash` (built on the spot if
            needed).  Dynamic engines own their index lifecycle through
            :meth:`apply_updates`/:meth:`rebuild` and are rejected here.
        source_epoch:
            The publisher's epoch tag for the adopted snapshot, recorded
            on :attr:`snapshot_epoch` and :class:`EngineStats` for
            observability.

        Examples
        --------
        >>> from repro.graph import star_graph
        >>> from repro.core import KDash
        >>> engine = QueryEngine(KDash(star_graph(4), c=0.9))
        >>> _ = engine.top_k(1, 2)
        >>> engine.swap_index(KDash(star_graph(5), c=0.9), source_epoch=7)
        >>> (engine.epoch, engine.snapshot_epoch, engine.cache_info()[0])
        (1, 7, 0)
        """
        if self._dynamic is not None:
            raise InvalidParameterError(
                "swap_index requires a static engine; dynamic engines swap "
                "indexes through apply_updates/rebuild"
            )
        if not index.is_built:
            index.build()
        self._static_index = index
        self.epoch += 1
        self._cache.clear()
        self.stats.invalidations += 1
        self.stats.current_epoch = self.epoch
        self.stats.snapshot_swaps += 1
        if source_epoch is not None:
            self.snapshot_epoch = int(source_epoch)
            self.stats.snapshot_epoch = self.snapshot_epoch
        # The latency EWMAs described the old index's scan profile.
        self._clean_seconds = None
        self._corrected_seconds = None

    def _pending_rank(self) -> int:
        return self._dynamic.n_pending_columns if self._dynamic is not None else 0

    def _sync_epoch(self) -> None:
        """Observe mutations; atomically invalidate the cache per batch.

        Called on entry of every query and update method.  Covers
        mutations made through the engine *and* directly on the shared
        ``DynamicKDash`` handle: any change of ``update_serial`` since
        the last observation opens a new epoch and drops every cached
        result in one step.
        """
        if self._dynamic is None:
            return
        serial = self._dynamic.update_serial
        if serial != self._seen_serial:
            self._seen_serial = serial
            self.epoch += 1
            self._cache.clear()
            self.stats.invalidations += 1
            self.stats.current_epoch = self.epoch
        self.stats.rebuilds = self._dynamic.n_rebuilds

    # ------------------------------------------------------------------
    # Update surface
    # ------------------------------------------------------------------
    def apply_updates(
        self,
        inserts: Iterable[tuple] = (),
        deletes: Iterable[Tuple[int, int]] = (),
    ) -> "UpdateReport":
        """Apply one batch of edge updates through the dynamic index.

        Bumps :attr:`epoch`, invalidates the whole result cache, folds
        the batch into :class:`EngineStats`, and consults the
        :attr:`rebuild_policy`.  See
        :meth:`repro.core.dynamic.DynamicKDash.apply_updates` for the
        batch semantics (deletes before inserts).

        Returns
        -------
        UpdateReport
            The batch report; ``rebuilt``/``pending_rank`` reflect any
            policy-triggered rebuild.
        """
        if self._dynamic is None:
            raise InvalidParameterError(
                "apply_updates requires a DynamicKDash-backed engine"
            )
        report = self._dynamic.apply_updates(inserts, deletes)
        self._sync_epoch()
        self.stats.update_batches += 1
        self.stats.updates_applied += report.n_inserted + report.n_deleted
        if self._maybe_rebuild():
            report = replace(
                report, rebuilt=True, pending_rank=self._pending_rank()
            )
        return report

    def rebuild(self) -> None:
        """Force-flatten pending updates into a fresh index now.

        Swaps a freshly built :class:`~repro.query.prepared.PreparedIndex`
        in behind this engine handle.  Answers are unchanged, so cached
        results stay valid and the epoch does not advance.
        """
        if self._dynamic is None:
            raise InvalidParameterError(
                "rebuild requires a DynamicKDash-backed engine"
            )
        self._dynamic.rebuild()
        # The corrected-latency signal died with the old correction state.
        self._corrected_seconds = None
        self.stats.rebuilds = self._dynamic.n_rebuilds

    def _maybe_rebuild(self) -> bool:
        """Consult the policy; rebuild when it fires.  Returns True if so."""
        if self._dynamic is None or self.rebuild_policy is None:
            return False
        rank = self._pending_rank()
        if rank and self.rebuild_policy.should_rebuild(
            rank, self._corrected_seconds, self._clean_seconds
        ):
            self.rebuild()
            return True
        return False

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _cache_get(self, key: tuple) -> Optional[TopKResult]:
        if not self.cache_size:
            return None
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
        return hit

    def _cache_put(self, key: tuple, result: TopKResult) -> None:
        if not self.cache_size:
            return
        self._cache[key] = result
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def clear_cache(self) -> None:
        """Drop every cached result (e.g. after swapping the index)."""
        self._cache.clear()

    def cache_info(self) -> Tuple[int, int]:
        """``(current_entries, capacity)`` of the result cache."""
        return len(self._cache), self.cache_size

    # ------------------------------------------------------------------
    def _record(
        self,
        mode: str,
        n_queries: int,
        cache_hits: int,
        dedup_hits: int,
        t_start: float,
        results: Sequence[TopKResult],
        executed_flags: Optional[Sequence[bool]] = None,
        corrected: bool = False,
    ) -> None:
        """Build the per-call QueryStats record and fold the aggregates."""
        executed = (
            results
            if executed_flags is None
            else [r for r, ran in zip(results, executed_flags) if ran]
        )
        seconds = perf_counter() - t_start
        stats = QueryStats(
            mode=mode,
            n_queries=n_queries,
            cache_hits=cache_hits,
            dedup_hits=dedup_hits,
            seconds=seconds,
            n_visited=sum(r.n_visited for r in executed),
            n_computed=sum(r.n_computed for r in executed),
            n_pruned=sum(r.n_pruned for r in executed),
            terminated_early=any(r.terminated_early for r in executed),
            epoch=self.epoch,
            pending_rank=self._pending_rank(),
            corrected=corrected,
        )
        if executed and mode != "top_k_ablation":
            per_scan = seconds / len(executed)
            if corrected:
                self._corrected_seconds = self._ewma(
                    self._corrected_seconds, per_scan
                )
            else:
                self._clean_seconds = self._ewma(self._clean_seconds, per_scan)
        self.last_stats = stats
        self.history.append(stats)
        self.stats.record(stats)
        if self.metrics.enabled:
            self._observe(stats)

    def _observe(self, stats: QueryStats) -> None:
        """Record the per-call latency sample into the metrics registry.

        This is the *only* per-call registry touch: latency must be
        observed live (a histogram cannot be reconstructed later), but
        every counter and gauge mirrors an :class:`EngineStats`
        aggregate the engine maintains anyway, so those sync lazily in
        :meth:`_sync_metrics` — a scrape-time collector — instead of on
        the hot path.  Touching one histogram instead of a dozen
        instruments per call is what keeps an instrumented engine
        inside the ≤5% overhead budget
        (``tests/unit/test_obs_overhead.py``): the extra cost is cache
        pollution as much as instructions.
        """
        handles = self._metric_handles.get(stats.mode)
        if handles is None:
            handles = self._metric_handles[stats.mode] = self._make_handles(
                stats.mode
            )
        handles["call_seconds"].observe(stats.seconds)

    def _sync_metrics(self) -> None:
        """Scrape-time collector: mirror lifetime aggregates into the
        registry (registered via ``MetricsRegistry.add_collector``)."""
        agg = self.stats
        for mode, handles in self._metric_handles.items():
            handles["calls"].value = agg.by_mode.get(mode, 0)
            # The unlabelled handles are shared objects across modes;
            # re-storing them per mode is harmless idempotence.
            handles["queries"].value = agg.queries_served
            handles["cache_hits"].value = agg.cache_hits
            handles["dedup_hits"].value = agg.dedup_hits
            handles["scans"].value = agg.scans_executed
            handles["corrected"].value = agg.corrected_queries
            handles["visited"].value = agg.n_visited
            handles["computed"].value = agg.n_computed
            handles["pruned"].value = agg.n_pruned
            handles["epoch"].value = self.epoch
            handles["pending_rank"].value = self._pending_rank()
            handles["cache_entries"].value = len(self._cache)

    def _make_handles(self, mode: str) -> dict:
        """Resolve the per-mode instrument set (once, then cached)."""
        metrics = self.metrics
        return {
            "call_seconds": metrics.histogram(
                "repro_engine_call_seconds",
                help="wall-clock seconds per engine call",
                labels={"mode": mode},
            ),
            "calls": metrics.counter(
                "repro_engine_calls_total",
                help="engine calls",
                labels={"mode": mode},
            ),
            "queries": metrics.counter(
                "repro_engine_queries_total", help="input queries served"
            ),
            "cache_hits": metrics.counter(
                "repro_engine_cache_hits_total", help="LRU result-cache hits"
            ),
            "dedup_hits": metrics.counter(
                "repro_engine_dedup_hits_total", help="within-batch dedup hits"
            ),
            "scans": metrics.counter(
                "repro_engine_scans_total", help="pruned scans executed"
            ),
            "visited": metrics.counter(
                "repro_engine_visited_total",
                help="nodes visited by executed scans",
            ),
            "computed": metrics.counter(
                "repro_engine_computed_total",
                help="exact proximities computed by executed scans",
            ),
            "pruned": metrics.counter(
                "repro_engine_pruned_total",
                help="nodes pruned (Lemma 1-2) by executed scans",
            ),
            "corrected": metrics.counter(
                "repro_engine_corrected_scans_total",
                help="scans served on the Woodbury-corrected path",
            ),
            "epoch": metrics.gauge("repro_engine_epoch", help="update epoch"),
            "pending_rank": metrics.gauge(
                "repro_engine_pending_rank",
                help="pending Woodbury correction rank",
            ),
            "cache_entries": metrics.gauge(
                "repro_engine_cache_entries", help="LRU result-cache entries"
            ),
        }

    @staticmethod
    def _ewma(current: Optional[float], sample: float) -> float:
        if current is None:
            return sample
        return (1.0 - _LATENCY_EWMA_ALPHA) * current + _LATENCY_EWMA_ALPHA * sample

    # ------------------------------------------------------------------
    # Query surface
    # ------------------------------------------------------------------
    def top_k(
        self,
        query: int,
        k: int = 5,
        prune: bool = True,
        root: Optional[int] = None,
    ) -> TopKResult:
        """Single top-k query; identical answers to ``index.top_k``.

        The ablation variants (``prune=False`` or a root override) pass
        straight through and are never cached — they exist for
        experiments, not serving.  Under pending updates every variant
        serves the exact corrected vector (which is exhaustive anyway,
        subsuming both ablations).
        """
        t0 = perf_counter()
        self._sync_epoch()
        pending = self._pending_rank()
        if not prune or root is not None:
            if pending:
                result = self._dynamic.top_k(query, k)
            else:
                result = self.index.top_k(query, k, prune=prune, root=root)
            self._record(
                "top_k_ablation", 1, 0, 0, t0, [result], corrected=bool(pending)
            )
            return result
        query = check_node_id(query, self.index.graph.n_nodes, "query")
        k = check_k(k)
        key = ("topk", query, k)
        cached = self._cache_get(key)
        if cached is not None:
            self._record("top_k", 1, 1, 0, t0, [cached], executed_flags=[False])
            return cached
        if pending:
            result = self._dynamic.top_k(query, k)
        else:
            result = self.index.top_k(query, k)
        self._cache_put(key, result)
        self._record("top_k", 1, 0, 0, t0, [result], corrected=bool(pending))
        if pending:
            self._maybe_rebuild()
        return result

    def top_k_many(self, queries: Iterable[int], k: int = 5) -> List[TopKResult]:
        """Batched top-k: one reused workspace, deduped, cache-backed.

        Results come back in input order; duplicate queries share one
        scan.  This is the serving-path replacement for the naive
        ``KDash.top_k_batch`` loop (see
        ``benchmarks/bench_batch_throughput.py`` for the comparison).
        Under pending updates the batch runs on the corrected path, still
        deduped and cache-backed; the per-batch Woodbury pieces are
        computed once and shared across the whole batch.
        """
        t0 = perf_counter()
        self._sync_epoch()
        index = self.index
        prepared = index._prepared
        n = prepared.n
        k = check_k(k)
        # Vectorised validation: one range check for the whole batch.
        qarr = np.asarray(list(queries), dtype=np.int64)
        if qarr.size and (qarr.min() < 0 or qarr.max() >= n):
            bad = int(qarr[(qarr < 0) | (qarr >= n)][0])
            check_node_id(bad, n, "query")  # raises with the right message
        qlist = qarr.tolist()

        if self._pending_rank():
            return self._top_k_many_corrected(qlist, k, t0)

        resolved: dict = {}
        executed: List[TopKResult] = []
        cache_hits = 0
        dedup_hits = 0
        y = prepared.workspace()
        # Local aliases + inlined LRU ops: the scan itself is ~100µs, so
        # per-query method-call overhead is a measurable tax here.
        cache = self._cache if self.cache_size else None
        capacity = self.cache_size
        scatter = prepared.scatter_column
        clear = prepared.clear_rows
        total_mass_perm = prepared.total_mass_perm
        # The array mirror, not the lazy list: a batch served by a
        # vectorised backend must not force the plain-list conversions.
        position = prepared.position_arr
        for q in qlist:
            if q in resolved:
                dedup_hits += 1
                continue
            key = ("topk", q, k)
            if cache is not None:
                cached = cache.get(key)
                if cached is not None:
                    cache.move_to_end(key)
                    resolved[q] = cached
                    cache_hits += 1
                    continue
            rows = scatter(y, q)
            scan = pruned_scan(
                prepared,
                y,
                (q,),
                k=k,
                total_mass=float(total_mass_perm[position[q]]),
            )
            clear(y, rows)
            result = scan_to_topk(q, k, n, scan)
            if cache is not None:
                # The key just missed, so plain insertion already lands
                # it at the LRU tail; no move_to_end needed.
                cache[key] = result
                if len(cache) > capacity:
                    cache.popitem(last=False)
            resolved[q] = result
            executed.append(result)

        results = [resolved[q] for q in qlist]
        self._record(
            "top_k_many", len(qlist), cache_hits, dedup_hits, t0, executed
        )
        return results

    def _top_k_many_corrected(
        self, qlist: List[int], k: int, t0: float
    ) -> List[TopKResult]:
        """The pending-updates batch path: corrected, deduped, cached."""
        resolved: dict = {}
        executed: List[TopKResult] = []
        cache_hits = 0
        dedup_hits = 0
        for q in qlist:
            if q in resolved:
                dedup_hits += 1
                continue
            key = ("topk", q, k)
            cached = self._cache_get(key)
            if cached is not None:
                resolved[q] = cached
                cache_hits += 1
                continue
            result = self._dynamic.top_k(q, k)
            self._cache_put(key, result)
            resolved[q] = result
            executed.append(result)
        results = [resolved[q] for q in qlist]
        self._record(
            "top_k_many",
            len(qlist),
            cache_hits,
            dedup_hits,
            t0,
            executed,
            corrected=True,
        )
        self._maybe_rebuild()
        return results

    def above_threshold(self, query: int, threshold: float) -> TopKResult:
        """All nodes with proximity ≥ ``threshold`` (cached, observable)."""
        t0 = perf_counter()
        self._sync_epoch()
        # Validate before the cache lookup: a coerced key must never
        # hand an invalid query another node's cached result.
        query = check_node_id(query, self.index.graph.n_nodes, "query")
        key = ("thr", query, float(threshold))
        cached = self._cache_get(key)
        if cached is not None:
            self._record(
                "above_threshold", 1, 1, 0, t0, [cached], executed_flags=[False]
            )
            return cached
        pending = self._pending_rank()
        if pending:
            result = self._dynamic.above_threshold(query, threshold)
        else:
            result = self.index.above_threshold(query, threshold)
        self._cache_put(key, result)
        self._record(
            "above_threshold", 1, 0, 0, t0, [result], corrected=bool(pending)
        )
        if pending:
            self._maybe_rebuild()
        return result

    def top_k_personalized(self, restart, k: int = 5) -> TopKResult:
        """Top-k for a weighted restart set (cached on normalised weights)."""
        t0 = perf_counter()
        self._sync_epoch()
        key = self._personalized_key(restart, k)
        if key is not None:
            cached = self._cache_get(key)
            if cached is not None:
                self._record(
                    "top_k_personalized", 1, 1, 0, t0, [cached], executed_flags=[False]
                )
                return cached
        pending = self._pending_rank()
        if pending:
            result = self._dynamic.top_k_personalized(restart, k)
        else:
            result = self.index.top_k_personalized(restart, k)
        if key is not None:
            self._cache_put(key, result)
        self._record(
            "top_k_personalized", 1, 0, 0, t0, [result], corrected=bool(pending)
        )
        if pending:
            self._maybe_rebuild()
        return result

    @staticmethod
    def _personalized_key(restart, k: int) -> Optional[tuple]:
        """Cache key on *normalised* weights; ``None`` defers validation.

        ``{3: 1, 11: 1}`` and ``{3: 10, 11: 10}`` are the same query, so
        the key uses weight shares.  Malformed input returns ``None`` —
        the index's own validation then raises the right error.
        """
        try:
            pairs = list(dict(restart).items())
            # Node ids must already be integers (bool excluded): coercing
            # here would let {2.7: 1.0} hit the cache entry of {2: 1.0}.
            if any(
                isinstance(nd, bool) or not isinstance(nd, (int, np.integer))
                for nd, _ in pairs
            ):
                return None
            items = sorted((int(nd), float(w)) for nd, w in pairs)
        except (TypeError, ValueError, AttributeError):
            return None
        total = sum(w for _, w in items)
        if not items or not total > 0.0:
            return None
        return ("ppr", tuple((nd, w / total) for nd, w in items), int(k))

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero the lifetime aggregates and the per-call history."""
        self.stats = EngineStats(
            current_epoch=self.epoch,
            rebuilds=self._dynamic.n_rebuilds if self._dynamic else 0,
            snapshot_epoch=self.snapshot_epoch,
        )
        self.history.clear()
        self.last_stats = None
