"""The publisher: dynamic updates in, epoch-tagged snapshots out.

The serving tier splits the engine's two roles across processes:

- **replicas** hold read-only snapshots and burn CPU on queries;
- exactly one **publisher** owns the mutable
  :class:`~repro.core.dynamic.DynamicKDash` (wrapped in a
  :class:`~repro.query.engine.QueryEngine` so the
  :class:`~repro.query.engine.RebuildPolicy` machinery applies
  unchanged) and turns update batches into snapshots.

Publication must compact first: a snapshot is the *base* index archive,
and :func:`~repro.core.index_io.save_index` refuses a dynamic wrapper
with pending Woodbury corrections — the corrections live in publisher
memory, not in the archive.  :meth:`SnapshotPublisher.publish` therefore
forces a :meth:`~repro.query.engine.QueryEngine.rebuild` whenever
corrections are pending, then writes the next epoch.  The publisher's
engine remains a fully exact serving surface of its own (it answers
corrected queries between publications), which is what the equivalence
tests compare the pool against.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Optional, Tuple

from ..core.sharded import SHARD_PARTITIONERS, ShardedIndex
from ..exceptions import InvalidParameterError
from ..obs.metrics import NULL_REGISTRY
from ..query.engine import QueryEngine
from ..validation import check_choice, check_positive_int
from .snapshot import Snapshot, SnapshotStore


class SnapshotPublisher:
    """Own the mutable index; publish compacted snapshots per update batch.

    Parameters
    ----------
    engine:
        A :class:`~repro.query.engine.QueryEngine` over a
        :class:`~repro.core.dynamic.DynamicKDash` — the single writer.
        Its rebuild policy (if any) keeps working between publications.
    store:
        The :class:`~repro.serving.snapshot.SnapshotStore` to publish
        into.
    shard_spec:
        ``None`` publishes v4 single-index archives (replica-pool
        deployment).  A ``(n_shards, partitioner)`` or ``(n_shards,
        partitioner, seed)`` tuple publishes format-v6 **sharded**
        snapshots instead: after compaction the base index is re-sliced
        with :meth:`~repro.core.sharded.ShardedIndex.from_index` and the
        manifest-plus-payloads layout is written, ready for a
        :class:`~repro.serving.sharded.ShardPool` to hot-swap.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`: publish
        count/latency, updates-applied counters, and the current epoch
        gauge.  ``None`` = telemetry off.
    """

    def __init__(
        self,
        engine: QueryEngine,
        store: SnapshotStore,
        shard_spec: Optional[Tuple] = None,
        registry=None,
    ) -> None:
        if engine.dynamic is None:
            raise InvalidParameterError(
                "SnapshotPublisher requires a DynamicKDash-backed engine "
                "(the publisher is the writer role)"
            )
        self.engine = engine
        self.store = store
        if shard_spec is not None:
            parts = tuple(shard_spec)
            if len(parts) == 2:
                parts = parts + (0,)
            if len(parts) != 3:
                raise InvalidParameterError(
                    "shard_spec must be (n_shards, partitioner[, seed]), "
                    f"got {shard_spec!r}"
                )
            check_positive_int(parts[0], "n_shards")
            check_choice(parts[1], SHARD_PARTITIONERS, "partitioner")
            shard_spec = (int(parts[0]), str(parts[1]), int(parts[2]))
        self.shard_spec = shard_spec
        self.metrics = NULL_REGISTRY if registry is None else registry

    @property
    def latest(self) -> Snapshot:
        """The most recently published snapshot (publishing epoch 0 on
        first use so a fresh store always has a bootable snapshot)."""
        snapshot = self.store.latest()
        if snapshot is None:
            snapshot = self.publish()
        return snapshot

    def publish(self) -> Snapshot:
        """Compact pending corrections (if any) and write the next epoch.

        With a :attr:`shard_spec` the published artefact is a sharded
        manifest re-sliced from the compacted base index; otherwise the
        plain v4 archive.
        """
        t0 = perf_counter()
        if self.engine.dynamic.n_pending_columns:
            self.engine.rebuild()
        if self.shard_spec is not None:
            n_shards, partitioner, seed = self.shard_spec
            sharded = ShardedIndex.from_index(
                self.engine.index, n_shards, partitioner=partitioner, seed=seed
            )
            snapshot = self.store.publish(sharded)
        else:
            snapshot = self.store.publish(self.engine.dynamic)
        if self.metrics.enabled:
            self.metrics.histogram(
                "repro_publish_seconds",
                help="compaction-plus-write seconds per published snapshot",
            ).observe(perf_counter() - t0)
            self.metrics.counter(
                "repro_snapshots_published_total", help="snapshots published"
            ).inc()
            self.metrics.gauge(
                "repro_publisher_epoch", help="latest published snapshot epoch"
            ).set(snapshot.epoch)
        return snapshot

    def apply_and_publish(
        self,
        inserts: Iterable[tuple] = (),
        deletes: Iterable[Tuple[int, int]] = (),
    ) -> Tuple["object", Snapshot]:
        """One update batch through the dynamic path, then one snapshot.

        Returns ``(UpdateReport, Snapshot)``.  The report reflects the
        engine's own policy decisions (a policy-triggered rebuild shows
        up as ``rebuilt=True``); the snapshot always reflects every
        applied update, because :meth:`publish` compacts first.
        """
        report = self.engine.apply_updates(inserts, deletes)
        if self.metrics.enabled:
            self.metrics.counter(
                "repro_updates_applied_total",
                help="edge updates applied through the publisher",
            ).inc(report.n_inserted + report.n_deleted)
        return report, self.publish()
