"""Epoch-tagged snapshot publication for the serving tier.

A **snapshot** is one immutable, fully-compacted index artefact: either
a v4 single-index archive (which carries the ``PreparedIndex`` caches
so workers skip re-preparation on load) or a v6 **sharded manifest**
plus its per-shard payload files (see :mod:`repro.core.index_io`) —
publishing a :class:`~repro.core.sharded.ShardedIndex` picks the
sharded layout automatically, with the manifest as the atomic commit
point.  A :class:`SnapshotStore` manages a directory of them:

- publication is **atomic**: the archive is written to a temp name and
  ``os.replace``-d into place, then a one-line ``CURRENT`` pointer file
  is swapped the same way — a reader either sees the previous complete
  snapshot or the new complete snapshot, never a torn archive;
- epochs are **monotone**: every publication gets the next integer
  epoch, embedded both in the filename and in ``CURRENT``, so replica
  workers can tell "newer than mine" with an integer compare;
- old epochs are **retained** until :meth:`prune` — workers finishing a
  micro-batch on epoch ``e`` while ``e+1`` is being published must still
  be able to re-open their archive (crash recovery), so the store never
  deletes the current epoch and keeps a configurable tail.

The store is deliberately filesystem-only (no daemon, no locks beyond
rename atomicity): publisher and workers may live in different
processes, containers, or hosts sharing a filesystem.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import List, Optional

from ..core.index_io import load_index, save_index, save_sharded_index
from ..exceptions import SerializationError

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{8})\.npz$")
_CURRENT_NAME = "CURRENT"


@dataclass(frozen=True)
class Snapshot:
    """One published index archive: its epoch tag and its path."""

    epoch: int
    path: str

    @property
    def filename(self) -> str:
        return os.path.basename(self.path)


class SnapshotStore:
    """A directory of epoch-tagged index snapshots with a CURRENT pointer.

    Parameters
    ----------
    directory:
        Where snapshots live; created if missing.
    keep:
        When set, :meth:`publish` prunes down to the newest ``keep``
        snapshots after each publication.  ``None`` keeps everything.
    """

    def __init__(self, directory: str, keep: Optional[int] = None) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        if keep is not None and keep < 1:
            raise SerializationError(
                f"keep must retain at least the current snapshot, got {keep!r}"
            )
        self.keep = keep

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def publish(self, index, epoch: Optional[int] = None) -> Snapshot:
        """Write ``index`` as the next (or given) epoch and point CURRENT at it.

        ``index`` may be a built :class:`~repro.core.kdash.KDash` or a
        compacted :class:`~repro.core.dynamic.DynamicKDash` —
        :func:`~repro.core.index_io.save_index` refuses a dynamic
        wrapper with pending corrections, which is exactly the guarantee
        a snapshot needs (an archive always reflects *all* applied
        updates).
        """
        if epoch is None:
            latest = self.latest()
            epoch = 0 if latest is None else latest.epoch + 1
        else:
            epoch = int(epoch)
            latest = self.latest()
            if latest is not None and epoch <= latest.epoch:
                raise SerializationError(
                    f"snapshot epochs must be monotone: requested {epoch}, "
                    f"current is {latest.epoch}"
                )
        final_path = os.path.join(self.directory, f"snapshot-{epoch:08d}.npz")
        if hasattr(index, "summaries"):
            # A ShardedIndex: save_sharded_index writes the per-shard
            # payload files first and the manifest last, each through an
            # atomic rename — the manifest is the commit point, and the
            # CURRENT pointer (below) only ever names complete manifests.
            save_sharded_index(index, final_path)
        else:
            # savez appends ".npz" when missing, so the temp name keeps
            # the suffix and the swap is a same-directory rename (atomic
            # on POSIX filesystems).
            tmp_path = os.path.join(
                self.directory, f".tmp-{epoch:08d}-{os.getpid()}.npz"
            )
            try:
                save_index(index, tmp_path)
                os.replace(tmp_path, final_path)
            finally:
                if os.path.exists(tmp_path):
                    os.remove(tmp_path)
        self._write_current(epoch, os.path.basename(final_path))
        if self.keep is not None:
            self.prune(self.keep)
        return Snapshot(epoch=epoch, path=final_path)

    def _write_current(self, epoch: int, filename: str) -> None:
        tmp = os.path.join(self.directory, f".{_CURRENT_NAME}.tmp.{os.getpid()}")
        with open(tmp, "w") as handle:
            handle.write(f"{epoch} {filename}\n")
        os.replace(tmp, os.path.join(self.directory, _CURRENT_NAME))

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def latest(self) -> Optional[Snapshot]:
        """The snapshot CURRENT points at (falling back to a directory scan).

        The fallback covers a publisher that crashed between the archive
        rename and the pointer swap: the newest complete archive wins.
        """
        current = os.path.join(self.directory, _CURRENT_NAME)
        try:
            with open(current) as handle:
                epoch_str, filename = handle.read().split(None, 1)
            path = os.path.join(self.directory, filename.strip())
            if os.path.exists(path):
                return Snapshot(epoch=int(epoch_str), path=path)
        except (OSError, ValueError):
            pass
        snapshots = self.list_snapshots()
        return snapshots[-1] if snapshots else None

    def list_snapshots(self) -> List[Snapshot]:
        """All complete snapshots in the store, ascending epoch."""
        found = []
        for name in os.listdir(self.directory):
            match = _SNAPSHOT_RE.match(name)
            if match:
                found.append(
                    Snapshot(
                        epoch=int(match.group(1)),
                        path=os.path.join(self.directory, name),
                    )
                )
        found.sort(key=lambda s: s.epoch)
        return found

    def load_latest(self):
        """Convenience: load the CURRENT snapshot as a query-ready index."""
        snapshot = self.latest()
        if snapshot is None:
            raise SerializationError(
                f"snapshot store {self.directory!r} holds no snapshots"
            )
        return load_index(snapshot.path)

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def prune(self, keep: int = 2) -> List[Snapshot]:
        """Delete all but the newest ``keep`` snapshots; returns the removed.

        The CURRENT target is never removed, even if ``keep`` would
        demand it.
        """
        if keep < 1:
            raise SerializationError(
                f"prune must retain at least the current snapshot, got {keep!r}"
            )
        snapshots = self.list_snapshots()
        current = self.latest()
        removed = []
        for snapshot in snapshots[:-keep] if keep < len(snapshots) else []:
            if current is not None and snapshot.epoch == current.epoch:
                continue
            os.remove(snapshot.path)
            # A sharded snapshot's per-shard payload files live next to
            # the manifest under "<stem>.shardNNN.npz"; retire them with
            # it so the store never accumulates orphaned payloads.
            self._remove_payloads(os.path.basename(snapshot.path))
            removed.append(snapshot)
        # Sweep payloads whose manifest never landed (a sharded publish
        # killed between payload writes and the manifest rename).  Safe:
        # the manifest is the commit point, so a payload without one is
        # unreachable by any reader — and the single-writer discipline
        # means no publication is mid-flight while its own publish()
        # calls prune().
        live = {os.path.basename(s.path)[:-4] for s in self.list_snapshots()}
        for name in os.listdir(self.directory):
            stem, _, suffix = name.rpartition(".shard")
            if suffix and name.endswith(".npz") and stem and stem not in live:
                os.remove(os.path.join(self.directory, name))
        self._sweep_stale_temps()
        return removed

    def _sweep_stale_temps(self) -> None:
        """Remove temp files orphaned by a publisher crash.

        A publisher killed between writing ``.tmp-<epoch>-<pid>.npz``
        (or ``.CURRENT.tmp.<pid>``, or ``index_io``'s own
        ``<payload>.tmp-<pid>.npz`` staging files) and the
        ``os.replace`` leaves the temp file behind forever — nothing
        ever renames or reads it again.  The same single-writer
        discipline that makes the payload sweep above safe applies: no
        publication is mid-flight while its own ``publish()`` calls
        ``prune()``, so any temp file seen here belongs to a dead
        publisher and is garbage.
        """
        for name in os.listdir(self.directory):
            if (
                name.startswith(".tmp-")
                or name.startswith(f".{_CURRENT_NAME}.tmp.")
                or ".npz.tmp-" in name
            ):
                try:
                    os.remove(os.path.join(self.directory, name))
                except OSError:  # pragma: no cover - raced with a cleaner
                    pass

    def _remove_payloads(self, manifest_name: str) -> None:
        stem = manifest_name[:-4]
        for name in os.listdir(self.directory):
            if name.startswith(f"{stem}.shard") and name.endswith(".npz"):
                os.remove(os.path.join(self.directory, name))
