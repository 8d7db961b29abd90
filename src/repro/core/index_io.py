"""Index persistence: save / load a built K-dash index.

The paper's precomputation (reordering + LU + triangular inversion) is
the expensive part; queries are sub-millisecond.  Persisting the index
makes the precomputation a one-time cost per graph, the deployment model
the paper assumes ("if we precompute and store ... we can get the
proximities efficiently").

Format: a single ``.npz`` archive holding the permutation, both sparse
inverses (CSC/CSR triples), the estimator arrays, the restart
probability, and the graph's weighted edge list (needed to rebuild the
BFS schedule at query time).  The writers use ``np.savez``: a zip of
*stored* (uncompressed) ``.npy`` members.  Zip still checks each
member's CRC-32 as it is read, and any failure reading a member (a bad
CRC, a truncated or missing member, a malformed header) raises
:class:`~repro.exceptions.SerializationError` naming the file and the
member.

Six format versions exist; the writers emit v4 and v6, the loaders
read all six:

- **v1** stored only the factor state; loading re-derived every
  query-invariant cache (successor lists, per-query proximity mass, the
  :class:`~repro.query.prepared.PreparedIndex` mirrors).
- **v2** additionally persists the ``PreparedIndex`` query-invariant
  caches — the flattened successor lists and the exact per-query
  proximity mass ``S(q)`` — so a loading process (e.g. a replica-pool
  worker adopting a published snapshot) skips the re-preparation work
  entirely.
- **v3** (sharded) is a **manifest plus one payload file per shard**,
  written by :func:`save_sharded_index`.  The manifest
  (``<stem>.npz``) holds the shard-invariant state every participant
  needs — the seed-side ``L^-1`` triple, the permutation ``position``,
  the exact proximity mass, the node→shard ``assignment``, the
  partitioner spec, and the per-shard :class:`ShardSummary` arrays
  (``colmax`` bound vectors, row-norm maxima, boundary fractions) —
  plus the basenames of the shard files.  Each shard file
  (``<stem>.shard<NNN>.npz``) holds only that shard's scan payload:
  its members, their scan order/norms and their ``U^-1`` rows as a
  concatenated CSR triple; the within-shard block summaries are
  derived from those rows on load, not stored.  A gather node loads
  everything (:func:`load_sharded_index`); a shard worker passes
  ``only={i}`` and loads the manifest plus its own payload.  A manifest
  referencing a shard file that is missing (or unreadable) raises a
  clear :class:`~repro.exceptions.SerializationError` naming both
  files.
- **v4** (current single-index format, :func:`save_index`) has the v2
  members, names and numeric dtypes, stored instead of deflated, with
  ``labels`` as fixed-width unicode (empty when the graph is
  unlabelled).
- **v5** is v3 the same way: stored members, with ``labels`` and
  ``shard_files`` as fixed-width unicode.
- **v6** (current sharded format, :func:`save_sharded_index`) moves
  ``L^-1`` out of the manifest and into the shard payloads: each
  payload also holds its members' ``L^-1`` columns, as a CSC triple
  (``l_inv_indptr``/``l_inv_indices``/``l_inv_data``) over the
  ascending ``members``.  The manifest also drops ``position`` and
  ``total_mass_perm``, which no shard scan reads; no manifest member
  is then O(nnz(L^-1)), and a shard worker's ``only={i}`` load holds
  only its own members' seed columns.  A v3 or v5 manifest's ``L^-1``
  is split by home shard (through its ``position``) as it loads, so
  every version loads into the one in-memory layout.

No v4–v6 member has object dtype, so they load with
``allow_pickle=False``, and an object member in one is refused with a
``SerializationError`` before anything is unpickled.  v1–v3 were
written deflated, with their ``labels`` (and a v3 manifest's
``shard_files``) as pickled object arrays: those members are the only
pickle any loader still reads, and no serving pool accepts a v1–v3
snapshot.

Whether a version is sharded (v3, v5, v6) or a single index (v1, v2,
v4) is decided here, by :func:`is_sharded_version`.  v1 archives load
transparently (their caches are rebuilt on load); archives from
*future* versions are rejected with a clear
:class:`~repro.exceptions.SerializationError` instead of a numpy
``KeyError`` deep in the arrays, and sharded manifests fed to
:func:`load_index` (or single-index archives fed to
:func:`load_sharded_index`) are redirected with an explicit message
rather than a shape error.

:func:`load_index` rebuilds the graph in bulk
(:meth:`~repro.graph.digraph.DiGraph.from_edge_arrays`): the edge
arrays are validated whole, then the adjacency is filled in archive
order, so the loaded graph iterates its edges, successors and
predecessors exactly as the per-edge ``add_edge`` restore did.
"""

from __future__ import annotations

import os
import pickle
import zipfile
import zlib
from typing import Iterable, List, Optional

import numpy as np

from ..exceptions import GraphError, IndexNotBuiltError, SerializationError
from ..graph.digraph import DiGraph
from ..ordering.permutation import Permutation
from ..sparse import CSCMatrix, CSRMatrix
from .kdash import KDash
from .sharded import ShardIndex, ShardSummary, ShardedIndex, member_columns

#: The versions :func:`save_index` and :func:`save_sharded_index` write.
_FORMAT_VERSION = 4
_SHARDED_FORMAT_VERSION = 6

#: Every readable version, by layout.
_SINGLE_VERSIONS = (1, 2, 4)
_SHARDED_VERSIONS = (3, 5, 6)

#: Sharded versions whose manifest holds all of ``L^-1``.
_MANIFEST_L_INV_VERSIONS = (3, 5)

#: Versions whose object members (labels, a v3 manifest's shard_files)
#: are pickled.
_LEGACY_VERSIONS = (1, 2, 3)

#: What reading one archive member can raise: a bad CRC or a zip
#: structure error, a corrupt deflate stream (legacy archives), a
#: missing member, a malformed ``.npy`` header or an object member read
#: without pickle, and a short read.
_MEMBER_ERRORS = (
    zipfile.BadZipFile,
    zlib.error,
    KeyError,
    ValueError,
    EOFError,
    OSError,
)


def is_sharded_version(version: int) -> bool:
    """Whether format ``version`` is a sharded manifest (v3, v5, v6), to
    load with :func:`load_sharded_index`, rather than a single-index
    archive (v1, v2, v4) for :func:`load_index`."""
    return version in _SHARDED_VERSIONS


def is_legacy_version(version: int) -> bool:
    """Whether format ``version`` predates v4: its object members are
    pickled, so only a load that unpickles can read it."""
    return version in _LEGACY_VERSIONS


class _Archive:
    """An open ``.npz`` archive read without pickle.

    Every member read returns an array or raises
    :class:`~repro.exceptions.SerializationError` naming the file and
    the member.  A context manager: leaving it closes the file.
    """

    def __init__(self, path: str, what: str) -> None:
        self.path = path
        try:
            self._npz = np.load(path, allow_pickle=False)
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise SerializationError(f"cannot read {what} from {path!r}: {exc}") from exc
        if not isinstance(self._npz, np.lib.npyio.NpzFile):
            raise SerializationError(
                f"cannot read {what} from {path!r}: not an .npz archive"
            )

    def __enter__(self) -> "_Archive":
        return self

    def __exit__(self, *exc_info) -> None:
        self._npz.close()

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._npz[name]
        except _MEMBER_ERRORS as exc:
            raise self._error(name, exc) from exc

    def unpickle(self, name: str) -> np.ndarray:
        """Member ``name`` of a legacy (v1–v3) archive, object dtype
        allowed: the one read that unpickles."""
        try:
            with self._npz.zip.open(f"{name}.npy") as member:
                return np.lib.format.read_array(member, allow_pickle=True)
        except _MEMBER_ERRORS + (pickle.UnpicklingError,) as exc:
            raise self._error(name, exc) from exc

    def _error(self, name: str, exc: BaseException) -> SerializationError:
        return SerializationError(
            f"cannot read member {name!r} of {self.path!r}: {exc}"
        )

    def format_version(self) -> int:
        """The integer scalar ``format_version`` member."""
        try:
            version = self._npz["format_version"]
        except KeyError:
            raise SerializationError(
                f"archive {self.path!r} carries no format_version: not an "
                "archive written by save_index or save_sharded_index"
            ) from None
        except _MEMBER_ERRORS as exc:
            raise SerializationError(
                f"cannot read a format version from {self.path!r}: {exc}"
            ) from exc
        if version.shape != () or version.dtype.kind not in "iu":
            raise SerializationError(
                f"cannot read a format version from {self.path!r}: expected an "
                f"integer scalar, got a {version.dtype} array of shape {version.shape}"
            )
        return int(version)


def _labels_member(labels) -> np.ndarray:
    """``labels`` as fixed-width unicode, empty when there are none."""
    labels = [] if labels is None else [str(label) for label in labels]
    member = np.asarray(labels, dtype=str)
    if member.tolist() != labels:
        # Fixed-width unicode pads with NULs and drops trailing ones.
        raise SerializationError("a label ending in a NUL character cannot be saved")
    return member


def _read_labels(archive: _Archive, version: int) -> Optional[List[str]]:
    if is_legacy_version(version):
        labels = archive.unpickle("labels")
    else:
        labels = archive["labels"]
    return [str(label) for label in labels] if labels.size else None


def save_index(index, path: str) -> None:
    """Serialise a built index to ``path`` (numpy ``.npz``, format v4).

    Accepts a built :class:`~repro.core.kdash.KDash` or a
    :class:`~repro.core.dynamic.DynamicKDash` whose update batch has
    been fully compacted (``rebuild()`` flattens pending corrections
    into the base index).

    Raises
    ------
    IndexNotBuiltError
        If ``index.build()`` has not run.
    SerializationError
        On I/O failure, or when ``index`` is a dynamic wrapper with
        pending uncompacted corrections — persisting its base index
        would silently drop those updates from the archive.
    """
    # Duck-typed dynamic detection (mirrors QueryEngine): a DynamicKDash
    # exposes base_index + n_pending_columns, a plain KDash does not.
    if hasattr(index, "base_index"):
        pending = index.n_pending_columns
        if pending:
            raise SerializationError(
                f"cannot save a DynamicKDash with {pending} pending corrected "
                f"column{'s' if pending != 1 else ''}: the base index does not "
                "reflect the applied updates yet; call rebuild() to compact "
                "them first"
            )
        index = index.base_index
    if not index.is_built:
        raise IndexNotBuiltError("cannot save an index that has not been built")
    graph = index.graph
    edges = list(graph.edges())
    src = np.asarray([u for u, _, _ in edges], dtype=np.int64)
    dst = np.asarray([v for _, v, _ in edges], dtype=np.int64)
    wgt = np.asarray([w for _, _, w in edges], dtype=np.float64)
    # The PreparedIndex caches, flattened for the archive: successor
    # lists as a CSR-style (indptr, indices) pair, the proximity mass as
    # a dense vector.  Persisting them verbatim (instead of re-deriving
    # on load) both skips the preparation cost and guarantees the loaded
    # index scans nodes in the exact order the saved one did.
    succ_lists = index._succ_lists
    succ_indptr = np.zeros(graph.n_nodes + 1, dtype=np.int64)
    np.cumsum([len(s) for s in succ_lists], out=succ_indptr[1:])
    succ_indices = np.asarray(
        [v for s in succ_lists for v in s], dtype=np.int64
    )
    try:
        np.savez(
            path,
            format_version=_FORMAT_VERSION,
            n_nodes=graph.n_nodes,
            c=index.c,
            position=index._perm.position,
            l_inv_indptr=index._l_inv.indptr,
            l_inv_indices=index._l_inv.indices,
            l_inv_data=index._l_inv.data,
            u_inv_indptr=index._u_inv.indptr,
            u_inv_indices=index._u_inv.indices,
            u_inv_data=index._u_inv.data,
            amax_col=index._amax_col,
            amax=index._amax,
            diag=index._diag,
            edge_src=src,
            edge_dst=dst,
            edge_weight=wgt,
            labels=_labels_member(graph.labels),
            succ_indptr=succ_indptr,
            succ_indices=succ_indices,
            total_mass_perm=index._total_mass_perm,
            allow_pickle=False,
        )
    except OSError as exc:
        raise SerializationError(f"cannot write index to {path!r}: {exc}") from exc


def load_index(path: str) -> KDash:
    """Load an index previously written by :func:`save_index`.

    The returned object is query-ready (``is_built`` is ``True``); its
    ``build_report`` is ``None`` because the precomputation happened in a
    previous process.  v2 and v4 archives restore the persisted
    :class:`~repro.query.prepared.PreparedIndex` caches directly; v1
    archives rebuild them on load.  Only a v1/v2 archive's ``labels``
    member is unpickled.
    """
    with _Archive(path, "index") as archive:
        version = archive.format_version()
        if is_sharded_version(version):
            raise SerializationError(
                f"index archive {path!r} is a format-v{version} sharded "
                "manifest; load it with load_sharded_index()"
            )
        if version not in _SINGLE_VERSIONS:
            raise SerializationError(
                f"index archive {path!r} has format version {version}; this "
                f"build reads versions {_SINGLE_VERSIONS} — the archive was "
                "written by a newer release"
            )
        return _restore_index(archive, version)


def _restore_index(archive: _Archive, version: int) -> KDash:
    n = int(archive["n_nodes"])
    try:
        graph = DiGraph.from_edge_arrays(
            n,
            archive["edge_src"],
            archive["edge_dst"],
            archive["edge_weight"],
            labels=_read_labels(archive, version),
        )
    except GraphError as exc:
        raise SerializationError(
            f"index archive {archive.path!r} holds an invalid graph: {exc}"
        ) from exc

    index = KDash(graph, c=float(archive["c"]))
    index._perm = Permutation(archive["position"])
    index._l_inv = CSCMatrix(
        (n, n),
        archive["l_inv_indptr"],
        archive["l_inv_indices"],
        archive["l_inv_data"],
    )
    index._u_inv = CSRMatrix(
        (n, n),
        archive["u_inv_indptr"],
        archive["u_inv_indices"],
        archive["u_inv_data"],
    )
    index._amax_col = np.asarray(archive["amax_col"], dtype=np.float64)
    index._amax = float(archive["amax"])
    index._diag = np.asarray(archive["diag"], dtype=np.float64)

    if version >= 2:
        # Restore the persisted PreparedIndex caches: unflatten the
        # successor lists and hand the proximity mass straight through —
        # no adjacency conversion, no triangular products.
        bounds = archive["succ_indptr"].tolist()
        indices = archive["succ_indices"].tolist()
        succ_lists = [indices[a:b] for a, b in zip(bounds, bounds[1:])]
        index._finalise_query_path(
            succ_lists=succ_lists,
            total_mass_perm=archive["total_mass_perm"],
        )
    else:
        # v1 archive: rebuild the query-path acceleration structures
        # (successor lists, total proximity mass, PreparedIndex) exactly
        # as build() does.  Sets index._built.
        index._finalise_query_path()
    return index


# ----------------------------------------------------------------------
# Sharded formats: manifest + per-shard payloads
# ----------------------------------------------------------------------
def read_format_version(path: str) -> int:
    """The ``format_version`` of an archive, without loading its payload.

    Lets callers (e.g. the CLI) dispatch between :func:`load_index` and
    :func:`load_sharded_index` (see :func:`is_sharded_version`) on any
    saved artefact.  Nothing is unpickled: a ``format_version`` member
    that holds a pickled object, or anything but an integer scalar,
    raises :class:`~repro.exceptions.SerializationError`.
    """
    with _Archive(path, "a format version") as archive:
        return archive.format_version()


def _shard_filename(manifest_path: str, shard_id: int) -> str:
    """``foo.npz`` → ``foo.shard007.npz`` (next to the manifest)."""
    stem = manifest_path[:-4] if manifest_path.endswith(".npz") else manifest_path
    return f"{stem}.shard{shard_id:03d}.npz"


def _atomic_savez(path: str, **arrays) -> None:
    """Write an ``.npz`` via a same-directory temp name + rename."""
    tmp = f"{path}.tmp-{os.getpid()}.npz"
    try:
        np.savez(tmp, allow_pickle=False, **arrays)
        os.replace(tmp, path)
    except OSError as exc:
        raise SerializationError(f"cannot write {path!r}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_sharded_index(sharded: ShardedIndex, path: str) -> list:
    """Serialise a :class:`~repro.core.sharded.ShardedIndex` (format v6).

    Writes the shard payload files first and the manifest **last**, each
    through an atomic same-directory rename: a reader that can open the
    manifest is guaranteed to find every payload it references.  If the
    manifest cannot be written (or any later payload fails), the
    payloads already written under their final names are removed before
    the error propagates, so a failed save leaves no orphans.  Every
    shard payload must be loaded (a manifest-only / partial
    ``ShardedIndex`` cannot be re-saved).

    Returns the list of written paths, manifest last.
    """
    if path.endswith(".npz") and len(path) <= 4:
        raise SerializationError(f"cannot derive shard filenames from {path!r}")
    manifest_path = path if path.endswith(".npz") else f"{path}.npz"
    for shard_id, payload in enumerate(sharded.shards):
        if payload is None:
            raise SerializationError(
                f"cannot save a partially loaded ShardedIndex: shard "
                f"{shard_id} has no payload in this process"
            )
    written = []
    shard_files = []
    try:
        for shard_id in range(sharded.n_shards):
            payload = sharded.shards[shard_id]
            shard_path = _shard_filename(manifest_path, shard_id)
            _atomic_savez(
                shard_path,
                format_version=_SHARDED_FORMAT_VERSION,
                shard_id=shard_id,
                members=payload.members,
                scan_nodes=np.asarray(payload.scan_nodes, dtype=np.int64),
                scan_norms=np.asarray(payload.scan_norms, dtype=np.float64),
                row_indptr=np.asarray(payload.row_indptr, dtype=np.int64),
                row_indices=payload.row_indices,
                row_data=payload.row_data,
                l_inv_indptr=payload.l_inv_indptr,
                l_inv_indices=payload.l_inv_indices,
                l_inv_data=payload.l_inv_data,
            )
            shard_files.append(os.path.basename(shard_path))
            written.append(shard_path)
        _write_manifest(
            manifest_path, sharded, shard_files, _labels_member(sharded.labels)
        )
    except BaseException:
        for partial in written:
            try:
                os.remove(partial)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        raise
    written.append(manifest_path)
    return written


def _write_manifest(manifest_path, sharded, shard_files, labels) -> None:
    _atomic_savez(
        manifest_path,
        format_version=_SHARDED_FORMAT_VERSION,
        n_nodes=sharded.n,
        c=sharded.c,
        n_shards=sharded.n_shards,
        partitioner=sharded.partitioner,
        shard_seed=sharded.seed,
        assignment=sharded.assignment,
        shard_files=np.asarray(shard_files, dtype=str),
        summary_n_members=np.asarray(
            [s.n_members for s in sharded.summaries], dtype=np.int64
        ),
        summary_rownorm_max=np.asarray(
            [s.rownorm_max for s in sharded.summaries], dtype=np.float64
        ),
        summary_boundary_frac=np.asarray(
            [s.boundary_frac for s in sharded.summaries], dtype=np.float64
        ),
        summary_colmax=np.vstack(
            [s.colmax for s in sharded.summaries]
        )
        if sharded.summaries
        else np.zeros((0, sharded.n)),
        labels=labels,
    )


def load_sharded_index(
    path: str, only: Optional[Iterable[int]] = None
) -> ShardedIndex:
    """Load a sharded manifest written by :func:`save_sharded_index`.

    Reads format v6, v5 and legacy v3 (whose ``labels`` and
    ``shard_files`` are the only members unpickled).  A v3 or v5
    manifest's ``L^-1`` is split into the loaded shards' columns.

    Parameters
    ----------
    path:
        The manifest archive.
    only:
        Shard ids whose payload files to load; every other entry of
        ``ShardedIndex.shards`` stays ``None`` (manifest-only), and so
        do its members' seed columns.  A shard worker passes its own id;
        the default loads everything, which is what an in-process
        :class:`~repro.query.planner.ScatterGatherPlanner` needs.

    Raises
    ------
    SerializationError
        On unreadable archives or members, wrong format versions, and —
        explicitly, instead of a ``KeyError``/``FileNotFoundError`` from
        deep inside numpy — when the manifest references a shard file
        that is missing or unreadable.
    """
    with _Archive(path, "manifest") as manifest:
        version = manifest.format_version()
        if version in _SINGLE_VERSIONS:
            raise SerializationError(
                f"index archive {path!r} has single-index format version "
                f"{version}; load it with load_index() (or re-save it with "
                "save_sharded_index after sharding)"
            )
        if version not in _SHARDED_VERSIONS:
            raise SerializationError(
                f"sharded manifest {path!r} has format version {version}; this "
                f"build reads versions {_SHARDED_VERSIONS} — the archive "
                "was written by a newer release"
            )
        return _restore_sharded(manifest, version, only)


def _restore_sharded(
    manifest: _Archive, version: int, only: Optional[Iterable[int]]
) -> ShardedIndex:
    path = manifest.path
    n = int(manifest["n_nodes"])
    n_shards = int(manifest["n_shards"])
    only_set = None if only is None else {int(s) for s in only}
    if only_set is not None:
        bad = [s for s in only_set if not (0 <= s < n_shards)]
        if bad:
            raise SerializationError(
                f"manifest {path!r} has {n_shards} shards; requested "
                f"shard ids {sorted(bad)} do not exist"
            )
    l_inv = position = None
    if version in _MANIFEST_L_INV_VERSIONS:
        l_inv = CSCMatrix((n, n), *_l_inv_triple(manifest))
        position = np.asarray(manifest["position"], dtype=np.int64)
    colmax = np.asarray(manifest["summary_colmax"], dtype=np.float64)
    n_members = manifest["summary_n_members"]
    rownorm_max = manifest["summary_rownorm_max"]
    boundary_frac = manifest["summary_boundary_frac"]
    summaries = [
        ShardSummary(
            shard_id=shard_id,
            n_members=int(n_members[shard_id]),
            rownorm_max=float(rownorm_max[shard_id]),
            boundary_frac=float(boundary_frac[shard_id]),
            colmax=colmax[shard_id],
        )
        for shard_id in range(n_shards)
    ]
    directory = os.path.dirname(os.path.abspath(path))
    if is_legacy_version(version):
        shard_files = manifest.unpickle("shard_files")
    else:
        shard_files = manifest["shard_files"]
    shard_files = [str(name) for name in shard_files]
    shards = []
    for shard_id in range(n_shards):
        if only_set is not None and shard_id not in only_set:
            shards.append(None)
            continue
        shards.append(
            _load_shard(
                path, directory, shard_files[shard_id], shard_id, l_inv, position
            )
        )
    return ShardedIndex(
        n=n,
        c=float(manifest["c"]),
        assignment=manifest["assignment"],
        partitioner=str(manifest["partitioner"]),
        seed=int(manifest["shard_seed"]),
        shards=shards,
        summaries=summaries,
        labels=_read_labels(manifest, version),
    )


def _l_inv_triple(archive: _Archive) -> tuple:
    """The ``l_inv_indptr``/``l_inv_indices``/``l_inv_data`` members."""
    return tuple(archive[f"l_inv_{part}"] for part in ("indptr", "indices", "data"))


def _load_shard(
    path: str, directory: str, filename: str, shard_id: int, l_inv, position
) -> ShardIndex:
    """Shard ``shard_id``'s payload, named ``filename`` by manifest ``path``.

    ``l_inv`` is a v3/v5 manifest's ``L^-1``, whose columns
    ``position[members]`` become the shard's seed columns; ``None``
    reads them from a v6 payload.
    """
    shard_path = os.path.join(directory, filename)
    if not os.path.exists(shard_path):
        raise SerializationError(
            f"shard manifest {path!r} references missing shard file "
            f"{filename!r} (expected at {shard_path!r})"
        )
    try:
        payload = _Archive(shard_path, "shard file")
    except SerializationError as exc:
        raise SerializationError(
            f"shard manifest {path!r} references unreadable shard file "
            f"{shard_path!r}: {exc.__cause__ or exc}"
        ) from exc
    with payload:
        stored_id = int(payload["shard_id"])
        if stored_id != shard_id:
            raise SerializationError(
                f"shard file {shard_path!r} carries shard id "
                f"{stored_id}, expected {shard_id}"
            )
        members = payload["members"]
        if l_inv is None:
            columns = _l_inv_triple(payload)
        else:
            columns = member_columns(l_inv, position[members])
        return ShardIndex(
            shard_id,
            members,
            payload["scan_nodes"].tolist(),
            payload["scan_norms"].tolist(),
            payload["row_indptr"],
            payload["row_indices"],
            payload["row_data"],
            *columns,
        )
