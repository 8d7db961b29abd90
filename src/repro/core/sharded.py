"""Partition-sharded K-dash: the index split into prunable shards.

The paper's tree-estimation bounds (Section 4.3, Lemmas 1–2) certify
that *unvisited nodes* cannot beat the running K-th proximity; the same
certify-then-skip idea lifts from nodes to whole **shards**.  A
:class:`ShardedIndex` partitions the node set (Louvain communities or
contiguous ranges), gives each shard the ``U^-1`` rows of its members,
and precomputes a compact :class:`ShardSummary` per shard whose
query-time upper bound dominates every member's proximity:

.. math::

    p_u \\;=\\; c \\cdot U^{-1}[u,:] \\cdot y
        \\;\\le\\; c \\sum_j \\max_{v \\in s} U^{-1}[v, j] \\; y_j

(both factors are non-negative — ``W^{-1} = \\sum_i (1-c)^i A'^i`` makes
the triangular inverses entrywise non-negative).  A scatter-gather plan
(:class:`~repro.query.planner.ScatterGatherPlanner`) scans the query's
home shard first, then visits remaining shards in descending bound
order and **skips every shard whose bound falls below the running
global K-th proximity** — the shard-level analogue of the Lemma 2
cut-off, and like it a pure pruning rule: answers stay bit-identical to
the single-index engine.

Within a shard the same argument runs one level down.  Members keep a
fixed scan order (descending ``U^-1`` row 1-norm, ties by id) and are
grouped into blocks of :data:`SCAN_BLOCK` consecutive members, each
summarised by the columnwise maximum of its rows.  A block's bound is
the smaller of its colmax contraction and the Hölder bound
``c · ||U^-1[u,:]||_1 · max(y)`` of its first (largest-norm) member;
blocks are visited in descending bound order and the first one whose
bound falls below the cut-off ends the scan.  Exact proximities are
computed as the *same* sparse-row dot over the *same* arrays as the
unified kernel (:func:`~repro.query.kernel.pruned_scan`), so every
reported float is bitwise equal to the single-index answer; the
canonical ``(proximity, -node)`` heap discipline shared with the kernel
makes tie resolution order-independent, which is what lets per-shard
candidates merge into the exact same top-k set.

The seed side is split the same way: each shard also carries its
members' ``L^-1`` columns, so the seed column of a query lives in its
home shard's payload.  A home scan returns that column with its reply,
and every remote scan of the query scatters the column it is handed
(:meth:`ShardedIndex.scan_request`).

The shard payloads are what the serving tier distributes: format-v6
archives (:mod:`repro.core.index_io`) persist one manifest (shared
state + summaries) plus one file per shard, and each
:class:`~repro.serving.sharded.ShardPool` worker loads the manifest and
only its own shard: its members' ``U^-1`` rows and ``L^-1`` columns.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import _sparsetools as _st

from ..community import louvain_communities
from ..exceptions import InvalidParameterError
from ..validation import check_choice, check_positive_int

#: Partitioner names accepted by :func:`shard_assignment` (and the CLI).
SHARD_PARTITIONERS = ("louvain", "range")

#: Relative slack applied to every shard/node upper bound before it is
#: compared against θ.  The bounds are mathematically ≥ the exact
#: proximity, but both sides are float64 reductions; the slack absorbs
#: the accumulated rounding (≲ n·ε relative) so a bound can never be
#: rounded *below* a proximity it must dominate.
BOUND_SLACK = 1.0 + 1e-9

#: Members per block of the within-shard scan: runs of consecutive
#: scan-order members that :func:`scan_shard` bounds, orders and skips
#: as a whole.
SCAN_BLOCK = 16


def shard_assignment(
    graph, n_shards: int, partitioner: str = "louvain", seed: int = 0
) -> np.ndarray:
    """Assign every node to a shard in ``0..n_shards-1``.

    ``louvain`` runs the Louvain method and folds its communities into
    ``n_shards`` groups greedily (largest community first onto the
    currently lightest shard) — communities stay whole, so the
    cross-shard edge mass Louvain minimised stays minimised.  ``range``
    cuts ``0..n-1`` into near-equal contiguous ranges — the degenerate
    partitioner that needs no graph structure at all (and the natural
    one after a cluster reordering, whose permuted ids are already
    community-contiguous).  Shards may come out empty when the graph is
    smaller than the shard count; every consumer handles that.

    Examples
    --------
    >>> from repro.graph import star_graph
    >>> shard_assignment(star_graph(3), 2, partitioner="range").tolist()
    [0, 0, 1, 1]
    """
    n_shards = check_positive_int(n_shards, "n_shards")
    partitioner = check_choice(partitioner, SHARD_PARTITIONERS, "partitioner")
    n = graph.n_nodes
    if partitioner == "range":
        return (np.arange(n, dtype=np.int64) * n_shards) // max(n, 1)
    partition = louvain_communities(graph, seed=seed)
    sizes = partition.sizes()
    shard_of_community = np.zeros(partition.n_communities, dtype=np.int64)
    load = [0] * n_shards
    # Stable largest-first onto the lightest shard: deterministic for a
    # given partition, balanced to within one community size.
    for community in np.argsort(-sizes, kind="stable"):
        target = min(range(n_shards), key=lambda s: (load[s], s))
        shard_of_community[community] = target
        load[target] += int(sizes[community])
    return shard_of_community[partition.assignment]


@dataclass(frozen=True)
class ShardSummary:
    """Compact per-shard state the gather side prunes with.

    Attributes
    ----------
    shard_id:
        The shard this summarises.
    n_members:
        Member count (0 for an empty shard).
    rownorm_max:
        ``max_u ||U^-1[u,:]||_1`` over members — the scalar summary used
        for reporting and as a last-resort bound.
    boundary_frac:
        Fraction of the members' out-edge weight that leaves the shard —
        the partition-quality signal (Louvain drives it down; ``range``
        on an unclustered graph does not).
    colmax:
        Length-``n`` columnwise maximum of the members' ``U^-1`` rows in
        permuted coordinates; :meth:`bound` contracts it against the
        query's scattered seed column.
    """

    shard_id: int
    n_members: int
    rownorm_max: float
    boundary_frac: float
    colmax: np.ndarray

    def bound(self, c: float, rows: np.ndarray, vals: np.ndarray) -> float:
        """Upper bound on any member's proximity for seed column ``vals``.

        ``rows``/``vals`` are the support of the dense workspace ``y``
        (the scatter of ``L^-1[:, position[q]]``), so the contraction
        costs O(nnz of the column), independent of shard size.
        """
        if not self.n_members or not rows.size:
            return 0.0
        return c * float(self.colmax[rows] @ vals) * BOUND_SLACK


class ShardIndex:
    """One shard's payload: its members' ``U^-1`` rows, pre-ordered, and
    their ``L^-1`` columns.

    ``scan_nodes`` holds the member node ids sorted by descending
    ``U^-1`` row 1-norm (ties by ascending id), ``row_indptr`` /
    ``row_indices`` / ``row_data`` the members' rows concatenated in
    that order — each row slice copied *verbatim* from the global
    ``U^-1`` CSR so the per-node dot product reproduces the unified
    kernel's float result bit-for-bit.

    ``l_inv_indptr`` / ``l_inv_indices`` / ``l_inv_data`` are the CSC
    triple of the members' seed columns ``L^-1[:, position[u]]``, one
    per entry of the ascending ``members``, again copied verbatim (see
    :func:`member_columns`).

    ``block_indptr`` / ``block_indices`` / ``block_data`` are derived
    from those rows, not stored: one CSR row per block of
    :data:`SCAN_BLOCK` consecutive members, holding the columnwise
    maximum of the block's rows (see :func:`block_bounds`).
    """

    __slots__ = (
        "shard_id",
        "members",
        "scan_nodes",
        "scan_norms",
        "row_indptr",
        "row_indices",
        "row_data",
        "l_inv_indptr",
        "l_inv_indices",
        "l_inv_data",
        "block_indptr",
        "block_indices",
        "block_data",
        "_backend_cache",
    )

    def __init__(
        self,
        shard_id: int,
        members: np.ndarray,
        scan_nodes: Sequence[int],
        scan_norms: Sequence[float],
        row_indptr: np.ndarray,
        row_indices: np.ndarray,
        row_data: np.ndarray,
        l_inv_indptr: np.ndarray,
        l_inv_indices: np.ndarray,
        l_inv_data: np.ndarray,
    ) -> None:
        self.shard_id = int(shard_id)
        self.members = np.asarray(members, dtype=np.int64)
        # Plain-Python mirrors for the scan loop, mirroring PreparedIndex.
        self.scan_nodes = [int(u) for u in scan_nodes]
        self.scan_norms = [float(b) for b in scan_norms]
        self.row_indptr = np.asarray(row_indptr, dtype=np.int64).tolist()
        self.row_indices = np.asarray(row_indices, dtype=np.int64)
        self.row_data = np.asarray(row_data, dtype=np.float64)
        self.l_inv_indptr = np.asarray(l_inv_indptr, dtype=np.int64)
        self.l_inv_indices = np.asarray(l_inv_indices, dtype=np.int64)
        self.l_inv_data = np.asarray(l_inv_data, dtype=np.float64)
        if self.l_inv_indptr.size != self.members.size + 1:
            raise InvalidParameterError(
                f"shard {self.shard_id} has {self.members.size} members but "
                f"{self.l_inv_indptr.size - 1} L^-1 columns"
            )
        (
            self.block_indptr,
            self.block_indices,
            self.block_data,
        ) = _block_colmax(self.row_indptr, self.row_indices, self.row_data)
        # Per-backend derived state (numpy mirrors, scratch buffers),
        # keyed by kernel-backend name; see repro.query.backends.base.
        self._backend_cache: dict = {}

    @property
    def n_members(self) -> int:
        return len(self.scan_nodes)

    def seed_column(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, vals)`` views of member ``node``'s ``L^-1`` column."""
        i = int(np.searchsorted(self.members, node))
        if i == self.members.size or self.members[i] != node:
            raise InvalidParameterError(
                f"node {node} is not a member of shard {self.shard_id}"
            )
        lo, hi = self.l_inv_indptr[i], self.l_inv_indptr[i + 1]
        return self.l_inv_indices[lo:hi], self.l_inv_data[lo:hi]


def member_columns(
    l_inv, columns: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSC triple of columns ``columns`` of the
    :class:`~repro.sparse.csc.CSCMatrix` ``l_inv``, in that order, each
    copied verbatim: one ``csr_row_index`` gather."""
    columns = np.asarray(columns, dtype=np.int64)
    if columns.size and not (0 <= columns.min() and columns.max() < l_inv.shape[1]):
        raise InvalidParameterError(
            f"column ids must lie in [0, {l_inv.shape[1]}) for a shard's seed columns"
        )
    indptr = l_inv.indptr
    out_ptr = np.zeros(columns.size + 1, dtype=np.int64)
    np.cumsum(indptr[columns + 1] - indptr[columns], out=out_ptr[1:])
    out_idx = np.empty(int(out_ptr[-1]), dtype=np.int64)
    out_dat = np.empty(int(out_ptr[-1]), dtype=np.float64)
    _st.csr_row_index(
        columns.size, columns, indptr, l_inv.indices, l_inv.data, out_idx, out_dat
    )
    return out_ptr, out_idx, out_dat


def _block_colmax(
    indptr: List[int], indices: np.ndarray, data: np.ndarray
) -> Tuple[List[int], np.ndarray, np.ndarray]:
    """The columnwise max of each :data:`SCAN_BLOCK` run of rows, as CSR.

    Built one block at a time, so no temporary the size of the whole
    shard is ever allocated.
    """
    n_rows = len(indptr) - 1
    block_indptr = [0]
    columns, maxima = [], []
    for first in range(0, n_rows, SCAN_BLOCK):
        lo, hi = indptr[first], indptr[min(first + SCAN_BLOCK, n_rows)]
        cols, inverse = np.unique(indices[lo:hi], return_inverse=True)
        colmax = np.zeros(cols.size, dtype=np.float64)
        np.maximum.at(colmax, inverse, data[lo:hi])
        columns.append(cols)
        maxima.append(colmax)
        block_indptr.append(block_indptr[-1] + cols.size)
    if not columns:
        return block_indptr, np.zeros(0, dtype=np.int64), np.zeros(0)
    return block_indptr, np.concatenate(columns), np.concatenate(maxima)


def canonical_heap(n: int, k: int) -> List[Tuple[float, int, int]]:
    """A candidate heap primed with ``min(k, n)`` dummies, kernel-compatible.

    Entries are ``(proximity, -node, node)`` exactly as in
    :func:`~repro.query.kernel.pruned_scan`, so the heap minimum is the
    canonically worst retained answer and merging candidates from any
    number of shard scans resolves ties identically to one global scan.
    No answer has more than ``n`` nodes, so a larger ``k`` gets the
    same heap as ``k = n``.
    """
    heap = [(0.0, -(n + j), -1) for j in range(min(k, n))]
    heapq.heapify(heap)
    return heap


def heap_admit(
    heap: List[Tuple[float, int, int]], node: int, proximity: float
) -> None:
    """Admit one candidate under the canonical ordering, in place.

    This is THE tie-break contract: higher proximity wins, equal
    proximity falls to the smaller node id.  The pruned-scan kernel
    keeps a hand-inlined copy of the same two-clause test in its hot
    loop (see :func:`repro.query.kernel.pruned_scan`); any drift
    between the two breaks the sharded tier's bit-identical guarantee
    and is caught immediately by the golden fixtures
    (``tests/unit/test_golden.py``, which replays tie-heavy grids
    through both paths) and ``tests/property/test_prop_sharded.py``.
    """
    worst = heap[0]
    if proximity > worst[0] or (proximity == worst[0] and -node > worst[1]):
        heapq.heapreplace(heap, (proximity, -node, node))


def merge_candidates(
    heap: List[Tuple[float, int, int]], items: Sequence[Tuple[int, float]]
) -> float:
    """Fold ``(node, proximity)`` candidates into the canonical heap.

    Returns the new θ (the heap minimum's proximity).  Primes a shard
    scan with the gather's running candidates
    (:meth:`ShardedIndex.scan_request`) and gives the gather the θ of
    each reply (:class:`~repro.query.planner.Gather`).
    """
    for node, proximity in items:
        heap_admit(heap, node, proximity)
    return heap[0][0]


def heap_items(heap: List[Tuple[float, int, int]]) -> Tuple[Tuple[int, float], ...]:
    """The real ``(node, proximity)`` entries of a canonical heap."""
    return tuple((node, p) for p, _, node in heap if node >= 0)


def block_bounds(
    shard: ShardIndex, c: float, y: np.ndarray, ymax: float
) -> List[float]:
    """Per-block upper bounds on a shard's member proximities.

    Block ``b`` holds scan-order members ``b·SCAN_BLOCK`` up to the next
    block.  Its bound is the smaller of two that each dominate every
    member: ``c·Σ_j colmax_b[j]·y_j`` (the canonical reduction over the
    block's summary row) and ``c·max(y)·||U^-1 row||_1`` of the block's
    first member, whose norm is the block's largest.  Both carry
    :data:`BOUND_SLACK`.  This is the reference every kernel backend's
    ``scan_shard`` reproduces.
    """
    indptr = shard.block_indptr
    indices = shard.block_indices
    data = shard.block_data
    norms = shard.scan_norms
    holder = c * ymax
    bounds = []
    for b in range(len(indptr) - 1):
        lo, hi = indptr[b], indptr[b + 1]
        colmax = c * float(
            (data[lo:hi] * y[indices[lo:hi]]).cumsum()[-1] + 0.0
        ) if hi > lo else 0.0
        bounds.append(min(colmax, holder * norms[b * SCAN_BLOCK]) * BOUND_SLACK)
    return bounds


def scan_shard_reference(
    shard: ShardIndex,
    c: float,
    y: np.ndarray,
    ymax: float,
    heap: List[Tuple[float, int, int]],
) -> Tuple[int, int]:
    """The scalar reference shard scan — the exactness oracle.

    This is the loop every registered kernel backend's ``scan_shard``
    must reproduce bit-for-bit (heap state, θ evolution, counters); the
    ``python`` backend calls it directly.  The proximity reduction is
    the canonical sequential sum in storage order (see
    :mod:`repro.query.backends.base`), with the trailing ``+ 0.0``
    pinning the accumulator-starts-at-+0.0 signed-zero convention.
    """
    nodes = shard.scan_nodes
    indptr = shard.row_indptr
    indices = shard.row_indices
    data = shard.row_data
    admit = heap_admit
    bounds = block_bounds(shard, c, y, ymax)
    checked = 0
    computed = 0
    for b in sorted(range(len(bounds)), key=lambda b: (-bounds[b], b)):
        theta = heap[0][0]
        first = b * SCAN_BLOCK
        last = min(first + SCAN_BLOCK, len(nodes))
        checked += last - first
        if bounds[b] < theta:
            break
        for i in range(first, last):
            lo, hi = indptr[i], indptr[i + 1]
            proximity = c * float(
                (data[lo:hi] * y[indices[lo:hi]]).cumsum()[-1] + 0.0
            ) if hi > lo else 0.0
            admit(heap, nodes[i], proximity)
        computed += last - first
    return checked, computed


def scan_shard(
    shard: ShardIndex,
    c: float,
    y: np.ndarray,
    ymax: float,
    heap: List[Tuple[float, int, int]],
    backend=None,
) -> Tuple[int, int]:
    """Scan one shard's members against the canonical heap, in place.

    Blocks of :data:`SCAN_BLOCK` members are visited in descending
    :func:`block_bounds` order (ties by block index); a visited block
    has every member's exact proximity offered to the heap.  The first
    block whose bound drops below θ, the heap minimum, certifies every
    later block is out too (their bounds are no larger and θ only
    grows) — the cross-shard Lemma 2 argument one level down.  A heap
    primed with candidates found elsewhere (see
    :meth:`ShardedIndex.scan_request`) starts the scan at their θ.

    ``backend`` selects the kernel backend (name, backend object, or
    ``None`` for the ``REPRO_KERNEL_BACKEND`` environment default); all
    backends are bit-identical, see :mod:`repro.query.backends`.

    Returns ``(n_checked, n_computed)``: the members of every block
    whose bound was compared with θ (the block that ended the scan
    included), and the members whose exact proximity was computed.
    """
    # Function-level import: repro.query.backends imports this module
    # for the reference loop above.
    from ..query.backends import get_backend

    return get_backend(backend).scan_shard(shard, c, y, ymax, heap)


class ShardedIndex:
    """A built K-dash index split into bound-prunable shards.

    Construction does **not** refactorise anything: the global
    precomputation (reordering, LU, triangular inverses) happens once in
    :meth:`KDash.build`, and :meth:`from_index` re-slices its ``U^-1``
    rows and ``L^-1`` columns by shard.  Shared, shard-invariant state —
    the node→shard assignment and the shard summaries — is held once
    (and persisted once, in the sharded manifest); each worker of a
    distributed deployment additionally holds only its own shard's
    payload, its members' rows and seed columns, roughly ``1/n_shards``
    of the index.  Nothing else of the source index is kept: no scan
    reads the permutation or the per-query proximity mass.

    Parameters mirror the persisted layout; build through
    :meth:`from_index` (or :func:`repro.core.index_io.load_sharded_index`).

    Examples
    --------
    >>> from repro.core import KDash
    >>> from repro.graph import star_graph
    >>> sharded = ShardedIndex.from_index(
    ...     KDash(star_graph(6), c=0.9).build(), 2, partitioner="range")
    >>> (sharded.n_shards, sharded.home_shard(0), sharded.home_shard(6))
    (2, 0, 1)
    >>> sorted(len(s.members) for s in sharded.shards)
    [3, 4]
    """

    def __init__(
        self,
        *,
        n: int,
        c: float,
        assignment: np.ndarray,
        partitioner: str,
        seed: int,
        shards: List[Optional[ShardIndex]],
        summaries: List[ShardSummary],
        labels: Optional[List[str]] = None,
    ) -> None:
        self.n = int(n)
        self.c = float(c)
        self.assignment = np.asarray(assignment, dtype=np.int64)
        self.partitioner = str(partitioner)
        self.seed = int(seed)
        self.shards = shards
        self.summaries = summaries
        self.labels = labels
        if len(shards) != len(summaries):
            raise InvalidParameterError(
                "shards and summaries must have equal length"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_index(
        cls,
        index,
        n_shards: int,
        partitioner: str = "louvain",
        seed: int = 0,
    ) -> "ShardedIndex":
        """Slice a built :class:`~repro.core.kdash.KDash` into shards."""
        if not index.is_built:
            index.build()
        prepared = index.prepared
        graph = index.graph
        n = prepared.n
        assignment = shard_assignment(graph, n_shards, partitioner, seed)
        position = prepared.position
        indptr = prepared.uinv_indptr
        indices = prepared.uinv_indices
        data = prepared.uinv_data

        shards: List[ShardIndex] = []
        summaries: List[ShardSummary] = []
        for shard_id in range(n_shards):
            members = np.flatnonzero(assignment == shard_id)
            norms = []
            for u in members:
                lo, hi = indptr[position[u]], indptr[position[u] + 1]
                norms.append(float(data[lo:hi].sum()))
            # Descending row norm, ascending id on ties: the scan order.
            order = sorted(
                range(len(members)), key=lambda i: (-norms[i], int(members[i]))
            )
            scan_nodes = [int(members[i]) for i in order]
            scan_norms = [norms[i] for i in order]
            row_indptr = np.zeros(len(members) + 1, dtype=np.int64)
            slices = []
            colmax = np.zeros(n, dtype=np.float64)
            for out, u in enumerate(scan_nodes):
                lo, hi = indptr[position[u]], indptr[position[u] + 1]
                row_indptr[out + 1] = row_indptr[out] + (hi - lo)
                slices.append((lo, hi))
                np.maximum.at(colmax, indices[lo:hi], data[lo:hi])
            row_indices = (
                np.concatenate([indices[lo:hi] for lo, hi in slices])
                if slices
                else np.zeros(0, dtype=np.int64)
            )
            row_data = (
                np.concatenate([data[lo:hi] for lo, hi in slices])
                if slices
                else np.zeros(0, dtype=np.float64)
            )
            boundary = 0.0
            total = 0.0
            member_set = set(int(u) for u in members)
            for u in member_set:
                for v in graph.successors(u):
                    w = graph.edge_weight(u, v)
                    total += w
                    if v not in member_set:
                        boundary += w
            shards.append(
                ShardIndex(
                    shard_id,
                    members,
                    scan_nodes,
                    scan_norms,
                    row_indptr,
                    row_indices,
                    row_data,
                    *member_columns(prepared.l_inv, prepared.position_arr[members]),
                )
            )
            summaries.append(
                ShardSummary(
                    shard_id=shard_id,
                    n_members=len(scan_nodes),
                    rownorm_max=max(scan_norms, default=0.0),
                    boundary_frac=(boundary / total) if total else 0.0,
                    colmax=colmax,
                )
            )
        return cls(
            n=n,
            c=prepared.c,
            assignment=assignment,
            partitioner=partitioner,
            seed=seed,
            shards=shards,
            summaries=summaries,
            labels=list(graph.labels) if graph.labels else None,
        )

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.summaries)

    @property
    def spec(self) -> Tuple[int, str, int]:
        """``(n_shards, partitioner, seed)`` — enough to re-derive."""
        return (self.n_shards, self.partitioner, self.seed)

    def home_shard(self, node: int) -> int:
        """The shard owning ``node`` — where its scatter phase starts."""
        return int(self.assignment[node])

    def shard(self, shard_id: int) -> ShardIndex:
        """The payload of ``shard_id``; raises if not loaded (manifest-only)."""
        if not (0 <= shard_id < self.n_shards):
            raise InvalidParameterError(
                f"shard {shard_id} out of range (n_shards={self.n_shards})"
            )
        payload = self.shards[shard_id]
        if payload is None:
            raise InvalidParameterError(
                f"shard {shard_id} was not loaded into this process "
                "(manifest-only / partial load)"
            )
        return payload

    # ------------------------------------------------------------------
    # Workspace plumbing (mirrors PreparedIndex)
    # ------------------------------------------------------------------
    def workspace(self) -> np.ndarray:
        """A fresh all-zero dense seed workspace."""
        return np.zeros(self.n, dtype=np.float64)

    def seed_column(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, vals)`` of ``L^-1[:, position[node]]``, read from the
        payload of ``node``'s home shard (which must be loaded)."""
        return self.shard(self.home_shard(node)).seed_column(node)

    def scatter_column(self, y: np.ndarray, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """Scatter ``L^-1[:, position[node]]`` into ``y``.

        Returns ``(rows, vals)`` — the column's support, which both
        restores the workspace in O(nnz) and feeds the per-shard bound
        contraction.
        """
        rows, vals = self.seed_column(node)
        y[rows] = vals
        return rows, vals

    def clear_rows(self, y: np.ndarray, rows: np.ndarray) -> None:
        """Zero the rows previously touched by :meth:`scatter_column`."""
        y[rows] = 0.0

    def shard_bounds(
        self, rows: np.ndarray, vals: np.ndarray
    ) -> List[float]:
        """Per-shard proximity upper bounds for one scattered seed column."""
        return [s.bound(self.c, rows, vals) for s in self.summaries]

    def scan_request(
        self,
        y: np.ndarray,
        shard_id: int,
        query: int,
        k: int,
        candidates: Sequence[Tuple[int, float]] = (),
        seed: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        home: bool = False,
        backend=None,
    ):
        """Scan shard ``shard_id`` for one query, from a primed heap.

        Scatters the query's seed column ``seed`` — the ``(rows, vals)``
        a home reply returned; ``None`` reads it from the query's home
        payload, which must then be loaded — into the all-zero workspace
        ``y``, primes a canonical heap with the gather's running
        ``candidates``, runs :func:`scan_shard` and clears ``y`` again.
        A canonical heap evicts its dummies before any real entry, so
        the primed heap holds exactly the gather's entries and the scan
        prunes and admits under the gather's θ.  A ``home`` request also
        contracts every shard's summary bound against the seed column.

        Returns the reply :class:`~repro.query.planner.Gather` absorbs:
        ``(items, bounds, n_checked, n_computed, seed)`` for a ``home``
        request, so that the gather can hand the seed column on to the
        remote scans, and ``(items, None, n_checked, n_computed)`` for
        any other.
        """
        if seed is None:
            seed = self.seed_column(query)
        rows, vals = seed
        y[rows] = vals
        ymax = float(vals.max()) if vals.size else 0.0
        heap = canonical_heap(self.n, k)
        merge_candidates(heap, candidates)
        checked, computed = scan_shard(
            self.shard(shard_id), self.c, y, ymax, heap, backend=backend
        )
        self.clear_rows(y, rows)
        if home:
            bounds = self.shard_bounds(rows, vals)
            return heap_items(heap), bounds, checked, computed, seed
        return heap_items(heap), None, checked, computed
