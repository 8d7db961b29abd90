"""Dynamic K-dash: exact queries under edge updates, without rebuilding.

The paper's index is static — its conclusion points at dynamic graphs as
the natural next step ("will allow many more RWR-based applications to
be developed").  This module adds that capability in a mathematically
exact way:

An edge insertion/deletion touching node ``u`` changes *only column u*
of the column-normalised transition matrix (the column renormalises).
A batch of updates touching columns ``U = {u_1..u_r}`` is therefore the
low-rank correction

.. math:: W' = W - (1-c)\\, D E^T

with ``D`` holding the column deltas and ``E`` the touched basis
vectors.  By the Woodbury identity,

.. math::

    W'^{-1} = W^{-1} + W^{-1} D \\Bigl(\\tfrac{1}{1-c} I - E^T W^{-1} D\\Bigr)^{-1}
              E^T W^{-1}

every quantity of which the built index can produce: ``W^{-1} x`` is two
sparse triangular products with the stored inverses.  Queries under
pending updates therefore cost one full ``W^{-1} e_q`` product plus an
``r``-dimensional correction — exact, but without the pruned search —
and :meth:`DynamicKDash.rebuild` re-establishes the fast path when the
update batch has grown past :attr:`rebuild_threshold`.

The correction state is maintained **incrementally**: each touched
column contributes one cached ``W^{-1} d_u`` product, computed when the
column first goes stale and reused for every later batch that leaves it
untouched.  A new batch therefore costs one triangular product per
*newly or re-touched* column plus one ``r × r`` core inversion — the
rank grows with the touched-column set, but earlier columns are never
recomputed.  Columns whose accumulated delta cancels out (e.g. a
delete-then-reinsert of the same edge) drop out of the correction
entirely, shrinking the rank back.

``W'`` stays strictly column diagonally dominant (the updated ``A`` is
still column-substochastic), so the small core matrix is always
invertible.

For serving workloads, wrap the wrapper in a
:class:`~repro.query.engine.QueryEngine`: the engine tracks
:attr:`update_serial` to invalidate its result cache per update batch
(epochs), routes queries through the corrected path while updates are
pending, and applies a :class:`~repro.query.engine.RebuildPolicy` to
swap in a freshly built index once the correction rank or the measured
query slowdown grows too large.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..exceptions import InvalidParameterError
from ..graph.digraph import DiGraph
from ..graph.matrices import column_normalized_adjacency
from ..rwr.proximity import top_k_from_vector
from ..validation import (
    check_k,
    check_node_id,
    check_positive_int,
    check_restart_set,
    check_threshold,
)
from .kdash import KDash
from .topk import TopKResult


@dataclass(frozen=True)
class UpdateReport:
    """What one :meth:`DynamicKDash.apply_updates` batch did.

    Attributes
    ----------
    n_inserted / n_deleted:
        Edge insertions / deletions applied by the batch.
    touched_columns:
        Distinct transition-matrix columns the batch touched.
    pending_rank:
        Correction rank after the batch (distinct columns whose delta
        against the built index is nonzero); ``0`` right after a rebuild.
    rebuilt:
        Whether the batch tripped :attr:`DynamicKDash.rebuild_threshold`.
    seconds:
        Wall-clock time of the whole batch (mutation + correction
        maintenance + any rebuild).
    """

    n_inserted: int
    n_deleted: int
    touched_columns: Tuple[int, ...]
    pending_rank: int
    rebuilt: bool
    seconds: float


class DynamicKDash:
    """A K-dash index that absorbs edge updates exactly.

    Parameters
    ----------
    graph:
        Initial graph (copied; later mutations go through this wrapper).
    c:
        Restart probability.
    reordering:
        Forwarded to the underlying :class:`~repro.core.kdash.KDash`.
    rebuild_threshold:
        Rebuild automatically once this many *distinct columns* have
        pending updates (the correction cost grows with the batch rank).
        ``None`` disables auto-rebuild.

    Examples
    --------
    >>> from repro.graph import star_graph
    >>> dyn = DynamicKDash(star_graph(4), c=0.9)
    >>> dyn.add_edge(1, 2)
    >>> result = dyn.top_k(1, 2)   # exact despite the pending update
    """

    def __init__(
        self,
        graph: DiGraph,
        c: float = 0.95,
        reordering="hybrid",
        rebuild_threshold: Optional[int] = 64,
    ) -> None:
        self.graph = graph.copy()
        self.c = c
        self._reordering = reordering
        if rebuild_threshold is not None:
            rebuild_threshold = check_positive_int(rebuild_threshold, "rebuild_threshold")
        self.rebuild_threshold = rebuild_threshold
        self._adopt(KDash(self.graph.copy(), c=c, reordering=reordering).build())
        self._reset_correction_state()
        self._serial = 0
        self.n_rebuilds = 0

    @classmethod
    def from_index(
        cls, index: KDash, rebuild_threshold: Optional[int] = 64
    ) -> "DynamicKDash":
        """Wrap an already-built (or loaded) index without rebuilding it.

        The serving path for persisted indexes: ``load_index`` the
        ``.npz``, adopt it here, and start applying updates.  The index's
        graph is copied, so mutations stay inside the wrapper.
        """
        if not index.is_built:
            index.build()
        dyn = cls.__new__(cls)
        dyn.graph = index.graph.copy()
        dyn.c = index.c
        dyn._reordering = index._strategy
        if rebuild_threshold is not None:
            rebuild_threshold = check_positive_int(rebuild_threshold, "rebuild_threshold")
        dyn.rebuild_threshold = rebuild_threshold
        dyn._adopt(index)
        dyn._reset_correction_state()
        dyn._serial = 0
        dyn.n_rebuilds = 0
        return dyn

    def _adopt(self, base: KDash) -> None:
        self._base = base
        self._base_adjacency = column_normalized_adjacency(base.graph)

    def _reset_correction_state(self) -> None:
        self._dirty_columns: Set[int] = set()
        self._stale_columns: Set[int] = set()
        self._wd_columns: Dict[int, np.ndarray] = {}
        self._core_cache: Optional[dict] = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    @property
    def n_pending_columns(self) -> int:
        """Distinct transition-matrix columns with pending updates."""
        return len(self._dirty_columns)

    @property
    def pending_rank(self) -> int:
        """Alias of :attr:`n_pending_columns` — the Woodbury correction rank."""
        return len(self._dirty_columns)

    @property
    def update_serial(self) -> int:
        """Monotone counter bumped by every mutation (not by rebuilds).

        Serving layers compare this against the last value they saw to
        invalidate result caches atomically per update batch; rebuilds
        do not change any query answer, so they leave it untouched.
        """
        return self._serial

    @property
    def base_index(self) -> KDash:
        """The underlying built index (fresh after every rebuild)."""
        return self._base

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Insert (or strengthen) edge ``u -> v``; queries stay exact."""
        self.graph.add_edge(u, v, weight)
        self._mark_dirty(u)
        self._maybe_auto_rebuild()

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge ``u -> v``; queries stay exact."""
        self.graph.remove_edge(u, v)
        self._mark_dirty(u)
        self._maybe_auto_rebuild()

    def set_edge_weight(self, u: int, v: int, weight: float) -> None:
        """Overwrite the weight of ``u -> v`` (created when absent)."""
        self.graph.set_edge_weight(u, v, weight)
        self._mark_dirty(u)
        self._maybe_auto_rebuild()

    def apply_updates(
        self,
        inserts: Iterable[tuple] = (),
        deletes: Iterable[Tuple[int, int]] = (),
    ) -> UpdateReport:
        """Apply one batch of edge updates and refresh the correction.

        Deletes are applied first, then inserts, so a batch may delete
        and re-insert the same edge.  Unlike the single-edge mutators the
        batch refreshes the Woodbury pieces *eagerly* — one triangular
        product per touched column plus one ``r × r`` core inversion — so
        queries arriving after the batch pay only the correction
        application, and columns whose delta cancelled out are dropped
        from the correction immediately.

        Parameters
        ----------
        inserts:
            Iterable of ``(u, v)`` or ``(u, v, weight)`` edge insertions
            (weight defaults to 1.0; parallel inserts accumulate weight,
            matching :meth:`~repro.graph.digraph.DiGraph.add_edge`).
        deletes:
            Iterable of ``(u, v)`` edge deletions.

        Returns
        -------
        UpdateReport
            Batch accounting, including the correction rank afterwards.
        """
        t0 = perf_counter()
        n_deleted = 0
        n_inserted = 0
        touched: Set[int] = set()
        # Each column is marked dirty the moment its mutation lands, so a
        # mid-batch failure (e.g. deleting a missing edge) leaves every
        # already-applied mutation covered by the correction — queries
        # stay exact even on a partially-applied batch.
        for item in deletes:
            u, v = (int(item[0]), int(item[1]))
            self.graph.remove_edge(u, v)
            self._mark_dirty(u)
            touched.add(u)
            n_deleted += 1
        for item in inserts:
            if len(item) == 2:
                u, v, w = int(item[0]), int(item[1]), 1.0
            elif len(item) == 3:
                u, v, w = int(item[0]), int(item[1]), float(item[2])
            else:
                raise InvalidParameterError(
                    f"insert must be (u, v) or (u, v, weight), got {item!r}"
                )
            self.graph.add_edge(u, v, w)
            self._mark_dirty(u)
            touched.add(u)
            n_inserted += 1
        rebuilds_before = self.n_rebuilds
        self._maybe_auto_rebuild()
        rebuilt = self.n_rebuilds > rebuilds_before
        if not rebuilt and self._dirty_columns:
            self._refresh_stale_columns()
        return UpdateReport(
            n_inserted=n_inserted,
            n_deleted=n_deleted,
            touched_columns=tuple(sorted(touched)),
            pending_rank=self.n_pending_columns,
            rebuilt=rebuilt,
            seconds=perf_counter() - t0,
        )

    def _mark_dirty(self, column: int) -> None:
        column = int(column)
        self._dirty_columns.add(column)
        self._stale_columns.add(column)
        self._core_cache = None
        self._serial += 1

    def _maybe_auto_rebuild(self) -> None:
        if (
            self.rebuild_threshold is not None
            and len(self._dirty_columns) >= self.rebuild_threshold
        ):
            self.rebuild()

    def rebuild(self) -> None:
        """Flatten pending updates into a fresh precomputation.

        Swaps a freshly built index (and its
        :class:`~repro.query.prepared.PreparedIndex`) in behind this
        handle; pending correction state is discarded.  The new index keeps
        the current one's LU and kernel backends.  Answers are
        unchanged — only the fast pruned path is restored — so
        :attr:`update_serial` is not bumped and serving caches stay valid.
        """
        base = self._base
        self._adopt(
            KDash(
                self.graph.copy(),
                c=self.c,
                reordering=self._reordering,
                lu_backend=base.lu_backend,
                kernel_backend=base.kernel_backend,
            ).build()
        )
        self._reset_correction_state()
        self.n_rebuilds += 1

    # ------------------------------------------------------------------
    # Woodbury machinery
    # ------------------------------------------------------------------
    def _w_inverse_product(self, vec_perm: np.ndarray) -> np.ndarray:
        """``W^-1 x`` in permuted coordinates via the stored inverses."""
        base = self._base
        return base._u_inv.matvec(base._l_inv.matvec(vec_perm))

    def _current_column(self, u: int) -> np.ndarray:
        """Column ``u`` of the *current* transition matrix, dense.

        Derived straight from the out-edges of ``u`` — no full-matrix
        normalisation per batch.  A dangling ``u`` yields the zero column,
        matching :func:`~repro.graph.matrices.column_normalized_adjacency`.
        """
        col = np.zeros(self.graph.n_nodes, dtype=np.float64)
        total = self.graph.out_weight(u)
        if total > 0.0:
            # Multiply by the reciprocal, exactly as the full-matrix
            # normalisation does, so an undone update cancels bit-for-bit.
            scale = 1.0 / total
            for v in self.graph.successors(u):
                col[v] = self.graph.edge_weight(u, v) * scale
        return col

    def _refresh_stale_columns(self) -> None:
        """Recompute ``W^-1 d_u`` for columns touched since the last refresh.

        The incremental part of the maintenance: only stale columns pay a
        triangular product; the cached products of untouched columns are
        reused verbatim.  Columns whose delta cancelled back to zero are
        dropped from the correction (rank shrinks).
        """
        if not self._stale_columns:
            return
        base = self._base
        n = self.graph.n_nodes
        position = base._perm.position
        for u in sorted(self._stale_columns):
            delta = (
                self._current_column(u)
                - self._base_adjacency[:, u].toarray().ravel()
            )
            if not delta.any():
                self._dirty_columns.discard(u)
                self._wd_columns.pop(u, None)
                continue
            d_perm = np.zeros(n, dtype=np.float64)
            d_perm[position] = delta
            self._wd_columns[u] = self._w_inverse_product(d_perm)
        self._stale_columns.clear()
        self._core_cache = None

    def _correction(self) -> dict:
        """Per-batch Woodbury pieces: touched columns, W^-1 D, core inverse."""
        self._refresh_stale_columns()
        if self._core_cache is not None:
            return self._core_cache
        base = self._base
        columns = sorted(self._dirty_columns)
        r = len(columns)
        position = base._perm.position
        w_inv_d = (
            np.column_stack([self._wd_columns[u] for u in columns])
            if r
            else np.zeros((self.graph.n_nodes, 0), dtype=np.float64)
        )
        touched_positions = position[np.asarray(columns, dtype=np.int64)]
        core = np.eye(r) / (1.0 - self.c) - w_inv_d[touched_positions, :]
        self._core_cache = {
            "columns": columns,
            "w_inv_d": w_inv_d,
            "core_inv": np.linalg.inv(core),
            "touched_positions": touched_positions,
        }
        return self._core_cache

    def _corrected_vector(self, y0_perm: np.ndarray) -> np.ndarray:
        """Exact proximity vector for restart workspace ``y0`` (permuted).

        ``c · W'^{-1} y0`` via the Woodbury identity, returned in
        original node order.  Callers must ensure at least one update is
        pending (otherwise use the base index's pruned path).
        """
        base = self._base
        w_inv_q = self._w_inverse_product(y0_perm)
        pieces = self._correction()
        if pieces["columns"]:
            coefficients = pieces["core_inv"] @ w_inv_q[pieces["touched_positions"]]
            w_inv_q = w_inv_q + pieces["w_inv_d"] @ coefficients
        return base._perm.unpermute_vector(self.c * w_inv_q)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def proximity_column(self, query: int) -> np.ndarray:
        """Exact proximity vector under all pending updates."""
        n = self.graph.n_nodes
        query = check_node_id(query, n, "query")
        base = self._base
        if not self._dirty_columns:
            return base.proximity_column(query)
        e_q = np.zeros(n, dtype=np.float64)
        e_q[int(base._perm.position[query])] = 1.0
        return self._corrected_vector(e_q)

    def top_k(self, query: int, k: int = 5) -> TopKResult:
        """Exact top-k under pending updates.

        With an empty update batch this delegates to the base index's
        pruned search; otherwise it ranks the corrected full vector
        (``n_computed = n`` reflects the exhaustive cost — call
        :meth:`rebuild` to restore pruning).
        """
        n = self.graph.n_nodes
        query = check_node_id(query, n, "query")
        k = check_k(k)
        if not self._dirty_columns:
            return self._base.top_k(query, k)
        vector = self.proximity_column(query)
        items = tuple(top_k_from_vector(vector, min(k, n)))
        return self._exhaustive_result(query, k, items)

    def above_threshold(self, query: int, threshold: float) -> TopKResult:
        """All nodes with proximity ≥ ``threshold``, exact under updates.

        Clean-state calls delegate to the base index's pruned scan;
        pending updates switch to the corrected full vector.
        """
        n = self.graph.n_nodes
        query = check_node_id(query, n, "query")
        threshold = check_threshold(threshold)
        if not self._dirty_columns:
            return self._base.above_threshold(query, threshold)
        vector = self.proximity_column(query)
        qualifying = np.flatnonzero(vector >= threshold)
        items = tuple(
            top_k_from_vector(vector, n)[: qualifying.size]
        )
        return self._exhaustive_result(query, len(items), items)

    def top_k_personalized(self, restart, k: int = 5) -> TopKResult:
        """Exact top-k for a weighted restart set, under pending updates."""
        n = self.graph.n_nodes
        k = check_k(k)
        shares = check_restart_set(restart, n)
        if not self._dirty_columns:
            return self._base.top_k_personalized(shares, k)
        base = self._base
        y0 = np.zeros(n, dtype=np.float64)
        for node, share in shares.items():
            y0[int(base._perm.position[node])] += share
        vector = self._corrected_vector(y0)
        items = tuple(top_k_from_vector(vector, min(k, n)))
        return self._exhaustive_result(min(shares), k, items)

    def _exhaustive_result(
        self, query: int, k: int, items: Tuple[Tuple[int, float], ...]
    ) -> TopKResult:
        """Wrap corrected-path answers with exhaustive-cost counters."""
        n = self.graph.n_nodes
        return TopKResult(
            query=query,
            k=k,
            items=items,
            n_visited=n,
            n_computed=n,
            n_pruned=0,
            terminated_early=False,
            padded=len(items) < k,
        )
