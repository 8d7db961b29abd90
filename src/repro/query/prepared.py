"""Query-invariant index state, cached once at build time.

Every query mode of the K-dash search touches the same handful of
structures: the permutation, the successor lists of the graph, the CSR
triple of ``U^-1``, the estimator inputs ``Amax``/``Amax(v)`` and the
per-query total proximity mass.  The seed implementation re-derived the
expensive pieces *per query* — ``indptr.tolist()`` and
``amax_col.tolist()`` are O(n + nnz) conversions that dominated the cost
of small, heavily-pruned queries.  :class:`PreparedIndex` performs every
such conversion exactly once, at :meth:`KDash.build` time, so the kernel's
per-query setup is O(1) plus one sparse column scatter.

Two families of mirrors coexist, one per kernel-backend style:

- Contiguous numpy arrays (``position_arr``, ``amax_col_arr``,
  ``uinv_indptr_arr``) are built eagerly — the vectorised backends and
  the workspace scatters index them in bulk.
- Plain-Python lists (``position``, ``amax_col``, ``uinv_indptr``) are
  built **lazily** on first access: the pruned scan of the ``python``
  reference backend is a Python-level loop where list indexing beats
  numpy scalar indexing by a wide margin, but an index served entirely
  by the ``numpy`` backend never pays the O(n + nnz) ``tolist()``
  conversions at all.

The index also records its kernel-backend choice (:attr:`backend`) and
hosts the per-backend derived-state cache (``_backend_cache``) described
in :mod:`repro.query.backends.base`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np


class PreparedIndex:
    """Immutable bundle of query-invariant scan inputs.

    Attributes
    ----------
    n:
        Number of nodes.
    c:
        Restart probability.
    c_prime:
        The Definition 2 multiplier ``(1-c)/(1-(1-c)·max_u A_uu)``,
        hoisted out of the per-query hot path.
    amax / amax_col:
        Global and per-column maxima of the transition matrix
        (``amax_col`` as a lazy plain list for O(1) scalar reads;
        ``amax_col_arr`` the eager array).
    position:
        ``original id -> permuted position`` (lazy plain list;
        ``position_arr`` the eager array).
    succ_lists:
        Out-neighbour list per node (the lazy-BFS adjacency).
    uinv_indptr / uinv_indices / uinv_data:
        The CSR triple of ``U^-1`` (``indptr`` lazily list-ified;
        ``uinv_indptr_arr`` the eager array).
    total_mass_perm:
        Exact per-query proximity mass ``S(q)``, indexed by permuted
        position (see :class:`~repro.core.estimator.ProximityEstimator`
        notes on dangling nodes).
    l_inv:
        The column-access ``L^-1`` (for workspace scatters).
    backend:
        Resolved kernel-backend name used when a scan does not select
        one explicitly (see :mod:`repro.query.backends`).

    Examples
    --------
    The workspace discipline of the batched serving path — scatter a
    seed column, scan, then clear only the touched rows:

    >>> from repro.core import KDash
    >>> from repro.graph import star_graph
    >>> prepared = KDash(star_graph(4), c=0.9).build().prepared
    >>> y = prepared.workspace()
    >>> rows = prepared.scatter_column(y, 2)
    >>> bool(y.any())
    True
    >>> prepared.clear_rows(y, rows)
    >>> bool(y.any())
    False
    >>> 0.0 < prepared.total_mass_of(0) <= 1.0
    True
    >>> from repro.query.backends import available_backends
    >>> prepared.backend in available_backends()
    True
    """

    __slots__ = (
        "n",
        "c",
        "c_prime",
        "amax",
        "amax_col_arr",
        "position_arr",
        "succ_lists",
        "uinv_indptr_arr",
        "uinv_indices",
        "uinv_data",
        "total_mass_perm",
        "l_inv",
        "backend",
        "_amax_col_list",
        "_position_list",
        "_uinv_indptr_list",
        "_backend_cache",
    )

    def __init__(
        self,
        *,
        n: int,
        c: float,
        max_diag: float,
        amax: float,
        amax_col: np.ndarray,
        position: np.ndarray,
        succ_lists: List[List[int]],
        u_inv,
        l_inv,
        total_mass_perm: np.ndarray,
        backend: Optional[str] = None,
    ) -> None:
        from .backends import resolve_backend_name

        self.n = int(n)
        self.c = float(c)
        self.c_prime = (1.0 - self.c) / (1.0 - (1.0 - self.c) * float(max_diag))
        self.amax = float(amax)
        self.amax_col_arr = np.ascontiguousarray(amax_col, dtype=np.float64)
        self.position_arr = np.ascontiguousarray(position, dtype=np.int64)
        self.succ_lists = succ_lists
        self.uinv_indptr_arr = np.ascontiguousarray(
            u_inv.indptr, dtype=np.int64
        )
        self.uinv_indices = u_inv.indices
        self.uinv_data = u_inv.data
        self.total_mass_perm = np.asarray(total_mass_perm, dtype=np.float64)
        self.l_inv = l_inv
        self.backend = resolve_backend_name(backend)
        self._amax_col_list = None
        self._position_list = None
        self._uinv_indptr_list = None
        self._backend_cache: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Lazy plain-Python mirrors (reference-backend hot-path structures)
    # ------------------------------------------------------------------
    @property
    def amax_col(self) -> List[float]:
        """``Amax(v)`` per node as a plain list (lazily materialised)."""
        if self._amax_col_list is None:
            self._amax_col_list = self.amax_col_arr.tolist()
        return self._amax_col_list

    @property
    def position(self) -> List[int]:
        """``original id -> permuted position`` list (lazy)."""
        if self._position_list is None:
            self._position_list = self.position_arr.tolist()
        return self._position_list

    @property
    def uinv_indptr(self) -> List[int]:
        """The ``U^-1`` CSR indptr as a plain list (lazy)."""
        if self._uinv_indptr_list is None:
            self._uinv_indptr_list = self.uinv_indptr_arr.tolist()
        return self._uinv_indptr_list

    @property
    def python_mirrors_built(self) -> bool:
        """Whether any of the plain-list mirrors has been materialised.

        Observability hook for the backend test-suite: an index served
        purely by a vectorised backend must keep this ``False``.
        """
        return not (
            self._amax_col_list is None
            and self._position_list is None
            and self._uinv_indptr_list is None
        )

    # ------------------------------------------------------------------
    # Workspace management
    # ------------------------------------------------------------------
    def workspace(self) -> np.ndarray:
        """A fresh all-zero dense workspace (reusable via :meth:`clear_rows`)."""
        return np.zeros(self.n, dtype=np.float64)

    def scatter_column(self, y: np.ndarray, node: int) -> np.ndarray:
        """Scatter ``L^-1[:, position[node]]`` into ``y``; return touched rows.

        ``y`` must be all-zero on entry.  Pass the returned rows to
        :meth:`clear_rows` afterwards to restore that invariant in
        O(nnz of the column) instead of O(n) — the core trick behind the
        batched serving path.
        """
        rows, vals = self.l_inv.column(int(self.position_arr[node]))
        y[rows] = vals
        return rows

    def clear_rows(self, y: np.ndarray, rows: np.ndarray) -> None:
        """Zero the rows previously touched by :meth:`scatter_column`."""
        y[rows] = 0.0

    def seed_workspace(self, shares: Dict[int, float]) -> Tuple[np.ndarray, float]:
        """Workspace and total mass for a *normalised* restart set.

        ``y = Σ_i w_i · L^-1[:, pos_i]`` and ``S = Σ_i w_i · S(q_i)``
        (clamped to 1; the 1e-12 cushion absorbs floating-point
        underestimation exactly as the single-query build-time clamp).
        """
        y = np.zeros(self.n, dtype=np.float64)
        total_mass = 0.0
        for node, share in shares.items():
            pos = int(self.position_arr[node])
            rows, vals = self.l_inv.column(pos)
            y[rows] += share * vals
            total_mass += share * float(self.total_mass_perm[pos])
        return y, min(1.0, total_mass + 1e-12)

    def total_mass_of(self, node: int) -> float:
        """Exact proximity mass ``S(q)`` for a single query node."""
        return float(self.total_mass_perm[self.position_arr[node]])
