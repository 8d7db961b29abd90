"""K-dash: the exact top-k RWR search index (Sections 4.2–4.4).

Build phase (:meth:`KDash.build`):

1. reorder the nodes with one of the Section 4.2.2 heuristics;
2. form ``W = I - (1-c) A'`` over the reordered transition matrix;
3. LU-factorise ``W`` without pivoting (Equations 6–7);
4. invert the triangular factors sparsely (Equations 4–5), storing
   ``L^-1`` column-wise and ``U^-1`` row-wise;
5. precompute the estimator inputs ``Amax``, ``Amax(v)`` and ``A_vv``.

Query phase (:meth:`KDash.top_k`, Algorithm 4): scatter column ``q`` of
``L^-1`` into a dense workspace, walk the BFS tree of the query in
ascending layer order, maintain the Definition 2 upper bound in O(1) per
node, and evaluate ``p_u = c · U^-1[u,:] · y`` only while the bound stays
at or above the running K-th best proximity θ.  Lemmas 1–2 make the first
bound violation a certificate that *every* remaining node is out, so the
search stops — exactness without exhaustive computation (Theorem 2).

All query modes (top-k, root-override ablation, threshold, personalized
restart sets) are thin adapters over the single
:func:`~repro.query.kernel.pruned_scan` kernel, fed by the
:class:`~repro.query.prepared.PreparedIndex` cached at build time; for
serving-oriented batched execution see
:class:`~repro.query.engine.QueryEngine`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from ..exceptions import DecompositionError, IndexNotBuiltError
from ..graph.digraph import DiGraph
from ..graph.matrices import column_normalized_adjacency, rwr_system_matrix
from ..lu.crout import crout_lu
from ..lu.fillin import FillInReport, fill_in_report
from ..lu.inverse import triangular_inverses
from ..lu.scipy_backend import superlu_lu
from ..ordering import ReorderingStrategy, get_reordering
from ..query.kernel import pruned_scan, scan_to_topk
from ..query.prepared import PreparedIndex
from ..sparse import sparse_column_max
from ..sparse.csc import CSCMatrix
from ..validation import (
    check_choice,
    check_k,
    check_node_id,
    check_restart_probability,
    check_restart_set,
    check_threshold,
)
from .bfs_tree import BFSTree
from .topk import TopKResult, pad_items, rank_items


@dataclass(frozen=True)
class BuildReport:
    """Timings and sizes recorded during :meth:`KDash.build`.

    ``reorder_seconds`` / ``lu_seconds`` / ``inverse_seconds`` decompose
    the precomputation cost (Figure 6); ``fill_in`` carries the nonzero
    accounting of Figure 5.
    """

    reorder_seconds: float
    lu_seconds: float
    inverse_seconds: float
    total_seconds: float
    fill_in: FillInReport
    lu_backend_used: str


class KDash:
    """Exact top-k random-walk-with-restart search.

    Parameters
    ----------
    graph:
        The weighted directed graph.
    c:
        Restart probability in ``(0, 1)``; the paper uses 0.95.
    reordering:
        ``"hybrid"`` (paper default), ``"degree"``, ``"cluster"``,
        ``"random"``, ``"identity"``, or a
        :class:`~repro.ordering.base.ReorderingStrategy` instance.
    lu_backend:
        ``"auto"`` (SuperLU with pure-Python fallback), ``"scipy"``, or
        ``"crout"`` (the from-scratch Equations 6–7 kernel).
    reordering_seed:
        Seed for the stochastic reorderings (Louvain sweeps / random).
    kernel_backend:
        Kernel backend for the pruned scan — ``"numpy"`` (the
        default), ``"python"`` (the scalar oracle), or ``None`` for
        ``$REPRO_KERNEL_BACKEND`` if set, else the default.  Every
        backend is bit-identical; see :mod:`repro.query.backends`.

    Examples
    --------
    >>> from repro.graph import star_graph
    >>> index = KDash(star_graph(4), c=0.9).build()
    >>> result = index.top_k(query=0, k=2)
    >>> result.nodes[0]
    0
    """

    def __init__(
        self,
        graph: DiGraph,
        c: float = 0.95,
        reordering="hybrid",
        lu_backend: str = "auto",
        reordering_seed: int = 0,
        kernel_backend: Optional[str] = None,
    ) -> None:
        self.graph = graph
        self.c = check_restart_probability(c)
        if kernel_backend is not None:
            # Fail fast on unknown names; None stays None so the
            # environment is consulted at build time.
            from ..query.backends import resolve_backend_name

            kernel_backend = resolve_backend_name(kernel_backend)
        self.kernel_backend = kernel_backend
        if isinstance(reordering, ReorderingStrategy):
            self._strategy = reordering
        else:
            kwargs = {}
            if reordering in ("cluster", "hybrid", "random"):
                kwargs["seed"] = reordering_seed
            self._strategy = get_reordering(reordering, **kwargs)
        self.lu_backend = check_choice(lu_backend, ("auto", "scipy", "crout"), "lu_backend")
        self._built = False
        self.build_report: Optional[BuildReport] = None

    # ------------------------------------------------------------------
    # Build phase
    # ------------------------------------------------------------------
    def build(self) -> "KDash":
        """Run the precomputation; returns ``self`` for chaining."""
        t_start = time.perf_counter()
        adjacency = column_normalized_adjacency(self.graph)

        t0 = time.perf_counter()
        self._perm = self._strategy.compute(self.graph)
        reorder_seconds = time.perf_counter() - t0

        permuted = self._perm.permute_matrix(adjacency)
        w = rwr_system_matrix(permuted, self.c)

        t0 = time.perf_counter()
        ell, u, backend_used = self._factorise(w)
        lu_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        self._l_inv, self._u_inv = triangular_inverses(ell, u)
        inverse_seconds = time.perf_counter() - t0

        # Estimator inputs live in *original* node order.
        adjacency_kernel = CSCMatrix.from_scipy(adjacency)
        self._amax_col = sparse_column_max(adjacency_kernel)
        self._amax = float(self._amax_col.max()) if self._amax_col.size else 0.0
        self._diag = adjacency.diagonal()

        self._finalise_query_path()

        self.build_report = BuildReport(
            reorder_seconds=reorder_seconds,
            lu_seconds=lu_seconds,
            inverse_seconds=inverse_seconds,
            total_seconds=time.perf_counter() - t_start,
            fill_in=fill_in_report(self.graph.n_edges, ell, u, self._l_inv, self._u_inv),
            lu_backend_used=backend_used,
        )
        return self

    def _finalise_query_path(
        self,
        succ_lists: Optional[List[List[int]]] = None,
        total_mass_perm: Optional[np.ndarray] = None,
    ) -> None:
        """Derive every query-invariant structure from the factor state.

        Called at the end of :meth:`build` and by
        :func:`repro.core.index_io.load_index`.  Requires ``_perm``,
        ``_l_inv``, ``_u_inv``, ``_amax_col``, ``_amax`` and ``_diag``;
        produces the exact per-query proximity mass and the
        :class:`~repro.query.prepared.PreparedIndex` that makes per-query
        setup O(1) — all ``tolist()`` conversions and the ``c'``
        computation happen exactly once, here.

        ``succ_lists`` / ``total_mass_perm`` let a version-2 snapshot
        load (:func:`repro.core.index_io.load_index`) hand the persisted
        caches straight in, skipping the adjacency conversion and the
        two triangular products they would otherwise cost.
        """
        n = self.graph.n_nodes
        # Successor lists for the lazy BFS of the query loop, as
        # plain-Python mirrors: at the typical out-degrees of real
        # graphs (<~10), list iteration beats numpy slicing by a wide
        # margin, and the query loop is pure overhead around one numpy
        # dot per visited node.
        if succ_lists is None:
            adj = self.graph.adjacency_csc().to_scipy()
            succ_lists = [
                adj.indices[adj.indptr[u] : adj.indptr[u + 1]].tolist()
                for u in range(n)
            ]
        self._succ_lists = succ_lists

        # Exact per-query total proximity mass S(q) = c * 1^T W^-1 e_q,
        # indexed by permuted position.  Feeds the estimator's t3 term:
        # the paper assumes S(q) = 1, which only holds without dangling
        # nodes; using the exact value keeps the bound valid and tight
        # (see ProximityEstimator docs).  The 1e-12 cushion absorbs
        # floating-point underestimation; the clamp keeps it a probability.
        # The full-vector products here and in proximity_column, the
        # prune=False ablation and DynamicKDash run scipy's kernels on
        # the index's own arrays (CSRMatrix/CSCMatrix matvec), so no
        # scipy copy of either inverse is ever held.
        if total_mass_perm is None:
            ones = np.ones(n, dtype=np.float64)
            column_sums = self._l_inv.rmatvec(self._u_inv.rmatvec(ones))
            total_mass_perm = np.minimum(1.0, self.c * column_sums + 1e-12)
        self._total_mass_perm = np.asarray(total_mass_perm, dtype=np.float64)

        self._prepared = PreparedIndex(
            n=n,
            c=self.c,
            max_diag=float(self._diag.max()) if n else 0.0,
            amax=self._amax,
            amax_col=self._amax_col,
            position=self._perm.position,
            succ_lists=self._succ_lists,
            u_inv=self._u_inv,
            l_inv=self._l_inv,
            total_mass_perm=self._total_mass_perm,
            backend=self.kernel_backend,
        )
        self._built = True

    @property
    def prepared(self) -> PreparedIndex:
        """The query-invariant state shared with the pruned-scan kernel."""
        self._require_built()
        return self._prepared

    def _factorise(self, w: sp.csc_matrix):
        """Apply the configured LU backend, with auto-fallback."""
        if self.lu_backend == "crout":
            ell, u = crout_lu(w)
            return ell, u, "crout"
        if self.lu_backend == "scipy":
            ell, u = superlu_lu(w)
            return ell, u, "scipy"
        try:
            ell, u = superlu_lu(w)
            return ell, u, "scipy"
        except DecompositionError:
            ell, u = crout_lu(w)
            return ell, u, "crout"

    # ------------------------------------------------------------------
    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has completed."""
        return self._built

    def _require_built(self) -> None:
        if not self._built:
            raise IndexNotBuiltError(
                "KDash index not built; call .build() before querying"
            )

    @property
    def index_nnz(self) -> int:
        """Stored nonzeros of ``L^-1`` + ``U^-1`` (the index footprint)."""
        self._require_built()
        return self._l_inv.nnz + self._u_inv.nnz

    # ------------------------------------------------------------------
    # Query phase
    # ------------------------------------------------------------------
    def _query_workspace(self, query: int) -> np.ndarray:
        """Dense scatter of column ``position[q]`` of ``L^-1``."""
        y = self._prepared.workspace()
        self._prepared.scatter_column(y, query)
        return y

    def proximity(self, query: int, node: int) -> float:
        """Exact proximity of a single ``(query, node)`` pair.

        Cost: one sparse column scatter plus one sparse row dot
        (Equation 3).  For many nodes against the same query, use
        :meth:`top_k` or :meth:`proximity_column` instead.
        """
        self._require_built()
        query = check_node_id(query, self.graph.n_nodes, "query")
        node = check_node_id(node, self.graph.n_nodes, "node")
        y = self._query_workspace(query)
        return self.c * self._u_inv.row_dot(int(self._perm.position[node]), y)

    def proximity_column(self, query: int) -> np.ndarray:
        """The full exact proximity vector for ``query``, original order.

        One ``U^-1`` matvec; used by tests and the no-pruning ablation.
        """
        self._require_built()
        query = check_node_id(query, self.graph.n_nodes, "query")
        y = self._query_workspace(query)
        permuted = self.c * self._u_inv.matvec(y)
        return self._perm.unpermute_vector(permuted)

    def top_k(
        self,
        query: int,
        k: int = 5,
        prune: bool = True,
        root: Optional[int] = None,
    ) -> TopKResult:
        """Find the ``k`` nodes with highest proximity w.r.t. ``query``.

        Parameters
        ----------
        query:
            The query node ``q``.
        k:
            Number of answers ``K``.
        prune:
            ``False`` disables the tree estimation entirely and computes
            every scheduled node — the "Without pruning" ablation of
            Figure 7.  The answer set is identical either way.
        root:
            Override for the BFS root (default: the query node).  Used by
            the Figure 9 ablation; any override schedules *all* nodes and
            keeps exactness by never terminating before the query node
            itself has been evaluated.

        Returns
        -------
        TopKResult
            Ranked answers plus search counters.
        """
        self._require_built()
        n = self.graph.n_nodes
        query = check_node_id(query, n, "query")
        k = check_k(k)
        if root is not None:
            root = check_node_id(root, n, "root")

        y = self._query_workspace(query)

        if not prune:
            tree = BFSTree(
                self.graph,
                query if root is None else root,
                include_unreached=root is not None,
            )
            return self._top_k_exhaustive(query, k, tree, y)

        # The Figure 9 ablation replaces the lazy frontier with a fixed
        # BFSTree schedule rooted away from the query; the kernel then
        # defers termination until the query node has been evaluated
        # (its constant-1 bound breaks Lemma 2's monotone chain).
        schedule = None
        if root is not None and root != query:
            schedule = BFSTree(self.graph, root, include_unreached=True)
        scan = pruned_scan(
            self._prepared,
            y,
            (query,),
            k=k,
            total_mass=self._prepared.total_mass_of(query),
            schedule=schedule,
        )
        return scan_to_topk(query, k, n, scan)

    def above_threshold(self, query: int, threshold: float) -> TopKResult:
        """All nodes with proximity at least ``threshold``, exactly.

        The dual of :meth:`top_k`: instead of a count budget, a proximity
        floor.  The same Lemma 1/2 machinery applies with θ *fixed* at
        the threshold — the first visited node whose bound drops below it
        certifies that no unvisited node can reach it.  Useful when the
        application has a relevance cut-off rather than a list length
        (e.g. "every term with proximity ≥ 0.001").

        Returns
        -------
        TopKResult
            ``items`` holds **all** qualifying nodes (``k`` is set to the
            answer size); never padded.
        """
        self._require_built()
        n = self.graph.n_nodes
        query = check_node_id(query, n, "query")
        threshold = check_threshold(threshold)
        y = self._query_workspace(query)
        scan = pruned_scan(
            self._prepared,
            y,
            (query,),
            threshold=threshold,
            total_mass=self._prepared.total_mass_of(query),
        )
        ranked = rank_items(scan.items, len(scan.items)) if scan.items else ()
        return TopKResult(
            query=query,
            k=len(ranked),
            items=ranked,
            n_visited=scan.n_visited,
            n_computed=scan.n_computed,
            n_pruned=scan.n_pruned,
            terminated_early=scan.terminated_early,
            padded=False,
        )

    def top_k_personalized(
        self,
        restart,
        k: int = 5,
    ) -> TopKResult:
        """Exact top-k for a *restart set* (Personalized PageRank).

        The paper's footnote 6: "In Personalized PageRank, a random
        particle returns to the start node set, not the start node."
        K-dash extends naturally: the restart vector becomes a convex
        combination of basis vectors, ``y`` a weighted sum of ``L^-1``
        columns, the BFS tree becomes multi-source (all seeds on layer
        0), and every bound argument goes through unchanged — seeds are
        bounded by the trivial 1, non-seeds by Definition 1 (whose
        derivation never used ``|restart| = 1``).

        Parameters
        ----------
        restart:
            Mapping ``{node: weight}`` with positive weights; weights are
            normalised to sum to 1.
        k:
            Number of answers.

        Returns
        -------
        TopKResult
            ``result.query`` holds the smallest seed id (the full seed
            set is not representable in the scalar field).
        """
        n = self.graph.n_nodes
        self._require_built()
        k = check_k(k)
        shares = check_restart_set(restart, n)

        # y = sum_i w_i * L^-1[:, pos_i]  (the multi-column scatter);
        # every seed gets the trivial bound 1 and all seeds form layer 0
        # of the lazy multi-source BFS.
        y, total_mass = self._prepared.seed_workspace(shares)
        scan = pruned_scan(
            self._prepared,
            y,
            shares,
            k=k,
            total_mass=total_mass,
        )
        result = scan_to_topk(min(shares), k, n, scan)
        return result

    def top_k_batch(
        self,
        queries,
        k: int = 5,
        prune: bool = True,
    ) -> List[TopKResult]:
        """Run :meth:`top_k` for a sequence of queries, naively.

        Results are returned in input order; the cost is simply the
        per-query cost times ``len(queries)`` — no cross-query state, no
        workspace reuse, no deduplication.  Kept as the unbatched
        baseline; serving workloads should prefer
        :meth:`repro.query.engine.QueryEngine.top_k_many`, which shares
        one workspace across the batch, dedupes repeated queries and can
        cache results across calls.
        """
        return [self.top_k(int(q), k, prune=prune) for q in queries]

    def _top_k_exhaustive(
        self, query: int, k: int, tree: BFSTree, y: np.ndarray
    ) -> TopKResult:
        """The prune=False ablation: evaluate every scheduled node."""
        permuted = self.c * self._u_inv.matvec(y)
        full = self._perm.unpermute_vector(permuted)
        pairs = [(int(u), float(full[u])) for u in tree.order]
        ranked = rank_items(pairs, k)
        ranked, padded = pad_items(ranked, k, self.graph.n_nodes)
        return TopKResult(
            query=query,
            k=k,
            items=ranked,
            n_visited=tree.n_scheduled,
            n_computed=tree.n_scheduled,
            n_pruned=0,
            terminated_early=False,
            padded=padded,
        )
