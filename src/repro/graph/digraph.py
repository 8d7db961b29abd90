"""Weighted directed graph with contiguous integer node ids.

:class:`DiGraph` is the single graph type used throughout the library.
Design choices:

- **Contiguous ids** ``0..n-1``: algorithms index numpy arrays by node id,
  so ids double as array offsets.  Optional string labels are carried in a
  side table (:attr:`DiGraph.labels`) for presentation (e.g. the Table 2
  case study) without burdening the numeric core.
- **Adjacency lists** both directions: ``successors(u)`` are the nodes the
  random walk can step to from ``u``; ``predecessors(u)`` are needed to
  column-normalise and by several baselines.
- **Parallel edges collapse** by weight summation (matching how the
  paper's datasets aggregate repeated interactions, e.g. co-authorships).
- **Mutation then freeze**: edges are added incrementally; the first call
  that needs matrix form triggers a cached CSC build which is invalidated
  on further mutation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import GraphError
from ..validation import check_node_id, check_non_negative_int
from ..sparse import COOMatrix, CSCMatrix


class DiGraph:
    """A weighted directed graph over nodes ``0..n-1``.

    Parameters
    ----------
    n_nodes:
        Number of nodes.  The node set is fixed at construction (grow with
        :meth:`add_nodes`); edges are added afterwards.
    labels:
        Optional sequence of ``n_nodes`` human-readable labels.

    Examples
    --------
    >>> g = DiGraph(3)
    >>> g.add_edge(0, 1, 2.0)
    >>> g.add_edge(1, 2)
    >>> sorted(g.successors(0))
    [1]
    >>> g.out_degree(0)
    1
    """

    def __init__(self, n_nodes: int, labels: Optional[Sequence[str]] = None) -> None:
        n_nodes = check_non_negative_int(n_nodes, "n_nodes")
        self._n = n_nodes
        # successor -> weight, one dict per node; dicts collapse parallel edges
        self._succ: List[Dict[int, float]] = [dict() for _ in range(n_nodes)]
        self._pred: List[Dict[int, float]] = [dict() for _ in range(n_nodes)]
        self._m = 0
        self._adjacency_cache: Optional[CSCMatrix] = None
        if labels is not None:
            labels = list(labels)
            if len(labels) != n_nodes:
                raise GraphError(
                    f"labels has length {len(labels)}, expected {n_nodes}"
                )
            self.labels: Optional[List[str]] = labels
        else:
            self.labels = None

    @classmethod
    def from_edge_arrays(
        cls,
        n_nodes: int,
        src: np.ndarray,
        dst: np.ndarray,
        weight: np.ndarray,
        labels: Optional[Sequence[str]] = None,
    ) -> "DiGraph":
        """The graph whose distinct edges are ``src[i] -> dst[i]``, in order.

        The bulk counterpart of one :meth:`add_edge` per edge, for an
        edge list that names each edge once (an index archive's).  The
        arrays are checked whole: equal-length 1-D integer ids in
        ``[0, n_nodes)``, positive finite weights, and no repeated
        ``(u, v)`` pair; anything else raises
        :class:`~repro.exceptions.GraphError`.  Successor and
        predecessor dicts are filled in array order, so :meth:`edges`,
        :meth:`successors` and :meth:`predecessors` iterate exactly as
        on a graph built by :meth:`add_edge` over the same list.
        """
        graph = cls(n_nodes, labels=labels)
        n = graph._n
        src, dst, weight = np.asarray(src), np.asarray(dst), np.asarray(weight)
        if src.ndim != 1 or src.shape != dst.shape or src.shape != weight.shape:
            raise GraphError(
                f"edge arrays must be 1-D and of equal length, got shapes "
                f"{src.shape}, {dst.shape} and {weight.shape}"
            )
        if src.dtype.kind not in "iu" or dst.dtype.kind not in "iu":
            raise GraphError(
                f"edge endpoints must be integer ids, got {src.dtype} and {dst.dtype}"
            )
        if weight.dtype.kind not in "iuf":
            raise GraphError(f"edge weights must be real numbers, got {weight.dtype}")
        if src.size:
            low, high = min(src.min(), dst.min()), max(src.max(), dst.max())
            if low < 0 or high >= n:
                raise GraphError(
                    f"edge endpoint {low if low < 0 else high} out of range for "
                    f"{n} nodes (valid ids are 0..{n - 1})"
                )
            weight = weight.astype(np.float64, copy=False)
            bad = ~(np.isfinite(weight) & (weight > 0.0))
            if bad.any():
                raise GraphError(
                    "edge weight must be positive and finite, got "
                    f"{float(weight[bad][0])!r}"
                )
            keys = src.astype(np.int64) * n + dst.astype(np.int64)
            if np.unique(keys).size != keys.size:
                raise GraphError("edge arrays list some (u, v) pair more than once")
        succ, pred = graph._succ, graph._pred
        for u, v, w in zip(src.tolist(), dst.tolist(), weight.tolist()):
            succ[u][v] = w
            pred[v][u] = w
        graph._m = len(src)
        return graph

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of distinct directed edges (parallel edges collapsed)."""
        return self._m

    def __len__(self) -> int:
        return self._n

    def nodes(self) -> Iterator[int]:
        """Iterate over node ids ``0..n-1``."""
        return iter(range(self._n))

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over ``(source, target, weight)`` triples."""
        for u in range(self._n):
            for v, w in self._succ[u].items():
                yield u, v, w

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_nodes(self, count: int) -> int:
        """Append ``count`` new isolated nodes; returns the new ``n_nodes``."""
        count = check_non_negative_int(count, "count")
        self._succ.extend(dict() for _ in range(count))
        self._pred.extend(dict() for _ in range(count))
        self._n += count
        if self.labels is not None:
            self.labels.extend(f"node-{i}" for i in range(self._n - count, self._n))
        self._adjacency_cache = None
        return self._n

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add the directed edge ``u -> v`` with the given positive weight.

        Adding an edge that already exists *accumulates* the weight.
        Self-loops are allowed (the estimator's ``c'`` handles ``A_uu``).
        """
        u = check_node_id(u, self._n, "u")
        v = check_node_id(v, self._n, "v")
        weight = float(weight)
        if not (weight > 0.0) or not np.isfinite(weight):
            raise GraphError(f"edge weight must be positive and finite, got {weight!r}")
        if v not in self._succ[u]:
            self._m += 1
            self._succ[u][v] = weight
            self._pred[v][u] = weight
        else:
            self._succ[u][v] += weight
            self._pred[v][u] += weight
        self._adjacency_cache = None

    def add_edges(self, edges: Iterable[Tuple[int, int]], weight: float = 1.0) -> None:
        """Add many unweighted edges (each with the same ``weight``)."""
        for u, v in edges:
            self.add_edge(u, v, weight)

    def add_weighted_edges(self, edges: Iterable[Tuple[int, int, float]]) -> None:
        """Add many ``(u, v, weight)`` edges."""
        for u, v, w in edges:
            self.add_edge(u, v, w)

    def remove_edge(self, u: int, v: int) -> float:
        """Remove the directed edge ``u -> v``; returns its weight.

        Raises :class:`~repro.exceptions.GraphError` when the edge does
        not exist (deleting a non-edge is almost always a caller bug).
        """
        u = check_node_id(u, self._n, "u")
        v = check_node_id(v, self._n, "v")
        if v not in self._succ[u]:
            raise GraphError(f"edge {u} -> {v} does not exist")
        weight = self._succ[u].pop(v)
        del self._pred[v][u]
        self._m -= 1
        self._adjacency_cache = None
        return weight

    def set_edge_weight(self, u: int, v: int, weight: float) -> None:
        """Set (overwrite) the weight of edge ``u -> v``, creating it if
        absent.  Unlike :meth:`add_edge`, this does not accumulate."""
        if self.has_edge(u, v):
            self.remove_edge(u, v)
        self.add_edge(u, v, weight)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``u -> v`` exists."""
        u = check_node_id(u, self._n, "u")
        v = check_node_id(v, self._n, "v")
        return v in self._succ[u]

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``u -> v`` (0.0 when absent)."""
        u = check_node_id(u, self._n, "u")
        v = check_node_id(v, self._n, "v")
        return self._succ[u].get(v, 0.0)

    def successors(self, u: int) -> List[int]:
        """Targets of out-edges of ``u`` (walk steps available from ``u``)."""
        u = check_node_id(u, self._n, "u")
        return list(self._succ[u].keys())

    def predecessors(self, u: int) -> List[int]:
        """Sources of in-edges of ``u``."""
        u = check_node_id(u, self._n, "u")
        return list(self._pred[u].keys())

    def out_degree(self, u: int) -> int:
        """Number of out-edges of ``u``."""
        u = check_node_id(u, self._n, "u")
        return len(self._succ[u])

    def in_degree(self, u: int) -> int:
        """Number of in-edges of ``u``."""
        u = check_node_id(u, self._n, "u")
        return len(self._pred[u])

    def degree(self, u: int) -> int:
        """Total degree: in-degree + out-degree.

        This is the quantity the *degree reordering* heuristic sorts by
        (Algorithm 1: "the number of edges incident to a node").
        """
        u = check_node_id(u, self._n, "u")
        return len(self._succ[u]) + len(self._pred[u])

    def out_weight(self, u: int) -> float:
        """Sum of weights of out-edges of ``u`` (normalisation denominator)."""
        u = check_node_id(u, self._n, "u")
        return float(sum(self._succ[u].values()))

    def degree_array(self) -> np.ndarray:
        """Vector of total degrees for all nodes."""
        return np.array(
            [len(self._succ[u]) + len(self._pred[u]) for u in range(self._n)],
            dtype=np.int64,
        )

    def out_degree_array(self) -> np.ndarray:
        """Vector of out-degrees for all nodes."""
        return np.array([len(s) for s in self._succ], dtype=np.int64)

    def in_degree_array(self) -> np.ndarray:
        """Vector of in-degrees for all nodes."""
        return np.array([len(p) for p in self._pred], dtype=np.int64)

    def label_of(self, u: int) -> str:
        """Human-readable label of ``u`` (falls back to ``"node-u"``)."""
        u = check_node_id(u, self._n, "u")
        if self.labels is not None:
            return self.labels[u]
        return f"node-{u}"

    def node_by_label(self, label: str) -> int:
        """Inverse label lookup (linear scan; labels are presentation-only)."""
        if self.labels is None:
            raise GraphError("graph has no labels")
        try:
            return self.labels.index(label)
        except ValueError:
            raise GraphError(f"no node labelled {label!r}") from None

    # ------------------------------------------------------------------
    # Matrix views
    # ------------------------------------------------------------------
    def adjacency_coo(self) -> COOMatrix:
        """Raw weighted adjacency as COO with ``M[v, u] = w(u -> v)``.

        Note the *column* convention of the paper: column ``u`` holds the
        out-edges of node ``u``, so that column normalisation yields the
        transition matrix ``A`` with ``A_vu = P(next=v | current=u)``.
        """
        rows, cols, vals = [], [], []
        for u in range(self._n):
            for v, w in self._succ[u].items():
                rows.append(v)
                cols.append(u)
                vals.append(w)
        return COOMatrix((self._n, self._n), rows, cols, vals)

    def adjacency_csc(self) -> CSCMatrix:
        """Cached CSC view of :meth:`adjacency_coo` (column = out-edges)."""
        if self._adjacency_cache is None:
            self._adjacency_cache = self.adjacency_coo().to_csc()
        return self._adjacency_cache

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reverse(self) -> "DiGraph":
        """The graph with every edge direction flipped."""
        g = DiGraph(self._n, labels=list(self.labels) if self.labels else None)
        for u, v, w in self.edges():
            g.add_edge(v, u, w)
        return g

    def to_undirected_weights(self) -> Dict[Tuple[int, int], float]:
        """Symmetrised edge weights keyed by ``(min(u,v), max(u,v))``.

        Used by the Louvain substrate, which optimises undirected
        modularity.  Weights of antiparallel edges are summed; self-loops
        keep their weight.
        """
        out: Dict[Tuple[int, int], float] = {}
        for u, v, w in self.edges():
            key = (u, v) if u <= v else (v, u)
            out[key] = out.get(key, 0.0) + w
        return out

    def subgraph(self, nodes: Sequence[int]) -> Tuple["DiGraph", np.ndarray]:
        """Induced subgraph on ``nodes``.

        Returns ``(graph, mapping)`` where ``mapping[i]`` is the original
        id of subgraph node ``i``.  Used by the Sun et al. local-RWR
        baseline (restrict the walk to the query's partition).
        """
        nodes = [check_node_id(v, self._n, "node") for v in nodes]
        if len(set(nodes)) != len(nodes):
            raise GraphError("subgraph node list contains duplicates")
        mapping = np.asarray(nodes, dtype=np.int64)
        inverse = {int(orig): new for new, orig in enumerate(mapping)}
        labels = [self.label_of(int(v)) for v in mapping] if self.labels else None
        sub = DiGraph(len(nodes), labels=labels)
        for new_u, orig_u in enumerate(mapping):
            for orig_v, w in self._succ[int(orig_u)].items():
                new_v = inverse.get(orig_v)
                if new_v is not None:
                    sub.add_edge(new_u, new_v, w)
        return sub, mapping

    def relabeled(self, permutation: np.ndarray) -> "DiGraph":
        """Return a copy with node ``u`` renamed to ``permutation[u]``.

        ``permutation`` must be a bijection of ``0..n-1``.  This is how a
        reordering (Section 4.2.2) is materialised as a new graph whose
        natural order is the reordered one.
        """
        permutation = np.asarray(permutation, dtype=np.int64)
        if permutation.shape != (self._n,) or not np.array_equal(
            np.sort(permutation), np.arange(self._n)
        ):
            raise GraphError("permutation must be a bijection of 0..n-1")
        labels = None
        if self.labels is not None:
            labels = [""] * self._n
            for u in range(self._n):
                labels[int(permutation[u])] = self.labels[u]
        g = DiGraph(self._n, labels=labels)
        for u, v, w in self.edges():
            g.add_edge(int(permutation[u]), int(permutation[v]), w)
        return g

    def copy(self) -> "DiGraph":
        """Deep copy of the graph.

        The successor dicts are copied whole and the predecessor dicts
        refilled from them in source order, so the copy iterates exactly
        like one built by :meth:`add_edge` over :meth:`edges` (its
        predecessors in ascending source id), without re-validating
        each edge.
        """
        g = DiGraph(self._n, labels=list(self.labels) if self.labels else None)
        g._succ = [succ.copy() for succ in self._succ]
        pred = g._pred
        for u, succ in enumerate(self._succ):
            for v, w in succ.items():
                pred[v][u] = w
        g._m = self._m
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DiGraph(n_nodes={self._n}, n_edges={self._m})"
