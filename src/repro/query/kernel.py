"""The unified pruned-scan kernel: Algorithm 4, realised exactly once.

Every query mode of the library is the same search — visit nodes in
ascending BFS-layer order, maintain the Definition 2 upper bound in O(1)
per node, evaluate ``p_u = c · U^-1[u,:] · y`` only while the bound can
still beat the admission cut-off θ, and stop on the first Lemma 2
violation.  The modes differ only along three axes, all of which are
kernel parameters:

- **seed set** — the nodes whose bound is the trivial 1 (a single query
  node, or a weighted restart set for Personalized PageRank);
- **traversal schedule** — the lazy BFS frontier grown from the seeds
  (default; nodes beyond the termination point are never even
  discovered), or a fixed :class:`~repro.core.bfs_tree.BFSTree` schedule
  (the Figure 9 root-override ablation);
- **stopping rule** — a top-k heap whose minimum is θ, or a constant
  threshold θ.

Exactness subtleties the kernel preserves from the per-mode seed
implementations it replaces:

- With a fixed schedule the seeds may appear arbitrarily late, and their
  constant-1 bound breaks Lemma 2's monotone chain; termination is
  therefore deferred until every seed has been evaluated, and earlier
  bound violations merely *skip* the node (sound: θ is monotone and the
  node's own bound already rules it out).
- A fixed schedule may skip a layer (the synthetic final layer of
  ``include_unreached``); both bound terms then reset, matching
  :class:`~repro.core.estimator.ProximityEstimator`'s layer-skip case.
- In lazy mode all seeds occupy layer 0, so any bound violation happens
  after every seed was evaluated and stops the whole scan outright.

The scan *implementation* is pluggable: this module validates the
arguments and dispatches to a registered kernel backend
(:mod:`repro.query.backends`) — the blocked ``numpy`` vectorisation by
default, or the scalar ``python`` reference.  All backends are
bit-identical by contract; selection follows the explicit ``backend=``
argument, then the index's construction-time choice, then the
``REPRO_KERNEL_BACKEND`` environment variable, then ``numpy``.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ..core.topk import TopKResult, pad_items, rank_items
from ..exceptions import InvalidParameterError
from .backends import ScanResult, get_backend
from .prepared import PreparedIndex

__all__ = ["ScanResult", "pruned_scan", "scan_to_topk"]


def pruned_scan(
    prepared: PreparedIndex,
    y: np.ndarray,
    seeds: Iterable[int],
    *,
    k: Optional[int] = None,
    threshold: Optional[float] = None,
    total_mass: float,
    schedule=None,
    backend=None,
) -> ScanResult:
    """Run one pruned scan over the prepared index.

    Parameters
    ----------
    prepared:
        The query-invariant state (:class:`PreparedIndex`).
    y:
        Dense workspace holding the (weighted) scatter of ``L^-1``
        seed columns, in permuted coordinates.
    seeds:
        Nodes with the trivial bound 1 — the restart set.  In lazy mode
        they are also the layer-0 BFS sources.
    k:
        Top-k stopping rule: maintain a k-heap, θ = its minimum.
        Exactly one of ``k`` / ``threshold`` must be given.
    threshold:
        Fixed stopping rule: θ is this constant; every node with
        proximity ≥ θ is selected.
    total_mass:
        Exact total proximity mass ``S`` of the seed set (feeds the
        bound's ``t3`` term; see the estimator notes).
    schedule:
        ``None`` for the lazy BFS frontier, or an object with
        ``layer_groups()`` / ``n_scheduled`` (a ``BFSTree``) for a fixed
        visit order.
    backend:
        Kernel backend override — a registered name, a backend object,
        or ``None`` to use the index's construction-time choice.  Every
        backend returns bit-identical results; see
        :mod:`repro.query.backends`.

    Examples
    --------
    One full query, spelled out at kernel level (the index's ``top_k``
    wraps exactly these steps):

    >>> from repro.core import KDash
    >>> from repro.graph import star_graph
    >>> prepared = KDash(star_graph(4), c=0.9).build().prepared
    >>> y = prepared.workspace()
    >>> rows = prepared.scatter_column(y, 0)
    >>> scan = pruned_scan(prepared, y, (0,), k=2,
    ...                    total_mass=prepared.total_mass_of(0))
    >>> scan_to_topk(0, 2, prepared.n, scan).nodes[0]
    0
    >>> scan.n_computed <= prepared.n
    True
    """
    if (k is None) == (threshold is None):
        raise InvalidParameterError(
            "pruned_scan requires exactly one of k= or threshold="
        )
    # Materialise once: seeds may be a generator, and the backend builds
    # its own frozenset from what we pass along.
    seeds = tuple(seeds)
    if not seeds:
        raise InvalidParameterError("pruned_scan requires a non-empty seed set")

    chosen = backend if backend is not None else prepared.backend
    return get_backend(chosen).scan(
        prepared,
        y,
        seeds,
        k=k,
        threshold=threshold,
        total_mass=total_mass,
        schedule=schedule,
    )


def scan_to_topk(query: int, k: int, n: int, scan: ScanResult) -> TopKResult:
    """Rank, truncate and pad a top-k :class:`ScanResult` into a result."""
    ranked, padded = pad_items(rank_items(scan.items, k), k, n)
    return TopKResult(
        query=query,
        k=k,
        items=ranked,
        n_visited=scan.n_visited,
        n_computed=scan.n_computed,
        n_pruned=scan.n_pruned,
        terminated_early=scan.terminated_early,
        padded=padded,
    )
