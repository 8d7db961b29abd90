"""The ``python`` reference backend: the scalar loops, verbatim.

This is the exactness **oracle** of the backend registry.  The scan loop
is the original :func:`repro.query.kernel.pruned_scan` body, moved here
unchanged except for the proximity reduction, which now spells out the
canonical sequential sum (``(data * y[idx]).cumsum()[-1]``) instead of
BLAS ``@`` — see :mod:`repro.query.backends.base` for why the primitive
is pinned.  Every other backend is tested bit-for-bit against this one;
optimise the others, never this.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from .base import ScanResult


class PythonReferenceBackend:
    """Scalar reference implementation of both kernel loops."""

    name = "python"

    def scan(
        self,
        prepared,
        y: np.ndarray,
        seeds,
        *,
        k=None,
        threshold=None,
        total_mass: float,
        schedule=None,
    ) -> ScanResult:
        n = prepared.n
        position = prepared.position
        succ_lists = prepared.succ_lists
        uinv_indptr = prepared.uinv_indptr
        uinv_indices = prepared.uinv_indices
        uinv_data = prepared.uinv_data
        amax_col = prepared.amax_col
        amax = prepared.amax
        c = prepared.c
        c_prime = prepared.c_prime
        total_mass = float(total_mass)

        unit_bound = frozenset(int(s) for s in seeds)

        use_heap = k is not None
        if use_heap:
            # Candidate heap primed with K dummies of proximity 0
            # (Algorithm 4 line 4), at most n of them: no answer has
            # more than n nodes, so k >= n scans exactly as k = n.
            # Entries are ``(proximity, -node, node)``, so the heap
            # minimum is the *canonically worst* retained answer —
            # lowest proximity first, then largest node id — and ties
            # at the K-th value are resolved identically regardless of
            # visit order.  The canonical
            # tie-break is what lets a sharded scatter-gather plan
            # (:mod:`repro.query.planner`) merge per-shard candidates
            # into bit-identical answers, and what keeps the golden
            # regression fixtures byte-stable across traversal-order
            # refactors.  Dummy ids ``n + j`` sit below every real node
            # at proximity 0.
            heap: List[Tuple[float, int, int]] = [
                (0.0, -(n + j), -1) for j in range(min(k, n))
            ]
            heapq.heapify(heap)
            heapreplace = heapq.heapreplace
            theta = 0.0
            answers: List[Tuple[int, float]] = []
        else:
            heap = []
            heapreplace = None
            theta = float(threshold)
            answers = []

        # The Definition 2 state machine (the class-based
        # ProximityEstimator realises the same recurrences and is what
        # unit tests verify):
        #   t1 = sum of p_v*Amax(v) over selected nodes one layer up,
        #   t2 = same over selected nodes on the current layer,
        #   t3 = (total_mass - selected mass) * Amax.
        t1 = 0.0
        t2 = 0.0
        selected_mass = 0.0
        n_visited = 0
        n_computed = 0
        n_skipped = 0
        terminated_early = False
        pending_seeds = len(unit_bound)

        lazy = schedule is None
        if lazy:
            frontier: List[int] = sorted(unit_bound)
            seen = bytearray(n)
            for s in frontier:
                seen[s] = 1
            layer_source = None
        else:
            frontier = []
            seen = bytearray(0)
            layer_source = schedule.layer_groups()

        prev_layer = -1
        stop = False
        while not stop:
            if lazy:
                if not frontier:
                    break
                nodes = frontier
                this_layer = prev_layer + 1
            else:
                try:
                    this_layer, nodes = next(layer_source)
                except StopIteration:
                    break
            # Layer advance: own-layer sum becomes the layer-above sum
            # (Definition 2's shift case); a skipped layer resets both
            # terms (no selected node can sit one layer above).
            if this_layer == prev_layer + 1:
                t1 = t2
                t2 = 0.0
            elif this_layer > prev_layer + 1:
                t1 = 0.0
                t2 = 0.0
            prev_layer = this_layer

            next_frontier: List[int] = []
            for node in nodes:
                n_visited += 1
                if node in unit_bound:
                    pending_seeds -= 1
                else:
                    bound = c_prime * (
                        t1 + t2 + (total_mass - selected_mass) * amax
                    )
                    if bound < theta:
                        if pending_seeds:
                            # A seed (bound 1) is still ahead in the
                            # fixed schedule: skip this node only.
                            n_skipped += 1
                            continue
                        # Lemma 2: every later node is bounded below
                        # theta as well -> stop outright.
                        terminated_early = True
                        stop = True
                        break
                pos = position[node]
                lo, hi = uinv_indptr[pos], uinv_indptr[pos + 1]
                # Canonical sequential-sum reduction (NOT BLAS dot):
                # cumsum accumulates strictly in storage order, which
                # every backend can reproduce bit-for-bit.  The trailing
                # ``+ 0.0`` pins the accumulator-starts-at-+0.0
                # convention (an all-(-0.0) row sums to +0.0, exactly as
                # scipy's csr_matvec computes it).
                proximity = c * float(
                    (uinv_data[lo:hi] * y[uinv_indices[lo:hi]]).cumsum()[-1]
                    + 0.0
                ) if hi > lo else 0.0
                n_computed += 1
                t2 += proximity * amax_col[node]
                selected_mass += proximity
                if use_heap:
                    # Hand-inlined copy of the canonical admission test
                    # (repro.core.sharded.heap_admit) — this loop is
                    # the hottest path of the backend.  Keep the two in
                    # sync; the golden fixtures and the differential
                    # backend suite fail on any drift.
                    worst = heap[0]
                    if proximity > worst[0] or (
                        proximity == worst[0] and -node > worst[1]
                    ):
                        heapreplace(heap, (proximity, -node, node))
                        theta = heap[0][0]
                elif proximity >= theta:
                    answers.append((node, proximity))
                if lazy:
                    for child in succ_lists[node]:
                        if not seen[child]:
                            seen[child] = 1
                            next_frontier.append(child)
            if lazy:
                frontier = next_frontier

        if use_heap:
            items = tuple((node, p) for p, _, node in heap if node >= 0)
        else:
            items = tuple(answers)

        if lazy:
            # Undiscovered nodes were never scheduled: pruning saved
            # n - visited.
            n_pruned = n - n_visited
        else:
            n_pruned = n_skipped
            if terminated_early:
                # The terminating node plus the untouched schedule tail.
                n_pruned += 1 + (schedule.n_scheduled - n_visited)

        return ScanResult(
            items=items,
            n_visited=n_visited,
            n_computed=n_computed,
            n_pruned=n_pruned,
            terminated_early=terminated_early,
        )

    def scan_shard(
        self,
        shard,
        c: float,
        y: np.ndarray,
        ymax: float,
        heap: List[Tuple[float, int, int]],
    ) -> Tuple[int, int]:
        # Deferred import: repro.core.sharded's scan_shard dispatches
        # back into this registry, so the reference loop lives there
        # (next to the heap-discipline contract) and is bound lazily.
        from ...core.sharded import scan_shard_reference

        return scan_shard_reference(shard, c, y, ymax, heap)
