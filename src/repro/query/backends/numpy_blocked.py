"""The ``numpy`` backend: blocked bound maintenance, bit-identical.

Strategy
--------
The reference scan is a per-node loop: one bound check, one sparse-row
dot, one heap test, one frontier expansion per visited node.  This
backend processes each BFS layer in **chunks** (geometrically growing up
to :data:`CHUNK_MAX`):

1. *Gather + evaluate*: the chunk's ``U^-1`` rows are gathered with one
   ``csr_row_index`` call and evaluated with one ``csr_matvec`` call —
   scipy's CSR matvec reduces each row strictly sequentially in storage
   order, i.e. exactly the canonical reduction primitive (see
   :mod:`.base`), so every proximity comes out bit-identical to the
   scalar loop.
2. *Replay bound maintenance*: the Definition 2 running terms are
   prefix sums — ``cumsum`` with the carried-in start value reproduces
   every intermediate ``t2``/``selected_mass`` the scalar loop would
   have seen, and the per-node Lemma 2 bounds follow in four
   vectorised ops with the scalar loop's exact association order.
3. *Candidate replay*: admissions can only happen at nodes with
   ``p >= θ_entry`` (θ is monotone non-decreasing), so only those few
   candidates run the scalar heap test.  Within a layer the bounds are
   mathematically non-increasing; when that also holds at float level
   (checked per chunk with one vector compare) the Lemma 2 cut-off needs one
   O(1) scalar comparison per candidate plus one ``argmax`` to localise
   the exact stopping node.  A chunk whose float bounds are *not*
   monotone falls back to a per-node scalar replay, so the early-exit
   point never drifts.
4. *Deferred frontier expansion*: a completed layer's children are
   only materialised after the head-of-next-layer bound check passes —
   when the scan is about to terminate, the (potentially huge) final
   frontier is never built.  Expansion preserves first-occurrence order
   via a stable ``unique``/``argsort`` pipeline, matching the scalar
   loop's child discovery order exactly.

Speculative proximity evaluation past the stopping node is safe: the
values are traversal-independent, and the counters/running terms are
restored from the prefix sums at the exact stop index.  The chunk at
the termination boundary therefore reports *identical*
``n_visited``/``n_computed`` and heap state to the scalar loop.

Fixed-schedule scans (the Figure 9 root-override ablation) delegate to
the ``python`` reference backend — they are experiment paths, not
serving paths, and delegation keeps them trivially bit-identical.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np
from scipy.sparse import _sparsetools as _st

from ...core.sharded import BOUND_SLACK, SCAN_BLOCK
from .base import ScanResult
from .python_ref import PythonReferenceBackend

#: Layers smaller than this run the plain scalar path — below it the
#: per-call numpy dispatch overhead costs more than vectorisation saves.
BLOCK_MIN = 8
#: First chunk size of a blocked layer; chunks double up to CHUNK_MAX.
#: Growing chunks bound the speculative work past a termination point
#: (at most one chunk) while amortising call overhead on long layers.
#: Large chunks are cheap because the dominant stop location is a layer
#: head (bounds shrink most at the t1 <- t2 shift), which the pre-chunk
#: head check catches before any gather work.
CHUNK_START = 512
CHUNK_MAX = 4096
#: Chunk size while dummies remain in the heap (θ == 0): every node
#: admits, so the chunk replays through the scalar heap loop — small
#: chunks keep that replay (and the θ-crossing tail) bounded.
FILL_CHUNK = 128

#: Shared empty frontier — layers with no unseen children all return it.
_EMPTY = np.empty(0, dtype=np.int64)


class _PreparedState:
    """Per-index derived arrays + reusable scratch for the blocked scan.

    Cached on ``PreparedIndex._backend_cache['numpy']``; one instance
    per index, so concurrent scans on *different* indexes never share
    scratch (scans on one index already share a workspace upstream).
    """

    __slots__ = (
        "succ_indptr",
        "succ_count",
        "succ_indices",
        "succ_zeros",
        "succ_iota",
        "chbuf",
        "chx",
        "indices64",
        "data64",
        "rowlen",
        "fpos",
        "bp",
        "bi",
        "bd",
        "pbuf",
        "t2p",
        "smp",
        "tbuf",
        "bbuf",
        "row_ip",
        "row_out",
    )

    def __init__(self, prepared) -> None:
        n = prepared.n
        succ_lists = prepared.succ_lists
        lens = np.fromiter(
            (len(s) for s in succ_lists), dtype=np.int64, count=n
        )
        self.succ_indptr = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(lens, dtype=np.int64))
        )
        self.succ_count = lens
        total = int(self.succ_indptr[-1])
        self.succ_indices = np.fromiter(
            (child for lst in succ_lists for child in lst),
            dtype=np.int64,
            count=total,
        )
        self.succ_iota = np.arange(total, dtype=np.int64)
        # Dummy data + scratch so one csr_row_index call can gather a
        # frontier's successor lists (we only want the column indices).
        self.succ_zeros = np.zeros(total, dtype=np.float64)
        self.chbuf = np.empty(total, dtype=np.int64)
        self.chx = np.empty(total, dtype=np.float64)
        # csr_row_index/csr_matvec are templated on one index dtype:
        # normalise the CSR indices to int64 (usually a no-op view).
        self.indices64 = np.ascontiguousarray(
            prepared.uinv_indices, dtype=np.int64
        )
        self.data64 = np.ascontiguousarray(prepared.uinv_data, dtype=np.float64)
        self.rowlen = np.diff(prepared.uinv_indptr_arr).astype(np.int64)
        self.fpos = np.empty(n, dtype=np.int64)
        nnz = int(prepared.uinv_indptr_arr[-1]) if n else 0
        self.bp = np.empty(n + 1, dtype=np.int64)
        self.bi = np.empty(nnz, dtype=np.int64)
        self.bd = np.empty(nnz, dtype=np.float64)
        self.pbuf = np.empty(n, dtype=np.float64)
        self.t2p = np.empty(n + 1, dtype=np.float64)
        self.smp = np.empty(n + 1, dtype=np.float64)
        self.tbuf = np.empty(n + 1, dtype=np.float64)
        self.bbuf = np.empty(n, dtype=np.float64)
        self.row_ip = np.array([0, 0], dtype=np.int64)
        self.row_out = np.empty(1, dtype=np.float64)


class _ShardState:
    """Per-shard numpy mirrors + scratch for the block shard scan."""

    __slots__ = (
        "indptr",
        "indices64",
        "data64",
        "block_indptr",
        "head_norms",
        "bounds",
        "pbuf",
    )

    def __init__(self, shard) -> None:
        self.indptr = np.asarray(shard.row_indptr, dtype=np.int64)
        self.indices64 = np.ascontiguousarray(
            shard.row_indices, dtype=np.int64
        )
        self.data64 = np.ascontiguousarray(shard.row_data, dtype=np.float64)
        self.block_indptr = np.asarray(shard.block_indptr, dtype=np.int64)
        # Row 1-norm of each block's first member: its Hölder bound.
        self.head_norms = np.asarray(
            shard.scan_norms[::SCAN_BLOCK], dtype=np.float64
        )
        self.bounds = np.empty(self.head_norms.shape[0], dtype=np.float64)
        self.pbuf = np.empty(SCAN_BLOCK, dtype=np.float64)


class NumpyBlockedBackend:
    """Blocked-vectorised kernel backend (see module docstring)."""

    name = "numpy"

    def __init__(self) -> None:
        self._reference = PythonReferenceBackend()

    # ------------------------------------------------------------------
    @staticmethod
    def _prepared_state(prepared) -> _PreparedState:
        state = prepared._backend_cache.get("numpy")
        if state is None:
            state = _PreparedState(prepared)
            prepared._backend_cache["numpy"] = state
        return state

    @staticmethod
    def _shard_state(shard) -> _ShardState:
        state = shard._backend_cache.get("numpy")
        if state is None:
            state = _ShardState(shard)
            shard._backend_cache["numpy"] = state
        return state

    # ------------------------------------------------------------------
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
        if schedule is not None:
            # Fixed-schedule ablation: reference path (see module docs).
            return self._reference.scan(
                prepared,
                y,
                seeds,
                k=k,
                threshold=threshold,
                total_mass=total_mass,
                schedule=schedule,
            )
        state = self._prepared_state(prepared)
        n = prepared.n
        amax = prepared.amax
        c = prepared.c
        c_prime = prepared.c_prime
        total_mass = float(total_mass)

        position = prepared.position_arr
        indptr = prepared.uinv_indptr_arr
        amax_col = prepared.amax_col_arr
        indices = state.indices64
        data = state.data64
        rowlen = state.rowlen
        succ_lists = prepared.succ_lists
        succ_indptr = state.succ_indptr
        succ_count = state.succ_count
        succ_indices = state.succ_indices
        succ_iota = state.succ_iota
        row_ip = state.row_ip
        row_out = state.row_out
        csr_matvec = _st.csr_matvec
        csr_row_index = _st.csr_row_index
        heapreplace = heapq.heapreplace

        unit_bound = frozenset(int(s) for s in seeds)

        use_heap = k is not None
        if use_heap:
            # The exact dummy-heap dance of the reference backend: the
            # raw heap array order IS ScanResult.items, so the heapify
            # and every heapreplace must happen identically.
            heap: List[Tuple[float, int, int]] = [
                (0.0, -(n + j), -1) for j in range(min(k, n))
            ]
            heapq.heapify(heap)
            theta = 0.0
            answers: List[Tuple[int, float]] = []
        else:
            heap = []
            theta = float(threshold)
            answers = []

        t1 = 0.0
        t2 = 0.0
        selected_mass = 0.0
        n_visited = 0
        n_computed = 0
        terminated_early = False

        frontier = np.array(sorted(unit_bound), dtype=np.int64)
        seen = bytearray(n)
        seen_np = np.frombuffer(seen, dtype=np.uint8)
        seen_np[frontier] = 1

        seed_layer = True
        stop = False
        while frontier.shape[0] and not stop:
            nodes_arr_l = frontier
            t1 = t2
            t2 = 0.0
            m = nodes_arr_l.shape[0]
            was_seed = seed_layer
            seed_layer = False

            if m < BLOCK_MIN:
                # ---- scalar path: oracle bookkeeping, per-row C dot.
                next_frontier: List[int] = []
                for node in nodes_arr_l.tolist():
                    n_visited += 1
                    if node not in unit_bound:
                        bound = c_prime * (
                            t1 + t2 + (total_mass - selected_mass) * amax
                        )
                        if bound < theta:
                            terminated_early = True
                            stop = True
                            break
                    pos = position[node]
                    lo = indptr[pos]
                    hi = indptr[pos + 1]
                    row_ip[1] = hi - lo
                    row_out[0] = 0.0
                    csr_matvec(
                        1, n, row_ip, indices[lo:hi], data[lo:hi], y, row_out
                    )
                    proximity = c * float(row_out[0])
                    n_computed += 1
                    t2 += proximity * float(amax_col[node])
                    selected_mass += proximity
                    if use_heap:
                        worst = heap[0]
                        if proximity > worst[0] or (
                            proximity == worst[0] and -node > worst[1]
                        ):
                            heapreplace(heap, (proximity, -node, node))
                            theta = heap[0][0]
                    elif proximity >= theta:
                        answers.append((node, proximity))
                    for child in succ_lists[node]:
                        if not seen[child]:
                            seen[child] = 1
                            next_frontier.append(child)
                frontier = np.array(next_frontier, dtype=np.int64)
                continue

            # ---- blocked path: geometrically growing chunks.
            chunk = CHUNK_START
            c0 = 0
            while c0 < m:
                # Head-of-chunk Lemma 2 check: the chunk's first node
                # is visited, its bound fails, the scan stops — before
                # any gather work.  (θ == 0 can never stop: bounds are
                # non-negative and the cut-off is strict.)
                if not was_seed and theta > 0.0:
                    if (
                        c_prime
                        * (t1 + t2 + (total_mass - selected_mass) * amax)
                        < theta
                    ):
                        n_visited += 1
                        terminated_early = True
                        stop = True
                        break
                if was_seed or (use_heap and theta == 0.0):
                    c1 = min(c0 + FILL_CHUNK, m)
                else:
                    c1 = min(c0 + chunk, m)
                    chunk = min(chunk * 2, CHUNK_MAX)
                mc = c1 - c0
                nodes_arr = nodes_arr_l[c0:c1]
                pos = position.take(nodes_arr)
                counts = rowlen.take(pos)
                bp = state.bp[: mc + 1]
                bp[0] = 0
                counts.cumsum(out=bp[1:])
                total = int(bp[mc])
                bi = state.bi[:total]
                bd = state.bd[:total]
                csr_row_index(mc, pos, indptr, indices, data, bi, bd)
                p = state.pbuf[:mc]
                p[:] = 0.0
                csr_matvec(mc, n, bp, bi, bd, y, p)
                p *= c

                # Prefix sums carrying the running terms: t2p[i]/smp[i]
                # are the exact t2/selected_mass the scalar loop holds
                # *before* visiting chunk node i.
                t2p = state.t2p[: mc + 1]
                np.take(amax_col, nodes_arr, out=t2p[1:])
                t2p[1:] *= p
                t2p[0] = t2
                t2p.cumsum(out=t2p)
                smp = state.smp[: mc + 1]
                smp[0] = selected_mass
                smp[1:] = p
                smp.cumsum(out=smp)

                s_idx = -1
                if was_seed or (use_heap and theta == 0.0):
                    # Seed layer (no bounds) or heap-fill phase (θ == 0
                    # cannot stop).  Scalar replay; bounds materialise
                    # lazily the moment θ first rises above zero.
                    pl = p.tolist()
                    nl = nodes_arr.tolist()
                    bounds = None
                    for idx in range(mc):
                        if not was_seed and theta > 0.0:
                            if bounds is None:
                                bounds = state.bbuf[:mc]
                                np.subtract(
                                    total_mass, smp[:mc], out=bounds
                                )
                                bounds *= amax
                                tb = state.tbuf[:mc]
                                np.add(t2p[:mc], t1, out=tb)
                                bounds += tb
                                bounds *= c_prime
                            if float(bounds[idx]) < theta:
                                s_idx = idx
                                break
                        node = nl[idx]
                        proximity = pl[idx]
                        if use_heap:
                            worst = heap[0]
                            if proximity > worst[0] or (
                                proximity == worst[0] and -node > worst[1]
                            ):
                                heapreplace(heap, (proximity, -node, node))
                                theta = heap[0][0]
                        elif proximity >= theta:
                            answers.append((node, proximity))
                else:
                    bounds = state.bbuf[:mc]
                    np.subtract(total_mass, smp[:mc], out=bounds)
                    bounds *= amax
                    tb = state.tbuf[:mc]
                    np.add(t2p[:mc], t1, out=tb)
                    bounds += tb
                    bounds *= c_prime
                    if use_heap:
                        if mc > 1 and bool((bounds[1:] > bounds[:-1]).any()):
                            # Float-level monotonicity failed: exact
                            # per-node scalar replay for this chunk.
                            pl = p.tolist()
                            bl = bounds.tolist()
                            nl = nodes_arr.tolist()
                            idx = 0
                            for b, proximity in zip(bl, pl):
                                if b < theta:
                                    s_idx = idx
                                    break
                                node = nl[idx]
                                worst = heap[0]
                                if proximity > worst[0] or (
                                    proximity == worst[0]
                                    and -node > worst[1]
                                ):
                                    heapreplace(
                                        heap, (proximity, -node, node)
                                    )
                                    theta = heap[0][0]
                                idx += 1
                        else:
                            # Monotone bounds: candidate replay.  Only
                            # nodes with p >= θ_entry can be admitted;
                            # between admissions θ is constant, so one
                            # comparison per candidate finds the stop.
                            cand = np.nonzero(p >= theta)[0].tolist()
                            last_adm = -1
                            for idx in cand:
                                if float(bounds[idx]) < theta:
                                    lo = last_adm + 1
                                    s_idx = lo + int(
                                        np.argmax(
                                            bounds[lo : idx + 1] < theta
                                        )
                                    )
                                    break
                                node = int(nodes_arr[idx])
                                proximity = float(p[idx])
                                worst = heap[0]
                                if proximity > worst[0] or (
                                    proximity == worst[0]
                                    and -node > worst[1]
                                ):
                                    heapreplace(
                                        heap, (proximity, -node, node)
                                    )
                                    theta = heap[0][0]
                                    last_adm = idx
                            if s_idx < 0 and float(bounds[mc - 1]) < theta:
                                lo = last_adm + 1
                                s_idx = lo + int(
                                    np.argmax(bounds[lo:] < theta)
                                )
                    else:
                        # Threshold rule: θ is constant, so the first
                        # violation and the qualifying set vectorise
                        # outright (no monotonicity needed).
                        viol = bounds < theta
                        j = int(viol.argmax())
                        if not viol[j]:
                            j = -1
                        limit = mc if j < 0 else j
                        if limit:
                            sel = np.nonzero(p[:limit] >= theta)[0]
                            if sel.size:
                                # Deferred materialisation: park the
                                # (nodes, values) arrays (take copies
                                # out of the reused scratch) and build
                                # the tuples once at the end.
                                answers.append(
                                    (nodes_arr.take(sel), p.take(sel))
                                )
                        s_idx = j

                if s_idx >= 0:
                    # Exact restoration at the stopping node: it was
                    # visited (bound checked) but never computed.
                    n_visited += s_idx + 1
                    n_computed += s_idx
                    t2 = float(t2p[s_idx])
                    selected_mass = float(smp[s_idx])
                    terminated_early = True
                    stop = True
                    break

                n_visited += mc
                n_computed += mc
                t2 = float(t2p[mc])
                selected_mass = float(smp[mc])
                c0 = c1
            if stop:
                break

            # ---- deferred frontier expansion.  The head-of-next-layer
            # bound (t1' = t2, t2' = 0) is checked first: when it
            # already fails, any next layer stops at its very first
            # node, so the children are only probed for existence,
            # never turned into a frontier.
            scnt = succ_count.take(nodes_arr_l)
            stot = int(scnt.sum())
            stopping = (
                theta > 0.0
                and c_prime * (t2 + (total_mass - selected_mass) * amax)
                < theta
            )
            if stot == 0:
                if stopping:
                    break
                frontier = _EMPTY
                continue
            cand_children = state.chbuf[:stot]
            csr_row_index(
                m,
                nodes_arr_l,
                succ_indptr,
                succ_indices,
                state.succ_zeros,
                cand_children,
                state.chx[:stot],
            )
            unseen = seen_np.take(cand_children) == 0
            if stopping:
                if bool(unseen.any()):
                    n_visited += 1
                    terminated_early = True
                break
            fresh = cand_children[unseen]
            f = fresh.shape[0]
            if f:
                # First-occurrence dedup without sorting: scatter the
                # positions in *reverse* so the smallest position per
                # node wins (fancy assignment keeps the last write),
                # then keep exactly the elements that recorded their
                # own position.  Order is the scalar loop's discovery
                # order.
                fpos = state.fpos
                fpos[fresh[::-1]] = succ_iota[:f][::-1]
                frontier = fresh[fpos.take(fresh) == succ_iota[:f]]
                seen_np[frontier] = 1
            else:
                frontier = _EMPTY

        if use_heap:
            items = tuple((node, p_) for p_, _, node in heap if node >= 0)
        else:
            # `answers` interleaves scalar (node, value) tuples from the
            # small-layer path with deferred (nodes, values) array pairs
            # from the blocked path, in scan order.
            flat: List[Tuple[int, float]] = []
            for seg in answers:
                if isinstance(seg[0], np.ndarray):
                    flat.extend(zip(seg[0].tolist(), seg[1].tolist()))
                else:
                    flat.append(seg)
            items = tuple(flat)

        return ScanResult(
            items=items,
            n_visited=n_visited,
            n_computed=n_computed,
            n_pruned=n - n_visited,
            terminated_early=terminated_early,
        )

    # ------------------------------------------------------------------
    def scan_shard(
        self,
        shard,
        c: float,
        y: np.ndarray,
        ymax: float,
        heap: List[Tuple[float, int, int]],
    ) -> Tuple[int, int]:
        """Block shard scan, bit-identical to the reference.

        Every block bound comes from one ``csr_matvec`` over the colmax
        summary (the canonical reduction), then the same elementwise
        Hölder cap and slack as :func:`~repro.core.sharded.block_bounds`.
        A block is a contiguous run of rows, so its proximities are one
        ``csr_matvec`` over a view of the shard's CSR; only members with
        ``p >= θ`` replay the scalar heap test (θ only grows, so no
        other member can be admitted).
        """
        nodes = shard.scan_nodes
        nm = len(nodes)
        if nm == 0:
            return (0, 0)
        state = self._shard_state(shard)
        indptr = state.indptr
        indices = state.indices64
        data = state.data64
        csr_matvec = _st.csr_matvec
        heapreplace = heapq.heapreplace

        n = int(y.shape[0])
        bounds = state.bounds
        bounds[:] = 0.0
        csr_matvec(
            bounds.shape[0],
            n,
            state.block_indptr,
            shard.block_indices,
            shard.block_data,
            y,
            bounds,
        )
        bounds *= c
        np.minimum(bounds, state.head_norms * (c * ymax), out=bounds)
        bounds *= BOUND_SLACK
        bound_list = bounds.tolist()
        checked = 0
        computed = 0
        for b in np.argsort(-bounds, kind="stable").tolist():
            theta = heap[0][0]
            first = b * SCAN_BLOCK
            last = min(first + SCAN_BLOCK, nm)
            checked += last - first
            if bound_list[b] < theta:
                break
            m = last - first
            p = state.pbuf[:m]
            p[:] = 0.0
            csr_matvec(m, n, indptr[first : last + 1], indices, data, y, p)
            p *= c
            computed += m
            for idx in np.flatnonzero(p >= theta).tolist():
                node = nodes[first + idx]
                proximity = float(p[idx])
                worst = heap[0]
                if proximity > worst[0] or (
                    proximity == worst[0] and -node > worst[1]
                ):
                    heapreplace(heap, (proximity, -node, node))
        return (checked, computed)
