"""Sparse triangular inverses ``L^-1`` and ``U^-1`` (Equations 4–5).

The K-dash index stores ``L^-1`` in CSC (query time slices *column* ``q``)
and ``U^-1`` in CSR (each proximity evaluation dots *row* ``u`` against a
dense workspace).

Both come from one kernel that computes Equation 4 a row at a time: row
``i`` of the inverse of a lower-triangular ``T`` is

    ``(e_i - Σ_{k<i} T_ik · row_k) / T_ii``,

so it needs only the rows ``k`` with ``T_ik ≠ 0``.  Rows are grouped by
dependency level, ``level(i) = 1 + max level(k)`` over those ``k`` (0 when
there are none), and each level is one scipy ``csr_matmat`` of its rows
of ``T`` against the rows already computed.  The work follows the
inverse's nonzeros, and no dense ``n × n`` or per-level ``rows × n``
buffer is allocated.  ``U^-1`` is the transpose of the same computation
on ``U^T`` (Equation 5).

The result is bit-identical to the reach kernel
(:func:`repro.sparse.triangular.sparse_lower_inverse`), which stays the
tests' oracle.  ``csr_matmat`` adds each entry's products in the order of
the row's stored entries, ascending ``k``, starting from +0.0; the reach
kernel subtracts the same products in the same order from 0.0.  Since
``fl(-a - b) = -fl(a + b)``, the negated sum is the reach kernel's value
bit for bit (the argument :mod:`repro.query.backends.base` makes for
``csr_matvec``).  The division by ``T_ii`` comes next in both, and exact
zeros are dropped after it.

The two factors are inverted at the same time.  The calling thread
checks both and lays out their levels, ``L`` first, so a bad ``L``
raises before ``U`` is read; then one helper thread runs ``U``'s levels
while the caller runs ``L``'s and puts ``L^-1`` in natural order, and
the helper is joined before :func:`triangular_inverses` returns.
``csr_matmat`` releases the interpreter lock, so the two level loops
overlap on two cores.  Every allocation the size of a factor stays on
the calling thread: glibc gives each thread its own malloc arena, and
what a helper frees there stays resident.  The helper allocates only
level-sized temporaries and the rows of its inverse.

The transient buffers the size of the inverse (the growing rows of
``X`` and their natural-order gather) each live in a private anonymous
mapping of their own (:func:`_mapping`), so freeing one returns its
pages to the OS.  Through ``malloc`` they would not: once the first
large buffer is freed, glibc raises its dynamic mmap threshold, later
buffers land on the heap, and their pages stay resident after the
build.  The rows of ``X`` grow in place (``mremap``), which moves page
table entries instead of copying the rows.  Only the returned triples
are ordinary arrays.
"""

from __future__ import annotations

import mmap
from concurrent.futures import ThreadPoolExecutor
from typing import Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools as _st

from ..exceptions import DecompositionError, InvalidParameterError, SparseMatrixError
from ..sparse import CSCMatrix, CSRMatrix


def triangular_inverses(
    ell: sp.spmatrix, u: sp.spmatrix
) -> Tuple[CSCMatrix, CSRMatrix]:
    """Invert the LU factors, keeping the inverses sparse.

    Parameters
    ----------
    ell:
        Unit lower triangular factor ``L`` (diagonal stored or not; a
        stored diagonal is ignored).
    u:
        Upper triangular factor ``U`` with nonzero diagonal.

    Returns
    -------
    (l_inv, u_inv):
        ``L^-1`` as :class:`~repro.sparse.csc.CSCMatrix` and ``U^-1`` as
        :class:`~repro.sparse.csr.CSRMatrix`, exact zeros dropped and
        indices sorted.

    Raises
    ------
    SparseMatrixError
        If ``L`` has an entry above or ``U`` one below the diagonal.
    DecompositionError
        If a diagonal entry of ``U`` is zero or missing.
    """
    n = ell.shape[0]
    if ell.shape != (n, n) or u.shape != (n, n):
        raise InvalidParameterError(
            f"factor shapes disagree: L {ell.shape}, U {u.shape}"
        )
    # Both factors are checked and laid out on this thread, L first.
    lower = _LevelInverse(ell, "L", unit_diagonal=True)
    # The CSC triple of (U^T)^-1 is the CSR triple of U^-1.
    upper = _LevelInverse(u.T, "U", unit_diagonal=False)
    with ThreadPoolExecutor(max_workers=1) as helper:  # joined on exit
        upper_solved = helper.submit(upper.solve)
        lower.solve()
        l_inv = CSCMatrix((n, n), *lower.csc_triple())
        upper_solved.result()
    return l_inv, CSRMatrix((n, n), *upper.csc_triple())


class _LevelInverse:
    """``T^-1`` for a lower-triangular ``T``, one dependency level at a time.

    The constructor checks ``T`` and lays out the levels, :meth:`solve`
    computes the rows of ``X = T^-1`` level by level, and
    :meth:`csc_triple` returns ``X`` as a CSC triple, rows sorted.  Only
    :meth:`solve` may run on another thread: it allocates no array the
    size of ``T``.
    """

    def __init__(self, t: sp.spmatrix, name: str, unit_diagonal: bool) -> None:
        t = sp.csr_matrix(t, dtype=np.float64, copy=True)
        t.sum_duplicates()  # also sorts each row's entries into ascending k
        n = t.shape[0]
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(t.indptr))
        cols = t.indices.astype(np.int64)
        if np.any(cols > rows):
            raise SparseMatrixError(f"{name} is not triangular")
        on_diag = cols == rows
        diag = np.ones(n)
        if not unit_diagonal:
            present = np.zeros(n, dtype=bool)
            present[rows[on_diag]] = True
            diag[rows[on_diag]] = t.data[on_diag]
            if not present.all():
                j = int(np.argmin(present))
                raise DecompositionError(f"missing diagonal at column {j} of {name}")
            if not diag.all():
                j = int(np.argmin(diag != 0.0))
                raise DecompositionError(f"zero diagonal at column {j} of {name}")
        strict = ~on_diag
        deps = np.bincount(rows[strict], minlength=n)
        s_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deps, out=s_ptr[1:])
        s_idx, s_dat = cols[strict], t.data[strict]

        level = np.zeros(n, dtype=np.int64)
        for i in np.flatnonzero(deps).tolist():
            level[i] = level[s_idx[s_ptr[i] : s_ptr[i + 1]]].max() + 1
        order = np.argsort(level, kind="stable")  # the rows, level by level
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n)
        n_levels = int(level.max()) + 1 if n else 0
        bounds = np.searchsorted(level[order], np.arange(n_levels + 1)).tolist()

        # Each level is one product C = A · B with A = [-I | T_strict] and
        # B = [I; X], so that C_i = Σ_k T_ik · row_k - e_i and row i of
        # X = T^-1 is -C_i / T_ii.  B's first n rows are the unit rows, then
        # come the rows of X in level order; A's rows are in level order too,
        # each its unit entry, then its strict entries in ascending k.
        a_idx = np.insert(n + pos[s_idx], s_ptr[:-1], np.arange(n))
        a_dat = np.insert(s_dat, s_ptr[:-1], -1.0)
        a_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deps[order] + 1, out=a_ptr[1:])
        self.a_ptr = a_ptr
        self.a_idx, self.a_dat = _gather_rows(
            order, s_ptr + np.arange(n + 1), a_idx, a_dat, nnz=int(a_ptr[-1])
        )
        self.n, self.diag, self.order, self.pos, self.bounds = n, diag, order, pos, bounds
        # B's row pointers and stored entries per row, filled by solve.
        self.b_ptr = np.zeros(2 * n + 1, dtype=np.int64)
        self.b_ptr[: n + 1] = np.arange(n + 1)
        self.b_len = np.ones(2 * n, dtype=np.int64)
        self.capacity = 2 * n + len(s_idx)  # B's entries before any growth
        self.rows = None  # B's (indices, values), set by solve

    def solve(self) -> None:
        """Compute the rows of ``X``, one ``csr_matmat`` per level."""
        n, order, diag = self.n, self.order, self.diag
        a_ptr, a_idx, a_dat = self.a_ptr, self.a_idx, self.a_dat
        b_ptr, b_len, capacity = self.b_ptr, self.b_len, self.capacity
        idx_map, dat_map = _mapping(capacity, np.int64), _mapping(capacity, np.float64)
        b_idx = np.frombuffer(idx_map, np.int64, capacity)
        b_dat = np.frombuffer(dat_map, np.float64, capacity)
        b_idx[:n] = np.arange(n)
        b_dat[:n] = 1.0
        used = n
        for lo, hi in zip(self.bounds[:-1], self.bounds[1:]):
            level_rows = order[lo:hi]
            ap = a_ptr[lo : hi + 1]
            # csr_matmat writes C without bounds checks, so reserve a true
            # bound: row i of C has at most as many entries as the products
            # that feed it, and at most i + 1 (X is lower triangular).
            feeds = np.add.reduceat(b_len[a_idx[ap[0] : ap[-1]]], ap[:-1] - ap[0])
            bound = int(np.minimum(feeds, level_rows + 1).sum())
            if used + bound > capacity:
                capacity = max(used + bound, 2 * capacity)
                # resize refuses while any view of a map is alive, and
                # only b_idx and b_dat outlive a level.
                del b_idx, b_dat
                b_idx = _grow(idx_map, capacity, np.int64)
                b_dat = _grow(dat_map, capacity, np.float64)
            cp = np.empty(hi - lo + 1, dtype=np.int64)
            _st.csr_matmat(
                hi - lo, n, ap, a_idx, a_dat, b_ptr, b_idx, b_dat,
                cp, b_idx[used : used + bound], b_dat[used : used + bound],
            )
            counts = np.diff(cp)
            vals = b_dat[used : used + cp[-1]]
            np.divide(vals, np.repeat(-diag[level_rows], counts), out=vals)
            if not vals.all():  # a quotient underflowed to zero
                keep = vals != 0.0
                counts = np.add.reduceat(keep, cp[:-1], dtype=np.int64)
                kept = int(counts.sum())
                b_idx[used : used + kept] = b_idx[used : used + cp[-1]][keep]
                b_dat[used : used + kept] = vals[keep]
            del vals  # a view of a map: see the growth above
            b_len[n + lo : n + hi] = counts
            b_ptr[n + lo + 1 : n + hi + 1] = used + np.cumsum(counts)
            used = int(b_ptr[n + hi])
        self.rows = (b_idx, b_dat)

    def csc_triple(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``X``'s CSC triple, rows sorted; releases the rows of B."""
        n, pos = self.n, self.pos
        b_idx, b_dat = self.rows
        self.rows = None
        # Rows back in natural order, then transposed: csr_tocsc emits each
        # column's rows in ascending order.
        x_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.b_len[n:][pos], out=x_ptr[1:])
        x_idx, x_dat = _gather_rows(
            pos, self.b_ptr[n:], b_idx, b_dat, nnz=int(x_ptr[-1])
        )
        del b_idx, b_dat
        out = (
            np.empty(n + 1, dtype=np.int64),
            np.empty(len(x_idx), dtype=np.int64),
            np.empty(len(x_idx)),
        )
        _st.csr_tocsc(n, n, x_ptr, x_idx, x_dat, *out)
        return out


def _gather_rows(rows, ptr, idx, dat, nnz: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``nnz`` entries of CSR rows ``rows``, concatenated in that
    order, in :func:`_scratch` buffers."""
    out_idx = _scratch(nnz, np.int64)
    out_dat = _scratch(nnz, np.float64)
    _st.csr_row_index(len(rows), rows, ptr, idx, dat, out_idx, out_dat)
    return out_idx, out_dat


def _scratch(count: int, dtype) -> np.ndarray:
    """An uninitialised array over a :func:`_mapping` of its own."""
    return np.frombuffer(_mapping(count, dtype), dtype, count)


def _mapping(count: int, dtype) -> mmap.mmap:
    """A private anonymous mapping with room for ``count`` entries of
    ``dtype``: its pages go back to the OS when the last array over it
    is released.

    Private, not mmap's default ``MAP_SHARED``: a shared anonymous
    mapping counts as shared memory, and once grown by ``mremap`` it
    raises SIGBUS past its first size.
    """
    nbytes = max(count * np.dtype(dtype).itemsize, 1)
    return mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)


def _grow(buf: mmap.mmap, count: int, dtype) -> np.ndarray:
    """``buf`` grown in place (``mremap``) to ``count`` entries of
    ``dtype``, as an array; its entries so far keep their values.  No
    other view of ``buf`` may be alive."""
    buf.resize(count * np.dtype(dtype).itemsize)
    return np.frombuffer(buf, dtype, count)
