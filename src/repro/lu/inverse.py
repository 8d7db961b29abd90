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

The transient buffers the size of the inverse (the growing rows of
``X`` and their natural-order gather) each live in their own anonymous
mapping (:func:`_scratch`), so freeing one returns its pages to the
OS.  Through ``malloc`` they would not: once the first large buffer is
freed, glibc raises its dynamic mmap threshold, later buffers land on
the heap, and their pages stay resident after the build.  Only the
returned triples are ordinary arrays.
"""

from __future__ import annotations

import mmap
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
    l_inv = CSCMatrix((n, n), *_lower_inverse(ell, "L", unit_diagonal=True))
    # The CSC triple of (U^T)^-1 is the CSR triple of U^-1.
    u_inv = CSRMatrix((n, n), *_lower_inverse(u.T, "U", unit_diagonal=False))
    return l_inv, u_inv


def _lower_inverse(
    t: sp.spmatrix, name: str, unit_diagonal: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSC triple of ``T^-1``, rows sorted, for a lower-triangular ``T``."""
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
    a_idx, a_dat = _gather_rows(
        order, s_ptr + np.arange(n + 1), a_idx, a_dat, nnz=int(a_ptr[-1])
    )

    b_ptr = np.zeros(2 * n + 1, dtype=np.int64)
    b_ptr[: n + 1] = np.arange(n + 1)
    b_len = np.ones(2 * n, dtype=np.int64)  # stored entries per row of B
    capacity = 2 * n + len(s_idx)
    b_idx = _scratch(capacity, np.int64)
    b_dat = _scratch(capacity, np.float64)
    b_idx[:n] = np.arange(n)
    b_dat[:n] = 1.0
    used = n
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        level_rows = order[lo:hi]
        ap = a_ptr[lo : hi + 1]
        # csr_matmat writes C without bounds checks, so reserve a true
        # bound: row i of C has at most as many entries as the products
        # that feed it, and at most i + 1 (X is lower triangular).
        feeds = np.add.reduceat(b_len[a_idx[ap[0] : ap[-1]]], ap[:-1] - ap[0])
        bound = int(np.minimum(feeds, level_rows + 1).sum())
        if used + bound > capacity:
            capacity = max(used + bound, 2 * capacity)
            b_idx = _grow(b_idx, used, capacity)
            b_dat = _grow(b_dat, used, capacity)
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
        b_len[n + lo : n + hi] = counts
        b_ptr[n + lo + 1 : n + hi + 1] = used + np.cumsum(counts)
        used = int(b_ptr[n + hi])

    # Rows back in natural order, then transposed: csr_tocsc emits each
    # column's rows in ascending order.
    x_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(b_len[n:][pos], out=x_ptr[1:])
    x_idx, x_dat = _gather_rows(pos, b_ptr[n:], b_idx, b_dat, nnz=int(x_ptr[-1]))
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


def _grow(arr: np.ndarray, used: int, capacity: int) -> np.ndarray:
    """A :func:`_scratch` copy of ``arr[:used]`` with room for
    ``capacity`` entries."""
    out = _scratch(capacity, arr.dtype)
    out[:used] = arr[:used]
    return out


def _scratch(count: int, dtype) -> np.ndarray:
    """An uninitialised array in an anonymous mapping of its own: its
    pages go back to the OS when the array is released."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, max(count * dtype.itemsize, 1)), dtype, count)
