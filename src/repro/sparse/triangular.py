"""Sparse triangular solves and triangular inversion.

These kernels implement the numerical heart of the paper's Section 4.2:
computing the sparse inverses ``L^-1`` and ``U^-1`` of the LU factors of
``W = I - (1-c)A`` (Equations 4 and 5), and solving triangular systems
with *sparse* right-hand sides so the work is proportional to the size of
the output, not to :math:`n`.

The central routine is :func:`sparse_lower_inverse`: for each column ``j``
it (1) finds the set of rows reachable from ``j`` in the directed graph of
``L`` via depth-first search (the classic Gilbert–Peierls *reach*), and
(2) runs forward substitution over exactly that set.  Total cost is
:math:`O(\\text{nnz}(L^{-1}))` plus sorting overhead — linear in the size
of the answer, which is what makes the paper's "practically O(n+m)" claim
achievable.

Upper-triangular inversion reuses the same kernel through transposition:
``U^-1 = (lower_inverse(U^T))^T``.

The index is built by the level kernel of :mod:`repro.lu.inverse`, which
computes the same inverses row by row; these column kernels are its
oracle, and the tests hold the two equal bit for bit.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..exceptions import DecompositionError, SparseMatrixError
from .csc import CSCMatrix


def _check_square(mat: CSCMatrix, name: str) -> int:
    if mat.shape[0] != mat.shape[1]:
        raise SparseMatrixError(f"{name} must be square, got shape {mat.shape}")
    return mat.shape[0]


def lower_triangular_solve(L: CSCMatrix, b: np.ndarray, unit_diagonal: bool = False) -> np.ndarray:
    """Solve ``L x = b`` by forward substitution with a dense RHS.

    Parameters
    ----------
    L:
        Lower-triangular CSC matrix.  Entries above the diagonal, if
        present, raise :class:`~repro.exceptions.SparseMatrixError`.
    b:
        Dense right-hand side of length ``n``.
    unit_diagonal:
        When ``True`` the diagonal of ``L`` is taken to be all ones and
        stored diagonal entries are ignored (Doolittle convention used by
        the paper's Equation 6, where ``L_ii = 1``).

    Returns
    -------
    numpy.ndarray
        The dense solution vector ``x``.
    """
    n = _check_square(L, "L")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise SparseMatrixError(f"b has shape {b.shape}, expected ({n},)")
    x = b.copy()
    for j in range(n):
        rows, vals = L.column(j)
        if rows.size and rows[0] < j:
            raise SparseMatrixError("matrix is not lower triangular")
        if not unit_diagonal:
            diag = 0.0
            if rows.size and rows[0] == j:
                diag = vals[0]
            if diag == 0.0:
                raise DecompositionError(f"zero diagonal at column {j} in lower solve")
            x[j] /= diag
        if x[j] != 0.0:
            below = rows > j
            if np.any(below):
                x[rows[below]] -= vals[below] * x[j]
    return x


def upper_triangular_solve(U: CSCMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``U x = b`` by backward substitution with a dense RHS.

    ``U`` must be upper-triangular CSC with nonzero diagonal (Crout's
    Equation 7 guarantees this for ``W = I - (1-c)A``).
    """
    n = _check_square(U, "U")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise SparseMatrixError(f"b has shape {b.shape}, expected ({n},)")
    x = b.copy()
    for j in range(n - 1, -1, -1):
        rows, vals = U.column(j)
        if rows.size and rows[-1] > j:
            raise SparseMatrixError("matrix is not upper triangular")
        diag = 0.0
        if rows.size and rows[-1] == j:
            diag = vals[-1]
        if diag == 0.0:
            raise DecompositionError(f"zero diagonal at column {j} in upper solve")
        x[j] /= diag
        if x[j] != 0.0:
            above = rows < j
            if np.any(above):
                x[rows[above]] -= vals[above] * x[j]
    return x


def _reach_lower(
    col_rows: List[np.ndarray], seeds: np.ndarray, n: int, marker: np.ndarray, stamp: int
) -> List[int]:
    """Rows reachable from ``seeds`` through the DAG of a lower-triangular
    matrix (edge ``j -> i`` for every stored ``L[i, j]`` with ``i > j``).

    Iterative DFS; ``marker``/``stamp`` implement O(1) amortised visited
    flags without reallocating per call.  The result is unsorted.
    """
    reach: List[int] = []
    stack: List[int] = []
    for s in seeds:
        s = int(s)
        if marker[s] != stamp:
            marker[s] = stamp
            stack.append(s)
            reach.append(s)
        while stack:
            j = stack.pop()
            for i in col_rows[j]:
                i = int(i)
                if marker[i] != stamp:
                    marker[i] = stamp
                    stack.append(i)
                    reach.append(i)
    return reach


def sparse_unit_lower_solve_sparse_rhs(
    L: CSCMatrix,
    rhs_rows: np.ndarray,
    rhs_vals: np.ndarray,
    workspace: np.ndarray = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve ``L x = b`` for *unit* lower-triangular ``L`` and sparse ``b``.

    Only the rows reachable from the support of ``b`` are touched, so the
    cost is proportional to ``nnz(x)``.  Used by the left-looking Crout
    factorisation (:mod:`repro.lu.crout`) and by triangular inversion.

    Returns ``(rows, values)`` of the sparse solution, with ``rows``
    sorted ascending and exact zeros dropped.
    """
    n = _check_square(L, "L")
    rhs_rows = np.asarray(rhs_rows, dtype=np.int64)
    rhs_vals = np.asarray(rhs_vals, dtype=np.float64)
    col_rows, col_vals = _strict_lower_columns(L)
    marker = np.full(n, -1, dtype=np.int64)
    if workspace is None:
        workspace = np.zeros(n, dtype=np.float64)
    reach = _reach_lower(col_rows, rhs_rows, n, marker, 0)
    reach.sort()
    workspace[rhs_rows] = rhs_vals
    out_rows = []
    out_vals = []
    for j in reach:
        xj = workspace[j]
        if xj != 0.0:
            rows_j = col_rows[j]
            if rows_j.size:
                workspace[rows_j] -= col_vals[j] * xj
            out_rows.append(j)
            out_vals.append(xj)
    # Reset workspace for reuse by the caller.
    workspace[np.asarray(reach, dtype=np.int64)] = 0.0
    return np.asarray(out_rows, dtype=np.int64), np.asarray(out_vals, dtype=np.float64)


def _strict_lower_columns(L: CSCMatrix) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Split a lower-triangular CSC into per-column strictly-below-diagonal
    ``(rows, values)`` arrays, validating triangularity once up front."""
    n = L.shape[0]
    col_rows: List[np.ndarray] = []
    col_vals: List[np.ndarray] = []
    for j in range(n):
        rows, vals = L.column(j)
        if rows.size and rows[0] < j:
            raise SparseMatrixError("matrix is not lower triangular")
        below = rows > j
        col_rows.append(rows[below].copy())
        col_vals.append(vals[below].copy())
    return col_rows, col_vals


def sparse_lower_inverse(L: CSCMatrix, unit_diagonal: bool = True) -> CSCMatrix:
    """Invert a sparse lower-triangular matrix, keeping the result sparse.

    Implements Equation 4 of the paper via reach-based forward
    substitution: column ``j`` of ``L^-1`` solves ``L x = e_j`` and its
    support is exactly the set of rows reachable from ``j`` in the graph
    of ``L``.  Cost: :math:`O(\\text{nnz}(L^{-1}))` numeric work in numpy
    slices plus a per-column sort of the reach set.

    Parameters
    ----------
    L:
        Lower-triangular CSC matrix.
    unit_diagonal:
        ``True`` for Doolittle factors (``L_ii = 1``, the paper's
        convention).  When ``False`` the stored diagonal is used and must
        be nonzero.

    Returns
    -------
    CSCMatrix
        ``L^-1`` in CSC format with sorted row indices per column.
    """
    n = _check_square(L, "L")
    col_rows, col_vals = _strict_lower_columns(L)
    diag = np.ones(n, dtype=np.float64)
    if not unit_diagonal:
        for j in range(n):
            rows, vals = L.column(j)
            if rows.size and rows[0] == j:
                diag[j] = vals[0]
            else:
                raise DecompositionError(f"missing diagonal at column {j}")
            if diag[j] == 0.0:
                raise DecompositionError(f"zero diagonal at column {j}")

    marker = np.full(n, -1, dtype=np.int64)
    workspace = np.zeros(n, dtype=np.float64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    all_rows: List[np.ndarray] = []
    all_vals: List[np.ndarray] = []

    for j in range(n):
        reach = _reach_lower(col_rows, np.array([j], dtype=np.int64), n, marker, j)
        reach.sort()
        workspace[j] = 1.0
        rows_out = []
        vals_out = []
        for k in reach:
            xk = workspace[k] / diag[k]
            if xk != 0.0:
                rows_k = col_rows[k]
                if rows_k.size:
                    workspace[rows_k] -= col_vals[k] * xk
                rows_out.append(k)
                vals_out.append(xk)
        workspace[np.asarray(reach, dtype=np.int64)] = 0.0
        all_rows.append(np.asarray(rows_out, dtype=np.int64))
        all_vals.append(np.asarray(vals_out, dtype=np.float64))
        indptr[j + 1] = indptr[j] + len(rows_out)

    indices = np.concatenate(all_rows) if all_rows else np.zeros(0, dtype=np.int64)
    data = np.concatenate(all_vals) if all_vals else np.zeros(0, dtype=np.float64)
    return CSCMatrix((n, n), indptr, indices, data)


def sparse_upper_inverse(U: CSCMatrix) -> CSCMatrix:
    """Invert a sparse upper-triangular matrix, keeping the result sparse.

    Implements Equation 5 of the paper by reduction to the lower-triangular
    kernel: ``U^-1 = (lower_inverse(U^T))^T``.  The diagonal of ``U`` must
    be nonzero (guaranteed for Crout factors of ``W``).
    """
    Ut = U.transpose()
    inv_t = sparse_lower_inverse(Ut, unit_diagonal=False)
    return inv_t.transpose()
