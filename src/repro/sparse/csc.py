"""Compressed sparse column matrix.

CSC is the *column-access* format: ``column(j)`` is an :math:`O(1)` slice.
The K-dash index stores ``L^-1`` in CSC because every query starts by
extracting column ``q`` of ``L^-1`` (Equation 3 of the paper), and the
column-normalised transition matrix ``A`` is naturally CSC (column ``v``
holds the out-transition probabilities of node ``v``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.sparse import _sparsetools as _st

from ..exceptions import SparseMatrixError


class CSCMatrix:
    """Immutable CSC matrix with the operations the library needs.

    Parameters
    ----------
    shape:
        ``(n_rows, n_cols)``.
    indptr:
        ``n_cols + 1`` column-pointer array; column ``j`` occupies the
        slice ``indices[indptr[j]:indptr[j+1]]``.
    indices:
        Row index of each stored entry, sorted within each column.
    data:
        Value of each stored entry.
    """

    __slots__ = ("shape", "indptr", "indices", "data")

    def __init__(
        self,
        shape: Tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        self._validate()

    def _validate(self) -> None:
        n_rows, n_cols = self.shape
        if self.indptr.size != n_cols + 1:
            raise SparseMatrixError(
                f"indptr must have length n_cols+1={n_cols + 1}, got {self.indptr.size}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise SparseMatrixError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise SparseMatrixError("indptr must be non-decreasing")
        if self.indices.size != self.data.size:
            raise SparseMatrixError("indices and data must have equal length")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= n_rows
        ):
            raise SparseMatrixError("row index out of bounds")

    # ------------------------------------------------------------------
    # Properties and element access
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.data.size)

    def column(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(row_indices, values)`` views of column ``j``."""
        if not (0 <= j < self.shape[1]):
            raise SparseMatrixError(f"column {j} out of range for shape {self.shape}")
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def get(self, i: int, j: int) -> float:
        """Value at ``(i, j)`` (0.0 when not stored); O(log nnz(col))."""
        idx, vals = self.column(j)
        pos = np.searchsorted(idx, i)
        if pos < idx.size and idx[pos] == i:
            return float(vals[pos])
        return 0.0

    def column_max(self, j: int) -> float:
        """Maximum stored value in column ``j`` (0.0 for an empty column).

        This is ``Amax(v)`` from Section 4.3.1 of the paper when applied to
        the transition matrix: the largest single-step probability out of
        node ``v``.  Zero-weight entries are never stored, so the result of
        an empty column is 0, matching a dangling node.
        """
        _, vals = self.column(j)
        if vals.size == 0:
            return 0.0
        return float(vals.max())

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A @ x`` for a dense vector ``x`` (scatter per column).

        scipy's ``csc_matvec``, the kernel ``A @ x`` runs on a
        ``csc_matrix``: bit for bit scipy's result, with no temporary
        the size of ``nnz``.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise SparseMatrixError(
                f"vector has shape {x.shape}, expected ({self.shape[1]},)"
            )
        out = np.zeros(self.shape[0], dtype=np.float64)
        _st.csc_matvec(*self.shape, self.indptr, self.indices, self.data, x, out)
        return out

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A.T @ x`` for a dense vector ``x``.

        ``A.T`` over the same arrays is a CSR matrix, so this is scipy's
        ``csr_matvec``: each column summed in storage order from +0.0,
        bit for bit ``A.T @ x`` on a ``csc_matrix``.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.shape[0],):
            raise SparseMatrixError(
                f"vector has shape {x.shape}, expected ({self.shape[0]},)"
            )
        out = np.zeros(self.shape[1], dtype=np.float64)
        _st.csr_matvec(
            self.shape[1], self.shape[0], self.indptr, self.indices, self.data, x, out
        )
        return out

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_coo(self) -> "COOMatrix":
        """Convert to coordinate format."""
        from .coo import COOMatrix

        col_ids = np.repeat(
            np.arange(self.shape[1], dtype=np.int64), np.diff(self.indptr)
        )
        return COOMatrix(self.shape, self.indices, col_ids, self.data)

    def to_csr(self) -> "CSRMatrix":
        """Convert to CSR (via COO; :math:`O(\\text{nnz}\\log\\text{nnz})`)."""
        return self.to_coo().to_csr()

    def transpose(self) -> "CSCMatrix":
        """Transpose: the CSR view of this matrix reinterpreted as CSC."""
        csr = self.to_csr()
        return CSCMatrix(
            (self.shape[1], self.shape[0]), csr.indptr, csr.indices, csr.data
        )

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense 2-D array."""
        return self.to_coo().to_dense()

    def to_scipy(self):
        """Convert to :class:`scipy.sparse.csc_matrix`."""
        import scipy.sparse as sp

        return sp.csc_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()),
            shape=self.shape,
        )

    @classmethod
    def from_scipy(cls, mat) -> "CSCMatrix":
        """Build from any scipy sparse matrix (converted to CSC first)."""
        mat = mat.tocsc()
        mat.sort_indices()
        return cls(mat.shape, mat.indptr, mat.indices, mat.data)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSCMatrix":
        """Build from a dense 2-D array."""
        from .coo import COOMatrix

        return COOMatrix.from_dense(dense).to_csc()

    @classmethod
    def identity(cls, n: int) -> "CSCMatrix":
        """The ``n x n`` identity matrix."""
        from .coo import COOMatrix

        return COOMatrix.identity(n).to_csc()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSCMatrix(shape={self.shape}, nnz={self.nnz})"


from typing import TYPE_CHECKING  # noqa: E402

if TYPE_CHECKING:  # pragma: no cover
    from .coo import COOMatrix
    from .csr import CSRMatrix
