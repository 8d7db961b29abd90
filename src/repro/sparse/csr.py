"""Compressed sparse row matrix.

CSR is the *row-access* format: ``row(i)`` is an :math:`O(1)` slice.  The
K-dash query path stores ``U^-1`` in CSR because each proximity evaluation
is a dot product of one row of ``U^-1`` against a dense workspace
(Equation 3 of the paper).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.sparse import _sparsetools as _st

from ..exceptions import SparseMatrixError


class CSRMatrix:
    """Immutable CSR matrix with the operations the library needs.

    Parameters
    ----------
    shape:
        ``(n_rows, n_cols)``.
    indptr:
        ``n_rows + 1`` row-pointer array; row ``i`` occupies the slice
        ``indices[indptr[i]:indptr[i+1]]``.
    indices:
        Column index of each stored entry, sorted within each row.
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
        if self.indptr.size != n_rows + 1:
            raise SparseMatrixError(
                f"indptr must have length n_rows+1={n_rows + 1}, got {self.indptr.size}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise SparseMatrixError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise SparseMatrixError("indptr must be non-decreasing")
        if self.indices.size != self.data.size:
            raise SparseMatrixError("indices and data must have equal length")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= n_cols
        ):
            raise SparseMatrixError("column index out of bounds")

    # ------------------------------------------------------------------
    # Properties and element access
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.data.size)

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(column_indices, values)`` views of row ``i``."""
        if not (0 <= i < self.shape[0]):
            raise SparseMatrixError(f"row {i} out of range for shape {self.shape}")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def row_dot(self, i: int, x: np.ndarray) -> float:
        """Dot product of row ``i`` with dense vector ``x`` in O(nnz(row))."""
        idx, vals = self.row(i)
        if idx.size == 0:
            return 0.0
        return float(vals @ x[idx])

    def get(self, i: int, j: int) -> float:
        """Value at ``(i, j)`` (0.0 when not stored); O(log nnz(row))."""
        idx, vals = self.row(i)
        pos = np.searchsorted(idx, j)
        if pos < idx.size and idx[pos] == j:
            return float(vals[pos])
        return 0.0

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A @ x`` for a dense vector ``x``.

        scipy's ``csr_matvec``, the kernel ``A @ x`` runs on a
        ``csr_matrix``: each row summed in storage order from +0.0, bit
        for bit scipy's result, with no temporary the size of ``nnz``.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise SparseMatrixError(
                f"vector has shape {x.shape}, expected ({self.shape[1]},)"
            )
        out = np.zeros(self.shape[0], dtype=np.float64)
        _st.csr_matvec(*self.shape, self.indptr, self.indices, self.data, x, out)
        return out

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A.T @ x`` for a dense vector ``x``.

        ``A.T`` over the same arrays is a CSC matrix, so this is scipy's
        ``csc_matvec``: bit for bit ``A.T @ x`` on a ``csr_matrix``.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.shape[0],):
            raise SparseMatrixError(
                f"vector has shape {x.shape}, expected ({self.shape[0]},)"
            )
        out = np.zeros(self.shape[1], dtype=np.float64)
        _st.csc_matvec(
            self.shape[1], self.shape[0], self.indptr, self.indices, self.data, x, out
        )
        return out

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_coo(self) -> "COOMatrix":
        """Convert to coordinate format."""
        from .coo import COOMatrix

        row_ids = np.repeat(
            np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
        )
        return COOMatrix(self.shape, row_ids, self.indices, self.data)

    def to_csc(self) -> "CSCMatrix":
        """Convert to CSC (via COO; :math:`O(\\text{nnz}\\log\\text{nnz})`)."""
        return self.to_coo().to_csc()

    def transpose(self) -> "CSRMatrix":
        """Transpose: the CSC view of this matrix reinterpreted as CSR."""
        csc = self.to_csc()
        return CSRMatrix(
            (self.shape[1], self.shape[0]), csc.indptr, csc.indices, csc.data
        )

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense 2-D array."""
        return self.to_coo().to_dense()

    def to_scipy(self):
        """Convert to :class:`scipy.sparse.csr_matrix`."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()),
            shape=self.shape,
        )

    @classmethod
    def from_scipy(cls, mat) -> "CSRMatrix":
        """Build from any scipy sparse matrix (converted to CSR first)."""
        mat = mat.tocsr()
        mat.sort_indices()
        return cls(mat.shape, mat.indptr, mat.indices, mat.data)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Build from a dense 2-D array."""
        from .coo import COOMatrix

        return COOMatrix.from_dense(dense).to_csr()

    @classmethod
    def identity(cls, n: int) -> "CSRMatrix":
        """The ``n x n`` identity matrix."""
        from .coo import COOMatrix

        return COOMatrix.identity(n).to_csr()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"


from typing import TYPE_CHECKING  # noqa: E402

if TYPE_CHECKING:  # pragma: no cover
    from .coo import COOMatrix
    from .csc import CSCMatrix
