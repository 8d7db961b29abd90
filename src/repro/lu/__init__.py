"""LU decomposition and sparse triangular inverses (Section 4.2).

K-dash precomputes ``W = LU`` and the sparse inverses ``L^-1``, ``U^-1``
so that a single node's proximity is one sparse dot product (Equation 3).
Two interchangeable factorisation backends are provided:

- :mod:`repro.lu.crout` — the paper's Equations 6–7 implemented from
  scratch as a left-looking (Gilbert–Peierls) sparse factorisation, no
  pivoting (``W`` is strictly column diagonally dominant, see
  :func:`repro.graph.matrices.rwr_system_matrix`);
- :mod:`repro.lu.scipy_backend` — SuperLU with natural column order and
  diagonal pivoting, asserting that the row permutation stays identity so
  both backends produce *identical* factors (a test invariant).

:mod:`repro.lu.inverse` turns the factors into the adjacency-list-style
inverses (Equations 4–5), one dependency level of rows at a time and bit
for bit equal to the reach kernel of :mod:`repro.sparse.triangular`, and
:mod:`repro.lu.fillin` does the nonzero accounting behind Figure 5.
"""

from .crout import crout_lu
from .fillin import FillInReport, fill_in_report, nnz_of_factors
from .inverse import triangular_inverses
from .scipy_backend import superlu_lu
from .solve import lu_solve_dense

__all__ = [
    "crout_lu",
    "superlu_lu",
    "triangular_inverses",
    "lu_solve_dense",
    "FillInReport",
    "fill_in_report",
    "nnz_of_factors",
]
