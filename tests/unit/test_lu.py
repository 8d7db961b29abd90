"""Unit tests for the LU kernels: Crout, SuperLU backend, inverses, solve."""

import json
import os
import platform
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import DecompositionError, InvalidParameterError, SparseMatrixError
from repro.graph import column_normalized_adjacency, rwr_system_matrix, scale_free_digraph
from repro.lu import (
    crout_lu,
    inverse,
    fill_in_report,
    lu_solve_dense,
    nnz_of_factors,
    superlu_lu,
    triangular_inverses,
)
from repro.ordering import DegreeReordering
from repro.sparse import CSCMatrix
from repro.sparse.triangular import sparse_lower_inverse, sparse_upper_inverse


@pytest.fixture
def system_matrix(er_graph):
    a = column_normalized_adjacency(er_graph)
    return rwr_system_matrix(a, 0.95)


class TestCrout:
    def test_factors_reproduce_w(self, system_matrix):
        ell, u = crout_lu(system_matrix)
        assert np.allclose((ell @ u).toarray(), system_matrix.toarray())

    def test_l_unit_lower(self, system_matrix):
        ell, _ = crout_lu(system_matrix)
        dense = ell.toarray()
        assert np.allclose(np.diag(dense), 1.0)
        assert np.allclose(np.triu(dense, k=1), 0.0)

    def test_u_upper_nonzero_diag(self, system_matrix):
        _, u = crout_lu(system_matrix)
        dense = u.toarray()
        assert np.allclose(np.tril(dense, k=-1), 0.0)
        assert np.all(np.abs(np.diag(dense)) > 0)

    def test_matches_dense_lu(self):
        rng = np.random.default_rng(0)
        n = 12
        dense = np.eye(n) + 0.05 * rng.random((n, n))
        ell, u = crout_lu(sp.csc_matrix(dense))
        assert np.allclose((ell @ u).toarray(), dense)

    def test_zero_pivot_detected(self):
        singular = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(DecompositionError):
            crout_lu(singular)

    def test_non_square_rejected(self):
        with pytest.raises(SparseMatrixError):
            crout_lu(sp.csr_matrix((2, 3)))

    def test_negative_drop_tolerance_rejected(self, system_matrix):
        with pytest.raises(SparseMatrixError):
            crout_lu(system_matrix, drop_tolerance=-1.0)

    def test_drop_tolerance_sparsifies(self, system_matrix):
        exact_l, exact_u = crout_lu(system_matrix)
        loose_l, loose_u = crout_lu(system_matrix, drop_tolerance=1e-3)
        assert loose_l.nnz + loose_u.nnz <= exact_l.nnz + exact_u.nnz

    def test_identity_matrix(self):
        ell, u = crout_lu(sp.identity(5, format="csc"))
        assert np.allclose(ell.toarray(), np.eye(5))
        assert np.allclose(u.toarray(), np.eye(5))


class TestSuperLUBackend:
    def test_agrees_with_crout(self, system_matrix):
        l1, u1 = crout_lu(system_matrix)
        l2, u2 = superlu_lu(system_matrix)
        assert np.allclose(l1.toarray(), l2.toarray())
        assert np.allclose(u1.toarray(), u2.toarray())

    def test_factors_reproduce_w(self, system_matrix):
        ell, u = superlu_lu(system_matrix)
        assert np.allclose((ell @ u).toarray(), system_matrix.toarray())

    def test_singular_rejected(self):
        singular = sp.csc_matrix((3, 3))
        with pytest.raises(DecompositionError):
            superlu_lu(singular)

    def test_non_square_rejected(self):
        with pytest.raises(SparseMatrixError):
            superlu_lu(sp.csr_matrix((2, 3)))


def assert_same_bits(got, want):
    """Equal ``indptr``, ``indices`` and ``data``, bit for bit."""
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))


def oracle_inverses(ell, u):
    """The reach kernel's ``L^-1`` and ``U^-1``, both CSC."""
    return (
        sparse_lower_inverse(CSCMatrix.from_scipy(ell), unit_diagonal=True),
        sparse_upper_inverse(CSCMatrix.from_scipy(u)),
    )


def assert_matches_oracle(ell, u):
    l_inv, u_inv = triangular_inverses(ell, u)
    l_want, u_want = oracle_inverses(ell, u)
    assert_same_bits(l_inv, l_want)
    assert_same_bits(u_inv.to_csc(), u_want)
    return l_inv, u_inv


def factor(*entries):
    """A 2 x 2 CSC factor storing exactly the ``(i, j, value)`` entries."""
    rows, cols, vals = zip(*entries)
    return sp.csc_matrix((vals, (rows, cols)), shape=(2, 2))


GOOD_L = factor((0, 0, 1.0), (1, 0, 0.5), (1, 1, 1.0))
GOOD_U = factor((0, 0, 1.0), (0, 1, 0.2), (1, 1, 2.0))
BAD_L = factor((0, 0, 1.0), (0, 1, 0.5), (1, 1, 1.0))  # an entry above the diagonal
BAD_U = factor((0, 0, 0.0), (0, 1, 0.2), (1, 1, 2.0))  # a zero on the diagonal


def bidiagonal_factors(n):
    """``L`` and ``U`` with one off-diagonal each: one level per row,
    and inverses with every entry of their triangle nonzero."""
    ell = sp.csc_matrix(sp.diags([np.ones(n), -0.7 * np.ones(n - 1)], [0, -1]))
    u = sp.csc_matrix(sp.diags([np.linspace(1.0, 2.0, n), 0.3 * np.ones(n - 1)], [0, 1]))
    return ell, u


class TestTriangularInverses:
    @pytest.mark.parametrize("factorise", [crout_lu, superlu_lu], ids=["crout", "scipy"])
    def test_inverse_product_is_w_inverse(self, system_matrix, factorise):
        ell, u = factorise(system_matrix)
        l_inv, u_inv = triangular_inverses(ell, u)
        w_inv = np.linalg.inv(system_matrix.toarray())
        assert np.allclose(u_inv.to_dense() @ l_inv.to_dense(), w_inv, atol=1e-8)

    def test_matches_reach_oracle(self, system_matrix):
        ell, u = crout_lu(system_matrix)
        assert_matches_oracle(ell, u)

    def test_scale_free_600_matches_reach_oracle(self):
        # SuperLU factors with about 50 levels, the widest of over 350 rows.
        graph = scale_free_digraph(600, 2400, seed=3)
        perm = DegreeReordering().compute(graph)
        a = perm.permute_matrix(column_normalized_adjacency(graph))
        ell, u = superlu_lu(rwr_system_matrix(a, 0.95))
        l_inv, u_inv = assert_matches_oracle(ell, u)
        assert l_inv.nnz > ell.nnz and u_inv.nnz > u.nnz

    def test_bidiagonal_one_level_per_row(self):
        n = 12
        ell, u = bidiagonal_factors(n)
        l_inv, u_inv = assert_matches_oracle(ell, u)
        assert l_inv.nnz == u_inv.nnz == n * (n + 1) // 2
        assert np.allclose(l_inv.to_dense(), np.linalg.inv(ell.toarray()))
        assert np.allclose(u_inv.to_dense(), np.linalg.inv(u.toarray()))

    def test_rows_grown_in_place_many_times(self, monkeypatch):
        # The rows of each inverse start with room for 3n - 1 entries and
        # end with n + n(n + 1)/2 (the unit rows, then the triangle): at
        # n = 400, 80,600 entries, so both maps of both factors grow seven
        # times in place.
        grown = []
        grow = inverse._grow

        def counted(buf, count, dtype):
            grown.append(count)
            return grow(buf, count, dtype)

        monkeypatch.setattr(inverse, "_grow", counted)
        n = 400
        l_inv, u_inv = assert_matches_oracle(*bidiagonal_factors(n))
        assert len(grown) == 2 * 2 * 7
        assert l_inv.nnz == u_inv.nnz == n * (n + 1) // 2

    def test_diagonal_only(self):
        d = np.array([2.0, 0.5, 4.0, 1.0, 3.0])
        ell, u = sp.identity(5, format="csc"), sp.csc_matrix(sp.diags(d))
        l_inv, u_inv = assert_matches_oracle(ell, u)
        assert np.array_equal(l_inv.to_dense(), np.eye(5))
        assert np.array_equal(u_inv.to_dense(), np.diag(1.0 / d))

    def test_single_node(self):
        l_inv, u_inv = assert_matches_oracle(
            sp.csc_matrix([[1.0]]), sp.csc_matrix([[0.25]])
        )
        assert l_inv.to_dense().tolist() == [[1.0]]
        assert u_inv.to_dense().tolist() == [[4.0]]

    def test_underflowed_quotient_dropped(self):
        # U^-1[0, 1] = -U_01 / (U_00 · U_11) rounds from the smallest
        # subnormal to zero, and a zero is not stored.
        u = factor((0, 0, 1.0), (0, 1, 5e-324), (1, 1, 4.0))
        _, u_inv = assert_matches_oracle(GOOD_L, u)
        assert u_inv.to_dense().tolist() == [[1.0, 0.0], [0.0, 0.25]]
        assert u_inv.nnz == 2

    @pytest.mark.parametrize(
        "ell, u, error, named",
        [
            (BAD_L, GOOD_U, SparseMatrixError, "L"),
            (GOOD_L, factor((0, 0, 1.0), (1, 0, 0.5), (1, 1, 2.0)), SparseMatrixError, "U"),
            (GOOD_L, factor((0, 0, 1.0), (0, 1, 0.2)), DecompositionError, "U"),
            (GOOD_L, BAD_U, DecompositionError, "U"),
            # L is checked first, whatever runs on the helper thread.
            (BAD_L, BAD_U, SparseMatrixError, "L"),
        ],
        ids=[
            "L-above-diagonal",
            "U-below-diagonal",
            "U-missing-diagonal",
            "U-zero-diagonal",
            "both-invalid",
        ],
    )
    def test_raises_the_oracles_exceptions(self, ell, u, error, named):
        with pytest.raises(error):
            oracle_inverses(ell, u)
        with pytest.raises(error, match=rf"\b{named}\b"):
            triangular_inverses(ell, u)

    # The pools fork right after a build, so no thread may outlive it.
    @pytest.mark.parametrize("u", [GOOD_U, BAD_U], ids=["returns", "raises"])
    def test_no_thread_outlives_the_call(self, u):
        before = set(threading.enumerate())
        try:
            triangular_inverses(GOOD_L, u)
        except DecompositionError:
            pass
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("failing", ["caller", "helper"])
    def test_level_loop_failure_raises_after_the_join(self, monkeypatch, failing):
        caller = threading.current_thread()
        solve = inverse._LevelInverse.solve

        def solve_or_fail(self):
            on_caller = threading.current_thread() is caller
            if on_caller == (failing == "caller"):
                raise MemoryError(f"no room on the {failing} thread")
            solve(self)

        monkeypatch.setattr(inverse._LevelInverse, "solve", solve_or_fail)
        before = set(threading.enumerate())
        with pytest.raises(MemoryError, match=failing):
            triangular_inverses(GOOD_L, GOOD_U)
        assert set(threading.enumerate()) == before

    def test_formats(self, system_matrix):
        from repro.sparse import CSRMatrix

        ell, u = crout_lu(system_matrix)
        l_inv, u_inv = triangular_inverses(ell, u)
        assert isinstance(l_inv, CSCMatrix)
        assert isinstance(u_inv, CSRMatrix)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            triangular_inverses(
                sp.identity(3, format="csc"), sp.identity(4, format="csc")
            )


# Inverts a random triangular pair in a fresh process and prints how much
# of the Anonymous: growth was freed memory that malloc kept.
_KEPT_GARBAGE_SCRIPT = """
import ctypes, gc, json
import numpy as np
import scipy.sparse as sp
from repro.lu import triangular_inverses

def anonymous_kb():
    with open("/proc/self/smaps_rollup") as f:
        for line in f:
            if line.startswith("Anonymous:"):
                return int(line.split()[1])

n, density = 1200, 0.1
rng = np.random.default_rng(1)

def strictly_lower():
    m = sp.tril(sp.random(n, n, density=density, random_state=rng), k=-1)
    return m / (density * n)  # rows sum below 1: the inverses stay bounded

ell = (sp.identity(n) + strictly_lower()).tocsc()
u = (sp.diags(1.0 + rng.random(n)) + strictly_lower().T).tocsc()
libc = ctypes.CDLL("libc.so.6")
gc.collect()
libc.malloc_trim(0)
before = anonymous_kb()
l_inv, u_inv = triangular_inverses(ell, u)
gc.collect()
after = anonymous_kb()
libc.malloc_trim(0)
print(json.dumps({
    "inverse_bytes": 16 * (l_inv.nnz + u_inv.nnz),
    "growth_kb": after - before,
    "growth_after_trim_kb": anonymous_kb() - before,
}))
"""


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="reads /proc/self/smaps_rollup and calls glibc's malloc_trim",
)
def test_inversion_leaves_no_helper_thread_garbage():
    """The helper thread allocates nothing the size of a factor.

    glibc gives each thread its own malloc arena, and what a thread frees
    there stays resident; the pools fork right after a build, so their
    workers would carry it.  With a whole factor inverted on the helper
    thread, this pair leaves about 7 MB of freed memory resident, against
    about 1.5 MB with only the level loop there.
    """
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", _KEPT_GARBAGE_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    figures = json.loads(proc.stdout)
    assert figures["inverse_bytes"] >= 10 * 2**20
    kept_kb = figures["growth_kb"] - figures["growth_after_trim_kb"]
    assert kept_kb < 4 * 1024, figures


class TestSolve:
    def test_lu_solve_matches_direct(self, system_matrix, rng):
        ell, u = crout_lu(system_matrix)
        b = rng.random(system_matrix.shape[0])
        x = lu_solve_dense(ell, u, b)
        assert np.allclose(system_matrix @ x, b)


class TestFillIn:
    def test_nnz_counts(self, system_matrix):
        ell, u = crout_lu(system_matrix)
        nnz_l, nnz_u = nnz_of_factors(ell, u)
        assert nnz_l == (ell.toarray() != 0).sum()
        assert nnz_u == (u.toarray() != 0).sum()

    def test_report_ratios(self, system_matrix, er_graph):
        ell, u = crout_lu(system_matrix)
        l_inv, u_inv = triangular_inverses(ell, u)
        report = fill_in_report(er_graph.n_edges, ell, u, l_inv, u_inv)
        assert report.n_edges == er_graph.n_edges
        assert report.nnz_inverses == l_inv.nnz + u_inv.nnz
        assert report.inverse_ratio == pytest.approx(
            (l_inv.nnz + u_inv.nnz) / er_graph.n_edges
        )
        assert report.factor_fill_ratio > 0

    def test_zero_edges(self):
        eye = sp.identity(3, format="csc")
        ell, u = crout_lu(eye)
        l_inv, u_inv = triangular_inverses(ell, u)
        report = fill_in_report(0, ell, u, l_inv, u_inv)
        assert report.inverse_ratio == 0.0
        assert report.factor_fill_ratio == 0.0
