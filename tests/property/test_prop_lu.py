"""Property-based tests for the LU pipeline on RWR system matrices."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph import column_normalized_adjacency, erdos_renyi_graph, rwr_system_matrix
from repro.lu import crout_lu, superlu_lu, triangular_inverses
from repro.ordering import RandomReordering
from repro.sparse import CSCMatrix
from repro.sparse.triangular import sparse_lower_inverse, sparse_upper_inverse


@st.composite
def rwr_systems(draw):
    """A random (W, graph) pair in the class the paper factorises."""
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(3, 30))
    p = draw(st.floats(0.05, 0.4))
    c = draw(st.sampled_from([0.3, 0.5, 0.9, 0.95, 0.99]))
    graph = erdos_renyi_graph(n, p, seed=seed)
    a = column_normalized_adjacency(graph)
    return rwr_system_matrix(a, c), graph


class TestFactorisationProperties:
    @given(rwr_systems())
    def test_lu_reconstructs_w(self, system):
        w, _ = system
        ell, u = crout_lu(w)
        assert np.allclose((ell @ u).toarray(), w.toarray(), atol=1e-10)

    @given(rwr_systems())
    def test_backends_identical(self, system):
        w, _ = system
        l1, u1 = crout_lu(w)
        l2, u2 = superlu_lu(w)
        assert np.allclose(l1.toarray(), l2.toarray(), atol=1e-10)
        assert np.allclose(u1.toarray(), u2.toarray(), atol=1e-10)

    @given(rwr_systems())
    def test_triangular_structure(self, system):
        w, _ = system
        ell, u = crout_lu(w)
        assert np.allclose(np.triu(ell.toarray(), k=1), 0.0)
        assert np.allclose(np.tril(u.toarray(), k=-1), 0.0)
        assert np.allclose(np.diag(ell.toarray()), 1.0)

    @given(rwr_systems())
    def test_pivots_positive(self, system):
        # Strict column diagonal dominance forces positive pivots.
        w, _ = system
        _, u = crout_lu(w)
        assert np.all(np.diag(u.toarray()) > 0)


def assert_same_bits(got, want):
    """Equal ``indptr``, ``indices`` and ``data``, bit for bit."""
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))


class TestInverseProperties:
    @given(rwr_systems(), st.sampled_from([crout_lu, superlu_lu]))
    def test_bit_identical_to_reach_oracle(self, system, factorise):
        w, _ = system
        ell, u = factorise(w)
        l_inv, u_inv = triangular_inverses(ell, u)
        assert_same_bits(
            l_inv, sparse_lower_inverse(CSCMatrix.from_scipy(ell), unit_diagonal=True)
        )
        assert_same_bits(u_inv.to_csc(), sparse_upper_inverse(CSCMatrix.from_scipy(u)))

    @given(rwr_systems())
    def test_inverse_product_solves_rwr(self, system):
        w, _ = system
        ell, u = crout_lu(w)
        l_inv, u_inv = triangular_inverses(ell, u)
        w_inv = u_inv.to_dense() @ l_inv.to_dense()
        assert np.allclose(w_inv @ w.toarray(), np.eye(w.shape[0]), atol=1e-8)

    @given(rwr_systems())
    def test_permutation_invariance_of_solution(self, system):
        # Reordering must never change the *solution*, only the fill.
        w, graph = system
        n = graph.n_nodes
        a = column_normalized_adjacency(graph)
        perm = RandomReordering(seed=1).compute(graph)
        permuted_a = perm.permute_matrix(a)
        # Recover c from W's diagonal structure: W = I - (1-c)A; on a
        # zero-diagonal A the diagonal of W is exactly 1.
        one_minus_c = None
        coo = a.tocoo()
        mask = coo.row != coo.col
        if mask.any():
            i = int(np.argmax(mask))
            one_minus_c = w.toarray()[coo.row[i], coo.col[i]] / -coo.data[i]
        if one_minus_c is None or one_minus_c <= 0:
            return  # edgeless draw: nothing to compare
        c = 1.0 - one_minus_c
        w_perm = rwr_system_matrix(permuted_a, c)
        x = np.linalg.solve(w.toarray(), np.eye(n)[0])
        x_perm = np.linalg.solve(w_perm.toarray(), np.eye(n)[int(perm.position[0])])
        assert np.allclose(x, perm.unpermute_vector(x_perm), atol=1e-9)
