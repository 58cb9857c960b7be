import numpy as np
import pytest

from oracles import dense_prox_ls_oracle
from supopt.opslin import (DimensionMismatchError, SparseOperator,
                           load_matrix_market, save_matrix_market,
                           shifted_gram_solve, smw_solve, spectral_norm_sq)


def random_operator(m, n, seed=0, density=1.0):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m, n))
    if density < 1.0:
        M[rng.random((m, n)) > density] = 0.0
    return SparseOperator(M), M


def test_matvec_matches_dense():
    A, M = random_operator(7, 11, seed=1, density=0.4)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(11)
    y = rng.standard_normal(7)
    assert np.allclose(A.matvec(x), M @ x)
    assert np.allclose(A.rmatvec(y), M.T @ y)


def test_matvec_count_and_nocount():
    A, _ = random_operator(5, 8, seed=3)
    x = np.ones(8)
    y = np.ones(5)
    assert A.matvec_count == 0
    A.matvec(x)
    A.rmatvec(y)
    assert A.matvec_count == 2
    A.apply_nocount(x)
    A.applyT_nocount(y)
    assert A.matvec_count == 2
    A.reset_matvec_count()
    assert A.matvec_count == 0


def test_adjoint_products_byte_equal_to_transposed_csr():
    A, _ = random_operator(30, 50, seed=16, density=0.3)
    y = np.random.default_rng(17).standard_normal(30)
    expected = (A.tocsr().T @ y).tobytes()
    assert A.rmatvec(y).tobytes() == expected
    assert A.applyT_nocount(y).tobytes() == expected


def test_dimension_mismatch():
    A, _ = random_operator(5, 8)
    with pytest.raises(DimensionMismatchError):
        A.matvec(np.ones(5))
    with pytest.raises(DimensionMismatchError):
        A.rmatvec(np.ones(8))


def test_explicit_zeros_pruned():
    M = np.array([[1.0, 0.0], [0.0, 2.0]])
    A = SparseOperator(M)
    assert A.nnz == 2
    assert A.shape == (2, 2)


def test_spectral_norm_sq_matches_dense():
    A, M = random_operator(6, 9, seed=4)
    expected = np.linalg.norm(M, 2) ** 2
    assert spectral_norm_sq(A) == pytest.approx(expected, rel=1e-6)


def test_spectral_norm_sq_deterministic():
    A, _ = random_operator(6, 9, seed=5)
    assert spectral_norm_sq(A) == spectral_norm_sq(A)


def test_spectral_norm_sq_rejects_zero_operator():
    A = SparseOperator(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        spectral_norm_sq(A)


def test_shifted_gram_solve_against_dense():
    A, M = random_operator(4, 10, seed=6)
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal(10)
    for c_id, c_gram in [(1.0, 0.5), (2.5, 1.0), (0.3, 3.0)]:
        z = shifted_gram_solve(A, c_id, c_gram, rhs)
        lhs = c_id * np.eye(10) + c_gram * (M.T @ M)
        assert np.allclose(z, np.linalg.solve(lhs, rhs), atol=1e-10)


def test_shifted_gram_solve_identity_limit():
    A, _ = random_operator(4, 10, seed=8)
    rhs = np.arange(10.0)
    assert np.allclose(shifted_gram_solve(A, 2.0, 0.0, rhs), rhs / 2.0)


def test_shifted_gram_solve_caches_factor():
    A, _ = random_operator(4, 10, seed=9)
    rhs = np.ones(10)
    shifted_gram_solve(A, 1.0, 0.7, rhs)
    assert len(A._factor_cache) == 1
    shifted_gram_solve(A, 1.0, 0.7, 2 * rhs)
    assert len(A._factor_cache) == 1
    shifted_gram_solve(A, 1.0, 0.8, rhs)
    assert len(A._factor_cache) == 2


def test_shifted_gram_solve_uncounted_path():
    A, _ = random_operator(4, 10, seed=10)
    rhs = np.ones(10)
    z1 = shifted_gram_solve(A, 1.0, 0.7, rhs)
    count = A.matvec_count
    z2 = shifted_gram_solve(A, 1.0, 0.7, rhs, counted=False)
    assert A.matvec_count == count
    assert np.array_equal(z1, z2)


def test_shifted_gram_solve_rejects_nan_rhs():
    A, _ = random_operator(4, 10, seed=18)
    rhs = np.ones(10)
    rhs[3] = np.nan
    with pytest.raises(ValueError):
        shifted_gram_solve(A, 1.0, 0.7, rhs)


def test_smw_solve_matches_dense():
    A, M = random_operator(5, 12, seed=11)
    rng = np.random.default_rng(12)
    rhs = rng.standard_normal(12)
    alpha, tau = 0.8, 0.3
    B = M.T @ M + np.eye(12) / alpha
    expected = np.linalg.solve(np.eye(12) + tau * B, rhs)
    assert np.allclose(smw_solve(A, alpha, tau, rhs), expected, atol=1e-10)


def test_dense_prox_oracle_optimality():
    A, M = random_operator(4, 10, seed=13)
    rng = np.random.default_rng(14)
    b = rng.standard_normal(4)
    x = rng.standard_normal(10)
    alpha = 0.6
    z = dense_prox_ls_oracle(A, b, alpha, x)
    # stationarity of 0.5||Az-b||^2 + ||z-x||^2/(2 alpha)
    grad = M.T @ (M @ z - b) + (z - x) / alpha
    assert np.max(np.abs(grad)) < 1e-10


def test_matrix_market_roundtrip(tmp_path):
    A, M = random_operator(6, 7, seed=15, density=0.5)
    path = tmp_path / "op"
    save_matrix_market(path, A)
    B = load_matrix_market(str(path) + ".mtx")
    assert np.allclose(B.toarray(), M)
