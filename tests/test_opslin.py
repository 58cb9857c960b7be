import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.blas import dtrsv

from oracles import dense_prox_ls_oracle
from supopt.opslin import (_BLOCK_ROWS, DimensionMismatchError,
                           SparseOperator, _gram_rows, _woodbury_factor,
                           shifted_gram_solve, spectral_norm_sq)


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
    A.start_run()
    assert A.matvec_count == 0


def test_adjoint_products_byte_equal_to_transposed_csr():
    A, _ = random_operator(30, 50, seed=16, density=0.3)
    y = np.random.default_rng(17).standard_normal(30)
    expected = (A.tocsr().T @ y).tobytes()
    assert A.rmatvec(y).tobytes() == expected
    assert A.applyT_nocount(y).tobytes() == expected


def test_dimension_mismatch():
    A, _ = random_operator(5, 8)
    for product in (A.matvec, A.apply_nocount):
        with pytest.raises(DimensionMismatchError, match=product.__name__):
            product(np.ones(5))
    for product in (A.rmatvec, A.applyT_nocount):
        with pytest.raises(DimensionMismatchError, match=product.__name__):
            product(np.ones(8))


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


def test_spectral_norm_sq_warns_runtime_warning_when_unconverged():
    # two top eigenvalues of A^T A within 0.1 %: the Rayleigh quotient
    # still moves by more than 1e-8 after 500 steps, and the spent
    # budget warns in the category every other budget warns in
    A = SparseOperator(np.diag([1.0, np.sqrt(0.999)]))
    with pytest.warns(RuntimeWarning, match="power iteration"):
        estimate = spectral_norm_sq(A)
    assert 0.999 < estimate <= 1.0


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


@pytest.mark.parametrize("c_id,c_gram", [(1.0, 0.5), (2.5, 1.0), (2.0, 0.0)])
def test_shifted_gram_solve_hands_over_a_z(c_id, c_gram):
    # A z = s / c_id from the reduced solve, without a product of its own
    A, M = random_operator(4, 10, seed=6)
    rhs = np.random.default_rng(7).standard_normal(10)
    az = np.empty(4)
    z = shifted_gram_solve(A, c_id, c_gram, rhs, az=az)
    assert np.array_equal(z, shifted_gram_solve(A, c_id, c_gram, rhs))
    assert np.allclose(az, M @ z, rtol=1e-12, atol=1e-12)
    assert A.matvec_count == 4


@pytest.mark.parametrize("c_id,c_gram", [(0.0, 1.0), (1.0, -1.0),
                                         (np.nan, 1.0), (1.0, np.nan)])
def test_shifted_gram_solve_rejects_bad_shifts(c_id, c_gram):
    # NaN fails too, before the cached factor is touched
    A, _ = random_operator(4, 10, seed=9)
    shifted_gram_solve(A, 1.0, 0.7, np.ones(10))
    cached = A._factor_cache
    with pytest.raises(ValueError, match="need c_id"):
        shifted_gram_solve(A, c_id, c_gram, np.ones(10))
    assert A._factor_cache is cached


def test_shifted_gram_solve_caches_factor():
    A, _ = random_operator(4, 10, seed=9)
    rhs = np.ones(10)
    assert A._factor_cache is None
    shifted_gram_solve(A, 1.0, 0.7, rhs)
    ratio, factor = A._factor_cache
    assert ratio == 0.7
    # a repeated ratio reuses the factor
    shifted_gram_solve(A, 2.0, 1.4, 2 * rhs)
    assert A._factor_cache[1] is factor
    # a new ratio replaces it
    shifted_gram_solve(A, 1.0, 0.8, rhs)
    assert A._factor_cache[0] == 0.8 and A._factor_cache[1] is not factor


def test_shifted_gram_solve_keeps_one_factor():
    # PDBasic changes tau_l every inner step: one factor each must not pile up
    A, M = random_operator(4, 10, seed=19)
    rhs = np.random.default_rng(20).standard_normal(10)
    for step in range(50):
        tau_l = 0.9 ** step
        c_id = 1.0 + tau_l / 0.7
        z = shifted_gram_solve(A, c_id, tau_l, rhs)
        assert A._factor_cache[0] == tau_l / (1.0 + tau_l / 0.7)
        assert np.array_equal(z, shifted_gram_solve(SparseOperator(M), c_id,
                                                    tau_l, rhs))
    for c_gram in (0.1, 0.2, 0.1, 0.3):
        shifted_gram_solve(A, 1.0, c_gram, rhs)
        assert A._factor_cache[0] == c_gram


def test_norm_sq_is_computed_once_per_operator():
    A, M = random_operator(5, 9, seed=21)
    assert A.norm_sq == spectral_norm_sq(SparseOperator(M))
    calls = []
    A.apply_nocount = lambda x: calls.append(1)
    assert A.norm_sq == spectral_norm_sq(SparseOperator(M))
    assert not calls


def test_shifted_gram_solve_rejects_nan_rhs():
    A, _ = random_operator(4, 10, seed=18)
    rhs = np.ones(10)
    rhs[3] = np.nan
    with pytest.raises(ValueError):
        shifted_gram_solve(A, 1.0, 0.7, rhs)


def dense_factor(rows):
    """The lower triangle of the factor that block rows `rows` store."""
    m = rows[-1].shape[1]
    L = np.zeros((m, m))
    for block in rows:
        r0, r1 = block.shape[1] - block.shape[0], block.shape[1]
        L[r0:r1, :r1] = block
    return np.tril(L)


def assert_gram_rows_match_whole_product(A, ratio):
    # the tiled fill sums each entry as the whole sparse product does
    csr, m = A.tocsr(), A.n_rows
    gram = ratio * (csr @ csr.T.tocsr()).toarray() + np.eye(m)
    filled = _gram_rows(A, ratio)
    assert len(filled) == -(-m // _BLOCK_ROWS)
    for r0, block in zip(range(0, m, _BLOCK_ROWS), filled):
        r1 = min(r0 + _BLOCK_ROWS, m)
        assert block.flags.f_contiguous
        assert np.array_equal(block, gram[r0:r1, :r1])


def test_shifted_gram_solve_across_gram_row_blocks():
    # m = 600 fills and factors A A^T in two blocks of 300 rows of A
    rng = np.random.default_rng(22)
    M = sp.random(600, 900, density=0.02, random_state=rng,
                  format="csr").toarray()
    A = SparseOperator(M)
    rhs = rng.standard_normal(900)
    for c_id, c_gram in [(1.0, 0.37), (2.5, 4.0)]:
        z = shifted_gram_solve(A, c_id, c_gram, rhs)
        lhs = c_id * np.eye(900) + c_gram * (M.T @ M)
        assert np.allclose(z, np.linalg.solve(lhs, rhs), atol=1e-10)
        ratio, rows = A._factor_cache
        dense = scipy.linalg.cholesky(np.eye(600) + ratio * (M @ M.T),
                                      lower=True)
        assert np.allclose(dense_factor(rows), dense, rtol=0, atol=1e-12)
        assert_gram_rows_match_whole_product(A, ratio)
    # three block rows, the last one and its last tile ragged
    m = 2 * _BLOCK_ROWS + 37
    M = sp.random(m, 900, density=0.02, random_state=rng, format="csr")
    assert_gram_rows_match_whole_product(SparseOperator(M), 0.37)


def test_one_block_factor_and_solve_are_cho_factor_and_two_dtrsv():
    # m <= _BLOCK_ROWS: one dpotrf and two dtrsv, bit for bit
    A, _ = random_operator(_BLOCK_ROWS, 400, seed=25, density=0.05)
    rhs = np.random.default_rng(26).standard_normal(400)
    z = shifted_gram_solve(A, 1.5, 0.6, rhs)
    ratio, (L,) = A._factor_cache
    csr = A.tocsr()
    gram = ratio * (csr @ csr.T.tocsr()).toarray() + np.eye(_BLOCK_ROWS)
    ref = scipy.linalg.cho_factor(np.asfortranarray(gram), lower=True)[0]
    assert np.array_equal(np.tril(L), np.tril(ref))
    y = dtrsv(ref, csr @ rhs, lower=1)
    s = dtrsv(ref, y, lower=1, trans=1)
    assert np.array_equal(z, (rhs - ratio * (csr.T @ s)) / 1.5)


@pytest.mark.parametrize("m", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                               2 * _BLOCK_ROWS + 37])
def test_shifted_gram_solve_with_ragged_last_block(m):
    rng = np.random.default_rng(m)
    M = sp.random(m, 700, density=0.02, random_state=rng,
                  format="csr").toarray()
    A = SparseOperator(M)
    rhs = rng.standard_normal(700)
    az = np.empty(m)
    z = shifted_gram_solve(A, 1.3, 0.7, rhs, az=az)
    lhs = 1.3 * np.eye(700) + 0.7 * (M.T @ M)
    assert np.allclose(z, np.linalg.solve(lhs, rhs), atol=1e-10)
    assert np.allclose(az, M @ z, rtol=1e-12, atol=1e-12)
    dense = scipy.linalg.cholesky(np.eye(m) + (0.7 / 1.3) * (M @ M.T),
                                  lower=True)
    assert np.allclose(dense_factor(A._factor_cache[1]), dense, rtol=0,
                       atol=1e-12)


def test_cached_factor_stores_about_half_the_matrix():
    # the lower triangle plus half of each diagonal block, no full m x m
    m = 2 * _BLOCK_ROWS + 37
    A, _ = random_operator(m, 700, seed=27, density=0.02)
    tracemalloc.start()
    try:
        shifted_gram_solve(A, 1.0, 0.7, np.ones(700))
        held = tracemalloc.get_traced_memory()[0]
        n_blocks = len(A._factor_cache[1])
        A._factor_cache = None
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert n_blocks == 3
    assert held <= 8 * (m * (m + 1) / 2 + m * _BLOCK_ROWS / 2) \
        + 1024 * n_blocks


def test_gram_fill_transient_is_a_few_tiles():
    # five block rows of a dense Gram; a product of the whole height
    # would hold about 5.5 tiles of 8 B^2 bytes beyond the block rows.
    # scipy.linalg is imported at module level, before tracing starts
    m = 4 * _BLOCK_ROWS + 37
    M = sp.random(m, 700, density=0.1, random_state=np.random.default_rng(29),
                  format="csr")
    A = SparseOperator(M)
    tracemalloc.start()
    try:
        rows = _woodbury_factor(A, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 5
    assert peak - sum(block.nbytes for block in rows) <= 24 * _BLOCK_ROWS ** 2


def test_cached_factor_is_fortran_contiguous():
    # dtrsv and dgemv copy a C-ordered block on every call
    A, _ = random_operator(2 * _BLOCK_ROWS + 37, 500, seed=23, density=0.05)
    shifted_gram_solve(A, 1.0, 0.7, np.ones(500))
    assert all(block.flags.f_contiguous for block in A._factor_cache[1])


def test_woodbury_factor_rejects_indefinite_matrix_in_a_later_block():
    # the first block row is I; rows past it make I - 10 A A^T indefinite
    M = np.zeros((_BLOCK_ROWS + 20, 50))
    M[_BLOCK_ROWS:] = np.random.default_rng(28).standard_normal((20, 50))
    with pytest.raises(np.linalg.LinAlgError):
        _woodbury_factor(SparseOperator(M), -10.0)


def test_shifted_gram_solve_rejects_nan_operator():
    M = np.random.default_rng(24).standard_normal((4, 10))
    M[2, 5] = np.nan
    A = SparseOperator(M)
    with pytest.raises(ValueError):
        shifted_gram_solve(A, 1.0, 0.7, np.ones(10))


def test_shifted_gram_solve_matches_dense():
    A, M = random_operator(5, 12, seed=11)
    rng = np.random.default_rng(12)
    rhs = rng.standard_normal(12)
    alpha, tau = 0.8, 0.3
    B = M.T @ M + np.eye(12) / alpha
    expected = np.linalg.solve(np.eye(12) + tau * B, rhs)
    z = shifted_gram_solve(A, 1.0 + tau / alpha, tau, rhs)
    assert np.allclose(z, expected, atol=1e-10)


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
