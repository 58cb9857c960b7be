"""Sparse and composite linear operators plus small dense solvers.

CSR is the single storage format. Adjoint products go through a CSC view
of A^T, built once per operator, that shares the CSR arrays, so A^T is
never materialized.
Operators are immutable after construction apart from a matvec counter
used for cost accounting and two caches filled on first use: ||A||_2^2
(`norm_sq`), kept for the operator's life, and one Cholesky factor of
the reduced Gram system (`shifted_gram_solve`), kept only within a run:
`start_run` drops it with the counter. That factor is stored by block
rows of its lower triangle, about m^2/2 doubles rather than m^2
(`_woodbury_factor`); its fill needs beyond that one B x B tile's sparse
product, about 1 MB (`_gram_rows`). All products are deterministic.
LAPACK (`scipy.linalg`) loads at the first reduced-system factorization,
so a run that never factors does not pay its resident memory.
"""

import warnings

import numpy as np
import scipy.sparse as sp


# rows per stored block of the reduced-system Cholesky factor
_BLOCK_ROWS = 300


class DimensionMismatchError(ValueError):
    """A vector of the wrong length entered `supopt`."""


class NonFiniteError(ValueError):
    """A reduced system or its right-hand side holds a NaN or inf."""


def as_vector(name, v, length):
    """v as a float64 array; DimensionMismatchError unless of shape (length,).

    The one check of every vector that enters `supopt`; the message names
    the argument `name`.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (length,):
        raise DimensionMismatchError(
            f"{name} has shape {v.shape}, expected length {length}")
    return v


class SparseOperator:
    """CSR matrix with counted forward/adjoint products.

    Parameters
    ----------
    matrix : array_like or scipy sparse matrix, shape (m, n)
        Stored as CSR with explicit zeros pruned.

    Notes
    -----
    `matvec_count` counts operator applications charged to the algorithms'
    cost model (one unit per A or A^T product). Diagnostic quantities
    (termination residuals, logged metrics, inexactness certificates) go
    through the uncounted private products so that the logged cost matches
    the per-step closed forms. Each product raises `DimensionMismatchError`,
    naming the product, on a vector of the wrong length. `_factor_cache`
    holds at most one reduced system factor, as F-ordered block rows of
    its lower triangle: about 4 m^2 bytes, 26 MB at m = 2400. `start_run`
    zeroes the counter and drops the factor, so each run is charged and
    timed for its own.
    """

    def __init__(self, matrix):
        csr = sp.csr_matrix(matrix, dtype=np.float64)
        csr.eliminate_zeros()
        csr.sort_indices()
        self._csr = csr
        self._csr_t = csr.T  # CSC view sharing csr's arrays: no copy
        self.matvec_count = 0
        self._factor_cache = None  # (ratio, factor): shifted_gram_solve
        self._norm_sq = None

    @property
    def n_rows(self):
        return self._csr.shape[0]

    @property
    def n_cols(self):
        return self._csr.shape[1]

    @property
    def nnz(self):
        return self._csr.nnz

    def tocsr(self):
        return self._csr

    def start_run(self):
        """Zero `matvec_count` and drop the cached reduced-system factor."""
        self.matvec_count = 0
        self._factor_cache = None

    @property
    def norm_sq(self):
        """||A||_2^2 from `spectral_norm_sq(self)`, computed on first use."""
        if self._norm_sq is None:
            self._norm_sq = spectral_norm_sq(self)
        return self._norm_sq

    # -- counted products ---------------------------------------------------

    def matvec(self, x):
        """Return A @ x."""
        x = as_vector("matvec", x, self.n_cols)
        self.matvec_count += 1
        return self._csr @ x

    def rmatvec(self, y):
        """Return A.T @ y."""
        y = as_vector("rmatvec", y, self.n_rows)
        self.matvec_count += 1
        return self._csr_t @ y

    # -- uncounted products (diagnostics, termination checks) ---------------

    def apply_nocount(self, x):
        return self._csr @ as_vector("apply_nocount", x, self.n_cols)

    def applyT_nocount(self, y):
        return self._csr_t @ as_vector("applyT_nocount", y, self.n_rows)


def spectral_norm_sq(A):
    """Estimate ||A||_2^2 by power iteration on A^T A (uncounted products).

    Starts from a standard normal vector drawn with seed 0; stops when the
    Rayleigh quotient changes by <= 1e-8 relative to max(it, 1), else
    warns (`RuntimeWarning`) after 500 steps and returns the last
    estimate.
    """
    if A.nnz == 0:
        raise ValueError("spectral_norm_sq requires a nonzero operator")
    v = np.random.default_rng(0).standard_normal(A.n_cols)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(500):
        w = A.applyT_nocount(A.apply_nocount(v))
        lam_new = float(v @ w)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
        if abs(lam_new - lam) <= 1e-8 * max(abs(lam_new), 1.0):
            return lam_new
        lam = lam_new
    warnings.warn("power iteration did not converge; returning best estimate",
                  RuntimeWarning)
    return lam


def _gram_rows(A, ratio):
    """Block rows M[r0:r1, :r1] of M = I_m + ratio * A A^T, F-ordered.

    Block row r0:r1 is the transpose of Gram columns r0:r1 down to row
    r1. It is filled in tiles of `_BLOCK_ROWS` = B rows of that
    transpose: each tile is the sparse product of B rows of A with the
    block's transposed rows, written by `toarray(out=)` straight into a
    C-ordered array whose transpose is the F-ordered block row. A sparse
    product computes each output row from one row of its left factor,
    each entry summed over k in ascending order, so every entry is
    bit-identical to the same entry of a product of the whole matrix.
    The working memory beyond the block rows is one tile's product,
    about 12 B^2 bytes (1 MB), rather than a product of the full height.
    Raises `NonFiniteError` on a NaN or inf entry before any block is
    factored.
    """
    csr, m = A.tocsr(), A.n_rows
    rows = []
    for r0 in range(0, m, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, m)
        right = csr[r0:r1].T.tocsr()
        Mt = np.empty((r1, r1 - r0))
        for c0 in range(0, r1, _BLOCK_ROWS):
            c1 = min(c0 + _BLOCK_ROWS, r1)
            (csr[c0:c1] @ right).toarray(out=Mt[c0:c1])
        M = Mt.T
        M *= ratio
        M[:, r0:][np.diag_indices(r1 - r0)] += 1.0
        if not np.isfinite(M).all():
            raise NonFiniteError("non-finite reduced system")
        rows.append(M)
    return rows


def _woodbury_factor(A, ratio):
    """Lower Cholesky factor L of M = I_m + ratio * A A^T, by block rows.

    Returns a tuple of F-ordered block rows L[r0:r1, :r1] of
    `_BLOCK_ROWS` = B rows each, the last one ragged. Only the lower
    triangle and the upper half of each diagonal block are stored, the
    latter still holding M: at most 8 (m(m+1)/2 + mB/2) bytes, 26 MB at
    m = 2400 against 46 MB for the full array. The fill's working memory
    beyond that is one B x B tile's sparse product, about 1 MB
    (`_gram_rows`). Each block row of M is finished in place against the
    block rows above it, left-looking: `dgemm` and a right `dtrsm` for
    each block left of the diagonal, then `dsyrk` and `dpotrf` on the
    diagonal block; BLAS returns at once from a product over zero
    columns. For m <= B that is one `dpotrf`, as `cho_factor` runs it.
    Every view passed is F-contiguous, so the `overwrite_*` calls work in
    place.
    Packed storage (`dpptrf`) is level-2 and 5x slower to factor;
    rectangular full packed storage (`dpftrf`) factors at parity, but
    its solve goes through `dtrsm`, twice as slow per right-hand side,
    and its blocks cannot reach `dtrsv` without a copy. Raises
    `LinAlgError` if M is not positive definite.
    """
    # imported here, not at module level: scipy.linalg costs about 8 MB
    # resident, and only ExactSMW and PDBasic ever factor
    from scipy.linalg.blas import dgemm, dsyrk, dtrsm
    from scipy.linalg.lapack import dpotrf

    rows = _gram_rows(A, ratio)
    for p, L in enumerate(rows):
        r0 = p * _BLOCK_ROWS
        for q in range(p):
            s0, s1 = q * _BLOCK_ROWS, (q + 1) * _BLOCK_ROWS
            dgemm(-1.0, L[:, :s0], rows[q][:, :s0], 1.0, L[:, s0:s1],
                  trans_b=1, overwrite_c=1)
            dtrsm(1.0, rows[q][:, s0:], L[:, s0:s1], side=1, lower=1,
                  trans_a=1, overwrite_b=1)
        dsyrk(-1.0, L[:, :r0], 1.0, L[:, r0:], lower=1, overwrite_c=1)
        info = dpotrf(L[:, r0:], lower=1, clean=0, overwrite_a=1)[1]
        if info > 0:
            raise np.linalg.LinAlgError(
                f"{r0 + info}-th leading minor of the array is not "
                "positive definite")
    return tuple(rows)


def shifted_gram_solve(A, c_id, c_gram, rhs, az=None):
    """Solve (c_id * I + c_gram * A^T A) z = rhs via the m x m reduced system.

    Uses (cI + gA^TA)^{-1} = (1/c) (I - (g/c) A^T (I_m + (g/c) A A^T)^{-1} A)
    with the block-row Cholesky factor L of the inner m x m matrix
    (`_woodbury_factor`), solved in place as L y = t by block rows
    (`dgemv`, then `dtrsv` on the diagonal block), then L^T s = y from
    the last block row up (`dtrsv` with the transpose, then `dgemv`
    with it). For m <= B that is the two `dtrsv` calls alone: level 2,
    as `cho_solve` takes a single right-hand side through the level-3
    `dtrsm`, about twice as slow per triangle. The operator caches one
    factor, keyed by the exact ratio g/c, the only number it depends on:
    a repeated ratio (unconstrained ExactSMW) reuses it within a run, a
    new one (each PDBasic step) replaces it, and `start_run` drops it,
    so no run reuses another's factor. Each solve runs two products, both
    charged to the cost counter. The solve also holds A z:
    (I_m + (g/c) A A^T) s = A rhs makes
    A z = (A rhs - (g/c) A A^T s) / c = s / c. `az`, if given, is a
    length-m array that receives it, up to the rounding of the solve.
    Raises `NonFiniteError` on a NaN or inf in the reduced system or in
    A rhs.
    """
    from scipy.linalg.blas import dgemv, dtrsv  # lazily: see _woodbury_factor

    # written so that NaN fails every test
    if not (c_id > 0 and c_gram >= 0):
        raise ValueError("need c_id > 0 and c_gram >= 0")
    rhs = np.asarray(rhs, dtype=np.float64)
    ratio = c_gram / c_id
    if A._factor_cache is None or A._factor_cache[0] != ratio:
        A._factor_cache = None  # free the old factor before building anew
        A._factor_cache = (ratio, _woodbury_factor(A, ratio))
    rows = A._factor_cache[1]
    # the factor was checked once; check only the right-hand side. s holds
    # A rhs, then y, then s, overwritten one block of rows r0:r1 at a time
    s = A.matvec(rhs)
    if not np.isfinite(s).all():
        raise NonFiniteError("non-finite reduced right-hand side")
    for L in rows:
        r0, r1 = L.shape[1] - L.shape[0], L.shape[1]
        if r0:
            dgemv(-1.0, L[:, :r0], s[:r0], 1.0, s[r0:r1], overwrite_y=1)
        dtrsv(L[:, r0:], s[r0:r1], lower=1, overwrite_x=1)
    for L in reversed(rows):
        r0, r1 = L.shape[1] - L.shape[0], L.shape[1]
        dtrsv(L[:, r0:], s[r0:r1], lower=1, trans=1, overwrite_x=1)
        if r0:
            dgemv(-1.0, L[:, :r0], s[r0:r1], 1.0, s[:r0], trans=1,
                  overwrite_y=1)
    if az is not None:
        np.divide(s, c_id, out=az)
    return (rhs - ratio * A.rmatvec(s)) / c_id
