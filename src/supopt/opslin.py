"""Sparse and composite linear operators plus small dense solvers.

CSR is the single storage format. Adjoint products go through a CSC view
of A^T, built once per operator, that shares the CSR arrays, so A^T is
never materialized.
Operators are immutable after construction apart from a matvec counter
used for cost accounting and two caches filled on first use: ||A||_2^2
(`norm_sq`) and one Cholesky factor of the reduced Gram system
(`shifted_gram_solve`). All products are deterministic.
LAPACK (`scipy.linalg`) loads at the first reduced-system factorization,
so a run that never factors does not pay its resident memory.
"""

import warnings

import numpy as np
import scipy.sparse as sp


class DimensionMismatchError(ValueError):
    """Operator applied to a vector of the wrong length."""


class SpectralNormWarning(UserWarning):
    """Power iteration did not reach the requested tolerance."""


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
    the per-step closed forms.
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
    def shape(self):
        return self._csr.shape

    @property
    def nnz(self):
        return self._csr.nnz

    def tocsr(self):
        return self._csr

    def reset_matvec_count(self):
        self.matvec_count = 0

    @property
    def norm_sq(self):
        """||A||_2^2 from `spectral_norm_sq(self)`, computed on first use."""
        if self._norm_sq is None:
            self._norm_sq = spectral_norm_sq(self)
        return self._norm_sq

    # -- counted products ---------------------------------------------------

    def matvec(self, x):
        """Return A @ x."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise DimensionMismatchError(
                f"matvec: expected length {self.n_cols}, got {x.shape}")
        self.matvec_count += 1
        return self._csr @ x

    def rmatvec(self, y):
        """Return A.T @ y."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.n_rows,):
            raise DimensionMismatchError(
                f"rmatvec: expected length {self.n_rows}, got {y.shape}")
        self.matvec_count += 1
        return self._csr_t @ y

    # -- uncounted products (diagnostics, termination checks) ---------------

    def apply_nocount(self, x):
        return self._csr @ np.asarray(x, dtype=np.float64)

    def applyT_nocount(self, y):
        return self._csr_t @ np.asarray(y, dtype=np.float64)


def spectral_norm_sq(A):
    """Estimate ||A||_2^2 by power iteration on A^T A (uncounted products).

    Starts from a standard normal vector drawn with seed 0; stops when the
    Rayleigh quotient changes by <= 1e-8 relative to max(it, 1), else
    warns (`SpectralNormWarning`) after 500 steps and returns the last
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
                  SpectralNormWarning)
    return lam


def _woodbury_factor(A, ratio):
    """Lower Cholesky factor L of M = I_m + ratio * A A^T (dense m x m).

    `cho_factor(lower=True)` reads only the lower triangle of M, so only
    that is filled, in column blocks of the symmetric A A^T, into a zeroed
    Fortran-order array that is factored in place: no product of the whole
    Gram matrix and no copy of A^T. The zero upper triangle keeps the
    finiteness check to real entries. L stays Fortran-contiguous, so the
    triangular solves in `shifted_gram_solve` use it without a copy.
    """
    # imported here, not at module level: scipy.linalg costs about 8 MB
    # resident, and only ExactSMW and PDBasic ever factor
    from scipy.linalg import cho_factor

    csr, m = A.tocsr(), A.n_rows
    M = np.zeros((m, m), order="F")
    rows = 256
    for i in range(0, m, rows):
        # rows i: of column block i of A A^T; each entry sums over k in
        # ascending order, as in a product of the whole matrix
        M[i:, i:i + rows] = (csr[i:] @ csr[i:i + rows].T.tocsr()).toarray()
    M *= ratio
    M[np.diag_indices_from(M)] += 1.0
    return cho_factor(M, lower=True, overwrite_a=True)[0]


def shifted_gram_solve(A, c_id, c_gram, rhs, az=None):
    """Solve (c_id * I + c_gram * A^T A) z = rhs via the m x m reduced system.

    Uses (cI + gA^TA)^{-1} = (1/c) (I - (g/c) A^T (I_m + (g/c) A A^T)^{-1} A)
    with a dense Cholesky factor L of the inner m x m matrix, solved as
    L y = t, then L^T s = y by two level-2 triangular solves (`dtrsv`):
    `cho_solve` takes a single right-hand side through the level-3 `dtrsm`,
    about twice as slow per triangle. The operator caches one factor, keyed
    by the exact ratio g/c, the only number it depends on: a repeated ratio
    (unconstrained ExactSMW) reuses it, and a new one (each PDBasic step)
    replaces it. Each solve runs two products, both charged to the cost
    counter. The solve also holds A z: (I_m + (g/c) A A^T) s = A rhs makes
    A z = (A rhs - (g/c) A A^T s) / c = s / c. `az`, if given, is a
    length-m array that receives it, up to the rounding of the solve.
    """
    from scipy.linalg.blas import dtrsv  # lazily, as in _woodbury_factor

    if c_id <= 0 or c_gram < 0:
        raise ValueError("need c_id > 0 and c_gram >= 0")
    rhs = np.asarray(rhs, dtype=np.float64)
    ratio = c_gram / c_id
    if A._factor_cache is None or A._factor_cache[0] != ratio:
        A._factor_cache = None  # free the old factor before building anew
        A._factor_cache = (ratio, _woodbury_factor(A, ratio))
    L = A._factor_cache[1]
    t = A.matvec(rhs)
    # cho_factor checked the matrix once; check only the right-hand side
    y = dtrsv(L, np.asarray_chkfinite(t), lower=1)
    s = dtrsv(L, y, lower=1, trans=1, overwrite_x=1)
    if az is not None:
        np.divide(s, c_id, out=az)
    return (rhs - ratio * A.rmatvec(s)) / c_id
