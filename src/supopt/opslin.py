"""Sparse and composite linear operators plus small dense solvers.

CSR is the single storage format. Adjoint products go through a CSC view
of A^T, built once per operator, that shares the CSR arrays, so A^T is
never materialized.
Operators are immutable after construction apart from a matvec counter
used for cost accounting; all products are deterministic.
"""

import warnings

import numpy as np
import scipy.io
import scipy.linalg
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
        self._factor_cache = {}
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

    def toarray(self):
        return self._csr.toarray()

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


def spectral_norm_sq(A, tol=1e-8, max_iter=500, seed=0):
    """Estimate ||A||_2^2 by power iteration on A^T A (uncounted products).

    Seeded start; stops when the Rayleigh quotient changes by <= tol
    relative to max(it, 1), else warns (`SpectralNormWarning`) after
    `max_iter` steps and returns the last estimate.
    """
    if A.nnz == 0:
        raise ValueError("spectral_norm_sq requires a nonzero operator")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.n_cols)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = A.applyT_nocount(A.apply_nocount(v))
        lam_new = float(v @ w)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1.0):
            return lam_new
        lam = lam_new
    warnings.warn("power iteration did not converge; returning best estimate",
                  SpectralNormWarning)
    return lam


# a PDBasic step solves with a new step size and then its duality gap;
# keeping every key grew by one m x m factor per step
_FACTORS_KEPT = 2


def _woodbury_factor(A, ratio):
    """Cholesky factor of M = I_m + ratio * A A^T (dense m x m)."""
    M = (A.tocsr() @ A.tocsr().T).toarray()
    M *= ratio
    M[np.diag_indices_from(M)] += 1.0
    return scipy.linalg.cho_factor(M, lower=True, overwrite_a=True)


def shifted_gram_solve(A, c_id, c_gram, rhs, counted=True):
    """Solve (c_id * I + c_gram * A^T A) z = rhs via the m x m reduced system.

    Uses (cI + gA^TA)^{-1} = (1/c) (I - (g/c) A^T (I_m + (g/c) A A^T)^{-1} A)
    with a dense Cholesky factorization of the inner m x m matrix, cached
    on the operator by the exact ratio g/c, the only number it depends on,
    for the `_FACTORS_KEPT` most recently used ratios. `counted=False`
    routes the two operator products around the cost counter (for
    diagnostic solves).
    """
    if c_id <= 0 or c_gram < 0:
        raise ValueError("need c_id > 0 and c_gram >= 0")
    rhs = np.asarray(rhs, dtype=np.float64)
    if c_gram == 0 or A.nnz == 0:
        return rhs / c_id
    ratio = c_gram / c_id
    cache = A._factor_cache
    factor = cache.pop(ratio, None)
    if factor is None:
        factor = _woodbury_factor(A, ratio)
    cache[ratio] = factor  # dicts keep insertion order: most recent last
    if len(cache) > _FACTORS_KEPT:
        del cache[next(iter(cache))]
    t = A.matvec(rhs) if counted else A.apply_nocount(rhs)
    # cho_factor checked the matrix once; check only the right-hand side
    s = scipy.linalg.cho_solve(factor, np.asarray_chkfinite(t),
                               check_finite=False)
    ATs = A.rmatvec(s) if counted else A.applyT_nocount(s)
    return (rhs - ratio * ATs) / c_id


def smw_solve(A, alpha, tau_l, rhs):
    """Solve (I + tau_l * B_alpha) z = rhs with B_alpha = A^T A + (1/alpha) I.

    The system is rewritten as (1 + tau_l/alpha) I + tau_l A^T A and solved
    through the dense m x m reduced system (`shifted_gram_solve`).
    """
    if alpha <= 0 or tau_l <= 0:
        raise ValueError("alpha and tau_l must be positive")
    return shifted_gram_solve(A, 1.0 + tau_l / alpha, tau_l, rhs)


def save_matrix_market(path, A):
    """Write the operator in MatrixMarket coordinate text format."""
    scipy.io.mmwrite(str(path), A.tocsr())


def load_matrix_market(path):
    """Read a MatrixMarket file into a SparseOperator."""
    return SparseOperator(scipy.io.mmread(str(path)))
