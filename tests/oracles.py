"""Dense reference solutions for the tests (small instances only)."""

import numpy as np
from scipy.optimize import nnls


def dense_prox_ls_oracle(A, b, alpha, x, max_n=4096):
    """Exact unconstrained least-squares prox via a dense direct solve.

    Returns argmin_z 0.5*||Az - b||^2 + ||z - x||^2 / (2*alpha), i.e.
    (I + alpha A^T A)^{-1} (x + alpha A^T b).
    """
    if A.n_cols > max_n:
        raise ValueError(f"dense oracle limited to n <= {max_n}")
    Ad = A.toarray()
    lhs = np.eye(A.n_cols) + alpha * (Ad.T @ Ad)
    rhs = np.asarray(x, dtype=np.float64) + alpha * (Ad.T @ np.asarray(b))
    return np.linalg.solve(lhs, rhs)


def nnls_prox_ls_oracle(A, b, alpha, x):
    """Exact constrained least-squares prox by nonnegative least squares.

    argmin_{z >= 0} 0.5*||Az - b||^2 + ||z - x||^2 / (2*alpha) is the
    NNLS solution of [A; I/sqrt(alpha)] z ~ [b; x/sqrt(alpha)].
    """
    s = 1.0 / np.sqrt(alpha)
    M = np.vstack([A.toarray(), s * np.eye(A.n_cols)])
    z, _ = nnls(M, np.concatenate([b, s * np.asarray(x, dtype=np.float64)]))
    return z


def dense_grad_matrix(shape):
    """Dense forward-difference operator D via Kronecker products."""
    def diff(d):
        P = np.zeros((d, d))
        idx = np.arange(d - 1)
        P[idx, idx] = -1.0
        P[idx, idx + 1] = 1.0
        return P

    d1 = np.kron(diff(shape.rows), np.eye(shape.cols))
    d2 = np.kron(np.eye(shape.rows), diff(shape.cols))
    return np.vstack([d1, d2])
