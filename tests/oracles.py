"""Dense reference solutions for the tests (small instances only), a
relative error and a counter of an operator's diagnostic products."""

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


def grad_apply_2d(shape, x):
    """D x by two-dimensional slices of the image (reference kernel)."""
    img = np.asarray(x, dtype=np.float64).reshape(shape.rows, shape.cols)
    out = np.empty(2 * shape.n)
    d1 = out[:shape.n].reshape(shape.rows, shape.cols)
    d2 = out[shape.n:].reshape(shape.rows, shape.cols)
    np.subtract(img[1:, :], img[:-1, :], out=d1[:-1, :])
    d1[-1, :] = 0.0
    np.subtract(img[:, 1:], img[:, :-1], out=d2[:, :-1])
    d2[:, -1] = 0.0
    return out


def grad_adjoint_2d(shape, y):
    """D^T y by two-dimensional slices of the image (reference kernel)."""
    y = np.asarray(y, dtype=np.float64)
    d1 = y[:shape.n].reshape(shape.rows, shape.cols)
    d2 = y[shape.n:].reshape(shape.rows, shape.cols)
    out = np.empty((shape.rows, shape.cols))
    np.subtract(0.0, d1[:-1, :], out=out[:-1, :])
    out[-1, :] = 0.0
    out[1:, :] += d1[:-1, :]
    out[:, :-1] -= d2[:, :-1]
    out[:, 1:] += d2[:, :-1]
    return out.ravel()


def smooth_terms_2d(shape, params, x):
    """d = D x and root = sqrt(tau^2 + d^2) from the reference kernel."""
    d = grad_apply_2d(shape, x)
    root = np.square(d)
    root += params.tau ** 2
    return d, np.sqrt(root, out=root)


def count_uncounted_products(A):
    """Wrap A's diagnostic products; the returned list grows by one a call."""
    calls = []

    def counting(product):
        def wrapper(v):
            calls.append(1)
            return product(v)
        return wrapper

    A.apply_nocount = counting(A.apply_nocount)
    A.applyT_nocount = counting(A.applyT_nocount)
    return calls


def relative_error(a, ref):
    """||a - ref|| / ||ref|| in the 2-norm."""
    return float(np.linalg.norm(a - ref) / np.linalg.norm(ref))
