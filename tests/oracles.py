"""Dense reference solutions for the tests (small instances only), a
relative error, a counter of an operator's diagnostic products, and the
PDNoInv step and certificates as plain allocating expressions."""

import math

import numpy as np
from scipy.optimize import nnls

from supopt.fbs import PDNoInvState, ProxCertificate


def dense_prox_ls_oracle(A, b, alpha, x, max_n=4096):
    """Exact unconstrained least-squares prox via a dense direct solve.

    Returns argmin_z 0.5*||Az - b||^2 + ||z - x||^2 / (2*alpha), i.e.
    (I + alpha A^T A)^{-1} (x + alpha A^T b).
    """
    if A.n_cols > max_n:
        raise ValueError(f"dense oracle limited to n <= {max_n}")
    Ad = A.tocsr().toarray()
    lhs = np.eye(A.n_cols) + alpha * (Ad.T @ Ad)
    rhs = np.asarray(x, dtype=np.float64) + alpha * (Ad.T @ np.asarray(b))
    return np.linalg.solve(lhs, rhs)


def nnls_prox_ls_oracle(A, b, alpha, x):
    """Exact constrained least-squares prox by nonnegative least squares.

    argmin_{z >= 0} 0.5*||Az - b||^2 + ||z - x||^2 / (2*alpha) is the
    NNLS solution of [A; I/sqrt(alpha)] z ~ [b; x/sqrt(alpha)].
    """
    s = 1.0 / np.sqrt(alpha)
    M = np.vstack([A.tocsr().toarray(), s * np.eye(A.n_cols)])
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


# -- the PDNoInv step and certificates as plain allocating expressions ------
# The in-place forms in `supopt.fbs` must give these bit for bit.


def fenchel_gap_allocating(alpha, r, z):
    """`fbs._fenchel_gap` as plain expressions, forming z/alpha itself."""
    u = z / alpha
    top = np.maximum(r, -u)
    return 0.5 * alpha * float(top @ top) - float(z @ np.minimum(r + u, 0.0))


def dual_gap_allocating(prob, z):
    """`fbs.dual_gap` at a feasible z as plain expressions."""
    A, alpha = prob.A, prob.alpha
    r = prob.c - (A.applyT_nocount(A.apply_nocount(z)) + z / alpha)
    return fenchel_gap_allocating(alpha, r, z)


def pd_noinv_step_allocating(prob, state):
    """`fbs.pd_noinv_step` as plain expressions."""
    s, A, alpha = state, prob.A, prob.alpha
    q_new = (s.q + s.sigma * s.azbar) / (1.0 + s.sigma)
    atq = (s.atq + s.sigma * s.atazbar) / (1.0 + s.sigma)
    v = s.z - s.tau * (atq - prob.c)
    z_new = alpha / (alpha + s.tau) * v
    if prob.nonneg:
        z_new = np.maximum(z_new, 0.0)
    az = A.matvec(z_new)
    ataz = A.rmatvec(az)
    theta = 1.0 / math.sqrt(1.0 + 2.0 * s.tau / alpha)
    return PDNoInvState(z=z_new, q=q_new, tau=theta * s.tau,
                        sigma=s.sigma / theta, az=az, atq=atq, ataz=ataz,
                        azbar=az + theta * (az - s.az),
                        atazbar=ataz + theta * (ataz - s.ataz))


def cert_unconstrained_allocating(prob, eps_k, prev, state):
    """`fbs.cert_unconstrained` as plain expressions."""
    alpha = prob.alpha
    ratio = alpha / prev.tau
    z = state.z + ratio * (state.z - prev.z)
    az = state.az + ratio * (state.az - prev.az)
    ataz = state.ataz + ratio * (state.ataz - prev.ataz)
    resid = az - state.q
    lhs = 0.5 * float(resid @ resid)
    accepted = lhs <= eps_k ** 2 / (2.0 * alpha)
    return ProxCertificate(z=z, az=az, ataz=ataz, gap_value=lhs,
                           accepted=accepted)


def cert_constrained_allocating(prob, eps_k, prev, state):
    """`fbs.cert_constrained` as plain expressions; the fallback path
    keeps the state's A^T A z1, as the in-place form does."""
    A, alpha, c = prob.A, prob.alpha, prob.c
    z1, az1, atatz1, atq = state.z, state.az, state.ataz, state.atq
    z = z1 + (alpha / prev.tau) * (z1 - prev.z) + alpha * (atq - atatz1)
    eps64 = np.finfo(np.float64).eps
    tol = z.size * eps64 * alpha * max(float(np.max(np.abs(atq))),
                                       float(np.max(np.abs(atatz1))))
    if np.min(z) >= -tol:
        z = np.maximum(z, 0.0)
        w = atatz1 + z / alpha - c
        d = A.apply_nocount(z - z1)
        lhs = 0.5 * float(d @ d) + float(w @ z)
        accepted = lhs <= eps_k ** 2 / (2.0 * alpha)
        return ProxCertificate(z=z, az=az1 + d, gap_value=lhs,
                               accepted=accepted)
    resid = az1 - state.q
    gap = 0.5 * float(resid @ resid) \
        + fenchel_gap_allocating(alpha, c - atq - z1 / alpha, z1)
    return ProxCertificate(z=z1, az=az1, ataz=atatz1, gap_value=gap,
                           accepted=math.sqrt(2.0 * alpha * gap) <= eps_k,
                           fallback=True)
