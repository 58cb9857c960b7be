"""Perturbation-resilient basic algorithmic operators.

Landweber, projected Landweber, and a regularized conjugate-gradient
step that recomputes the gradient from the current iterate each call
(rather than the classical recursive residual update), which is what
makes it resilient to bounded perturbations of its input.
"""

from dataclasses import dataclass

import numpy as np

_BREAKDOWN = 1e-300


@dataclass(frozen=True)
class LWParams:
    """Landweber step size; valid range is (0, 2/||A||_2^2)."""

    gamma: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")


@dataclass(frozen=True)
class CGState:
    x: np.ndarray
    p: np.ndarray
    h: np.ndarray
    mu: float


def default_gamma(A):
    """Safe interior Landweber step 1.9 / ||A||_2^2."""
    return 1.9 / A.norm_sq


def default_mu(A):
    """Default least-squares regularization 1e-6 * ||A||_2^2."""
    return 1e-6 * A.norm_sq


def residual(A, b, x):
    return A.matvec(x) - b


def g_u(A, b, x):
    """0.5 * ||Ax - b||^2 (diagnostic; not charged to the cost model)."""
    r = A.apply_nocount(x) - b
    return 0.5 * float(r @ r)


def g_u_mu(A, b, x, mu):
    return g_u(A, b, x) + 0.5 * mu * float(x @ x)


def lw_step(A, b, params, x):
    """One Landweber update x - gamma * A^T (Ax - b)."""
    return x - params.gamma * A.rmatvec(residual(A, b, x))


def lw_proj_step(A, b, params, x):
    """Projected Landweber update max(x - gamma * A^T(Ax - b), 0)."""
    return np.maximum(lw_step(A, b, params, x), 0.0)


def cg_init(A, b, x0, mu):
    """Initial CG state: p0 = A^T(b - Ax0) + mu*x0, h0 = A^T A p0 + mu*p0.

    Initialization products are not charged to the cost counter; the cost
    model bills per step, and this is setup.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    p0 = A.applyT_nocount(b - A.apply_nocount(x0)) + mu * x0
    h0 = A.applyT_nocount(A.apply_nocount(p0)) + mu * p0
    return CGState(x=x0, p=p0, h=h0, mu=mu)


def cg_step(A, b, state):
    """One perturbation-resilient CG update on the mu-regularized problem.

    g = A^T(Ax - b) + mu*x is recomputed from x each call. On a vanishing
    denominator the direction pair is reinitialized from the current x
    (restart) instead of failing, which keeps long perturbed runs alive.
    """
    x, p, h, mu = state.x, state.p, state.h, state.mu
    g = A.rmatvec(residual(A, b, x)) + mu * x
    den = float(p @ h)
    if abs(den) < _BREAKDOWN:
        p_new = -g
    else:
        beta = float(g @ h) / den
        p_new = -g + beta * p
    h_new = A.rmatvec(A.matvec(p_new)) + mu * p_new
    den2 = float(p_new @ h_new)
    if abs(den2) < _BREAKDOWN:
        # restart with the steepest-descent direction; this also covers
        # the exact cancellation -g + beta*p = 0 that occurs on the very
        # first call from x0 = 0 where p0 = -g0
        p_new = -g
        h_new = A.applyT_nocount(A.apply_nocount(p_new)) + mu * p_new
        den2 = float(p_new @ h_new)
        if abs(den2) < _BREAKDOWN:
            return CGState(x=x, p=p_new, h=h_new, mu=mu)  # stationary
    gamma = -float(g @ p_new) / den2
    return CGState(x=x + gamma * p_new, p=p_new, h=h_new, mu=mu)


@dataclass
class BasicRunResult:
    x: np.ndarray
    iterations: int
    converged: bool


def run_basic(kind, A, b, eps, mu=None, max_iter=10000, gamma=None, x0=None):
    """Iterate a basic operator until its proximity target is met.

    kind is one of "LW", "LW+", "CG". LW/LW+ stop when g_u(x) <= eps;
    CG stops when g_u^mu(x) <= eps. Returns the best iterate with a
    non-converged flag when max_iter is exhausted.
    """
    if kind not in ("LW", "LW+", "CG"):
        raise ValueError(f"unknown basic algorithm {kind!r}")
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros(A.n_cols) if x0 is None else np.asarray(x0, dtype=np.float64)
    if kind == "CG":
        if mu is None:
            mu = default_mu(A)
        state = cg_init(A, b, x, mu)
        for k in range(max_iter):
            if g_u_mu(A, b, state.x, mu) <= eps:
                return BasicRunResult(state.x, k, True)
            state = cg_step(A, b, state)
        return BasicRunResult(state.x, max_iter,
                              g_u_mu(A, b, state.x, mu) <= eps)
    params = LWParams(default_gamma(A) if gamma is None else gamma)
    step = lw_step if kind == "LW" else lw_proj_step
    for k in range(max_iter):
        if g_u(A, b, x) <= eps:
            return BasicRunResult(x, k, True)
        x = step(A, b, params, x)
    return BasicRunResult(x, max_iter, g_u(A, b, x) <= eps)
