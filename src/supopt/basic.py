"""Perturbation-resilient basic algorithmic operators.

Landweber, projected Landweber, and a regularized conjugate-gradient
step that recomputes the gradient from the current iterate each call
(rather than the classical recursive residual update), which is what
makes it resilient to bounded perturbations of its input. `make_step`
maps a kind ("LW", "LW+", "CG") to its step; `metrics.run_outer` drives
the steps.
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


def cg_init(x0, mu):
    """Initial CG state at x0: the empty direction pair p = h = 0.

    The first `cg_step` finds p @ h = 0 below its breakdown threshold and
    steps along the steepest descent -g, at the charged cost of every
    other step; the set-up itself runs no product.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    return CGState(x=x0, p=np.zeros_like(x0), h=np.zeros_like(x0), mu=mu)


def cg_step(A, b, state):
    """One perturbation-resilient CG update on the mu-regularized problem.

    g = A^T(Ax - b) + mu*x is recomputed from x each call. An empty or
    degenerate direction pair (p @ h below the breakdown threshold, as
    after `cg_init`) steps along -g; four charged products per step.
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
        # restart with the steepest-descent direction when -g + beta*p
        # cancels to a vanishing direction, which keeps long perturbed
        # runs alive instead of failing
        p_new = -g
        h_new = A.applyT_nocount(A.apply_nocount(p_new)) + mu * p_new
        den2 = float(p_new @ h_new)
        if abs(den2) < _BREAKDOWN:
            return CGState(x=x, p=p_new, h=h_new, mu=mu)  # stationary
    gamma = -float(g @ p_new) / den2
    return CGState(x=x + gamma * p_new, p=p_new, h=h_new, mu=mu)


def make_step(kind, A, b, x0, mu=None, gamma=None):
    """One step of basic operator `kind` ("LW", "LW+" or "CG") as x -> x.

    LW and LW+ step with `gamma`, by default `default_gamma(A)`. CG
    starts from `cg_init`'s empty direction pair at x0 with `mu`, by
    default `default_mu(A)`, so its first call steps along steepest
    descent. It carries the pair from call to call, so each call
    continues from whatever point it is handed, and every call is charged
    four products. The step functions are looked up when a step runs, so
    wrappers installed on this module see every call.
    """
    if kind in ("LW", "LW+"):
        params = LWParams(default_gamma(A) if gamma is None else gamma)
        if kind == "LW":
            return lambda x: lw_step(A, b, params, x)
        return lambda x: lw_proj_step(A, b, params, x)
    if kind != "CG":
        raise ValueError(f"unknown basic algorithm {kind!r}")
    mu = default_mu(A) if mu is None else mu
    state = cg_init(x0, mu)

    def cg(x):
        nonlocal state
        state = cg_step(A, b, CGState(x=x, p=state.p, h=state.h, mu=mu))
        return state.x

    return cg
