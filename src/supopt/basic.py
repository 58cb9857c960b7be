"""Perturbation-resilient basic algorithmic operators.

Landweber, projected Landweber, and a regularized conjugate-gradient
step that recomputes the gradient from the current iterate each call
(rather than the classical recursive residual update), which is what
makes it resilient to bounded perturbations of its input. The steps are
plain functions of arrays; `make_step` maps a kind ("LW", "LW+", "CG")
to its step, and `metrics.run_outer` drives the steps.
"""

import numpy as np

_BREAKDOWN = 1e-300


def default_gamma(A):
    """Safe interior Landweber step 1.9 / ||A||_2^2."""
    return 1.9 / A.norm_sq


def default_mu(A):
    """Default least-squares regularization 1e-6 * ||A||_2^2."""
    return 1e-6 * A.norm_sq


def g_u(A, b, x):
    """0.5 * ||Ax - b||^2 (diagnostic; not charged to the cost model)."""
    r = A.apply_nocount(x) - b
    return 0.5 * float(r @ r)


def g_u_mu(A, b, x, mu):
    return g_u(A, b, x) + 0.5 * mu * float(x @ x)


def lw_step(A, b, gamma, x):
    """One Landweber update x - gamma A^T (Ax - b); gamma in (0, 2/||A||^2)."""
    return x - gamma * A.rmatvec(A.matvec(x) - b)


def lw_proj_step(A, b, gamma, x):
    """Projected Landweber update max(x - gamma * A^T(Ax - b), 0)."""
    return np.maximum(lw_step(A, b, gamma, x), 0.0)


def cg_step(A, b, mu, x, p, h):
    """One perturbation-resilient CG update on the mu-regularized problem.

    g = A^T(Ax - b) + mu*x is recomputed from x each call, and (p, h =
    (A^T A + mu I) p) is the previous step's direction pair. The
    direction is -g + beta p, beta = <g, h>/<p, h>; it is -g when <p, h>
    is below the breakdown threshold (the empty pair p = h = 0 of a first
    step) or when -g + beta p cancels to zero, a restart. The direction is
    chosen before the step's one product pair, so every step runs exactly
    the four products it is charged. A nonzero direction whose curvature
    <p_new, h_new> falls below the threshold leaves x in place for that
    step, as a stationary point does, rather than restarting.

    Returns (x_new, p_new, h_new, r) with r = A x_new - b, by linearity
    from the products the step ran: A(x + gamma p) - b = (Ax - b) +
    gamma A p, so it costs no product.
    """
    r = A.matvec(x) - b
    g = A.rmatvec(r) + mu * x
    den = float(p @ h)
    p_new = -g
    if abs(den) >= _BREAKDOWN:
        d = p_new + (float(g @ h) / den) * p
        if d.any():
            p_new = d
    ap = A.matvec(p_new)
    h_new = A.rmatvec(ap) + mu * p_new
    den2 = float(p_new @ h_new)
    if abs(den2) < _BREAKDOWN:
        return x, p_new, h_new, r  # stationary
    gamma = -float(g @ p_new) / den2
    return x + gamma * p_new, p_new, h_new, r + gamma * ap


def make_step(kind, A, b):
    """One step of basic operator `kind` ("LW", "LW+" or "CG") as x -> (x, r).

    r is the residual A x - b at the returned x where the step holds it
    (CG), else None (LW and LW+, whose products are at the point they
    start from). LW and LW+ step with `default_gamma(A)`, CG with
    `default_mu(A)`. CG keeps its direction pair in the closure, from the
    empty pair of its first call, which steps along steepest descent, to
    the pair of its last call, so each call continues from whatever point
    it is handed; every call is charged four products. The step
    functions are looked up when a step runs, so wrappers installed on
    this module see every call.
    """
    if kind in ("LW", "LW+"):
        gamma = default_gamma(A)
        if kind == "LW":
            return lambda x: (lw_step(A, b, gamma, x), None)
        return lambda x: (lw_proj_step(A, b, gamma, x), None)
    if kind != "CG":
        raise ValueError(f"unknown basic algorithm {kind!r}")
    mu = default_mu(A)
    p = h = np.zeros(A.n_cols)

    def cg(x):
        nonlocal p, h
        x, p, h, r = cg_step(A, b, mu, x, p, h)
        return x, r

    return cg
