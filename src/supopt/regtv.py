"""Discrete gradient, anisotropic TV, its smoothing, and the TV prox.

The prox runs `_projected_nesterov`, the kernel that also solves the
constrained least-squares prox in `fbs`.

The gradient stacks forward differences along rows and columns with a
zero final row/column (the one-dimensional difference stencil has no +1
in its last row). The smoothed TV is
sum_i sqrt(tau^2 + (D1 x)_i^2) + sqrt(tau^2 + (D2 x)_i^2).

D and D^T run on the flat row-major image as contiguous one-dimensional
kernels: row differences (D1) at stride `cols`, column differences (D2)
at stride 1 with every `cols`-th entry set to zero. Both take an output
buffer, and so does `_smooth_terms`, so a caller that keeps its buffers
(such as a `superior.s_grad` pass) allocates no image-sized array per
evaluation.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridShape:
    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2:
            raise ValueError("grid must be at least 2 x 2")

    @property
    def n(self):
        return self.rows * self.cols


@dataclass(frozen=True)
class SmoothedTVParams:
    tau: float = 0.01
    lam: float = 0.0

    def __post_init__(self):
        if not 0 < self.tau <= 1:
            raise ValueError("tau must be in (0, 1]")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")


def _vector(x, length):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (length,):
        raise ValueError(f"expected length {length}, got {x.shape}")
    return x


def grad_apply(shape, x, out=None):
    """Stacked forward differences (D1 x; D2 x), each of length n.

    `out`, if given, is a contiguous float64 array of length 2n that
    receives the result.
    """
    n, c = shape.n, shape.cols
    x = _vector(x, n)
    if out is None:
        out = np.empty(2 * n)
    d1, d2 = out[:n], out[n:]
    np.subtract(x[c:], x[:-c], out=d1[:n - c])
    d1[n - c:] = 0.0
    # row ends are first differenced across rows (an overflow there still
    # warns), then zeroed
    np.subtract(x[1:], x[:-1], out=d2[:-1])
    d2[c - 1::c] = 0.0
    return out


def grad_adjoint(shape, y, out=None):
    """Exact D^T y (negative divergence), into `out` (length n) if given.

    The column terms run at stride 1 over the flat image; the entries
    each of them must not touch (the last, then the first column) are
    saved before it and restored after it, so every entry gets the same
    operations, in the same order, as the two-dimensional stencil.
    """
    n, c = shape.n, shape.cols
    y = _vector(y, 2 * n)
    y1, y2 = y[:n], y[n:]
    if out is None:
        out = np.empty(n)
    # 0 - y (not -y) keeps the sign of zero entries
    np.subtract(0.0, y1[:n - c], out=out[:n - c])
    out[n - c:] = 0.0
    out[c:] += y1[:n - c]
    last = out[c - 1::c].copy()
    out[:-1] -= y2[:-1]
    out[c - 1::c] = last
    first = out[c::c].copy()
    out[1:] += y2[:-1]
    out[c::c] = first
    return out


def tv_value(shape, x):
    """Anisotropic TV: l1 norm of the stacked forward differences."""
    return float(np.abs(grad_apply(shape, x)).sum())


def _smooth_terms(shape, params, x, d=None, root=None):
    """d = D x and root = sqrt(tau^2 + d^2), the terms of R_tau at x.

    R_tau(x) = root.sum() and grad R_tau(x) = D^T (d / root). `d` and
    `root`, if given, are length-2n buffers that receive the terms.
    """
    d = grad_apply(shape, x, out=d)
    root = np.square(d, out=root)
    root += params.tau ** 2
    return d, np.sqrt(root, out=root)


def tv_smooth(shape, params, x):
    """Smoothed TV R_tau(x); satisfies R(x) <= R_tau(x) <= R(x) + 2*n*tau."""
    return float(_smooth_terms(shape, params, x)[1].sum())


def tv_smooth_grad(shape, params, x):
    """Gradient of the smoothed TV: D^T (d / sqrt(tau^2 + d^2))."""
    d, root = _smooth_terms(shape, params, x)
    return grad_adjoint(shape, d / root)


def lipschitz_bound(params):
    """Upper bound 8 / tau on the Lipschitz constant of grad R_tau.

    ||D||_2^2 <= 8 (Gerschgorin on D^T D), and no term's curvature
    exceeds 1 / tau.
    """
    return 8.0 / params.tau


def perturbation_norm_bound(shape):
    """Sum of the Euclidean row norms of D (global gradient bound M).

    Every non-boundary difference row has norm sqrt(2); the trailing
    row/column rows are zero.
    """
    m1 = (shape.rows - 1) * shape.cols
    m2 = shape.rows * (shape.cols - 1)
    return math.sqrt(2.0) * (m1 + m2)


def _projected_nesterov(name, grad, z, lip, mu, nonneg, max_iter, stop):
    """Constant-momentum projected Nesterov on a mu-strongly convex objective.

    Minimizes an objective with `lip`-Lipschitz gradient `grad`, over
    z >= 0 when `nonneg` (the start z must then be feasible). A step is
    z_new = y - grad(y)/lip, clipped at 0 when `nonneg`, then
    y = z_new + m (z_new - z) with m = (sqrt(lip) - sqrt(mu)) /
    (sqrt(lip) + sqrt(mu)); the objective gap contracts by
    1 - sqrt(mu/lip) per step. `stop(k, z)` is asked about the start
    (k = 0) and about the iterate after each step k. Returns
    (z, steps, converged); converged is False exactly when `max_iter`
    steps ran without `stop` accepting, which a RuntimeWarning headed by
    `name` (the solver and its unmet test) reports.
    """
    if stop(0, z):
        return z, 0, True
    root_l, root_mu = math.sqrt(lip), math.sqrt(mu)
    momentum = (root_l - root_mu) / (root_l + root_mu)
    y = z
    for k in range(1, max_iter + 1):
        z_new = y - grad(y) / lip
        if nonneg:
            np.maximum(z_new, 0.0, out=z_new)
        if stop(k, z_new):
            return z_new, k, True
        y = z_new + momentum * (z_new - z)
        z = z_new
    warnings.warn(f"{name} after max_iter = {max_iter} steps; returning the "
                  "last iterate", RuntimeWarning)
    return z, max_iter, False


def prox_tv_with_info(shape, params, x, beta, nonneg=False, tol=1e-6,
                      max_iter=500):
    """Proximal map of the (optionally constrained) smoothed TV.

    Approximately minimizes R_tau(z) [+ indicator(z >= 0)] +
    ||z - x||^2 / (2*beta), (1/beta)-strongly convex with an
    (8/tau + 1/beta)-Lipschitz gradient, by `_projected_nesterov` from
    max(x, 0) or x, until the projected-gradient infinity norm at the
    iterate, min(z, grad) under the constraint, is <= `tol`.

    Returns (z, n_iterations, n_evaluations, warn_flag): the Nesterov
    steps, the gradient evaluations (1 at the start, then 2 per step)
    and whether `max_iter` steps ran without meeting `tol`, for which the
    kernel also warns. The returned point never increases the
    objective relative to a feasible input x.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    x = np.asarray(x, dtype=np.float64)
    x0 = np.maximum(x, 0.0) if nonneg else x

    def grad(z):
        d, root = _smooth_terms(shape, params, z)
        return grad_adjoint(shape, d / root) + (z - x) / beta

    def stop(k, z):
        g = grad(z)
        if nonneg:
            g = np.minimum(z, g)
        return float(np.max(np.abs(g))) <= tol

    def value(z):
        diff = z - x
        return _smooth_terms(shape, params, z)[1].sum() \
            + 0.5 / beta * float(diff @ diff)

    z, nit, converged = _projected_nesterov(
        f"TV prox: projected gradient above tol = {tol}", grad, x0,
        lipschitz_bound(params) + 1.0 / beta, 1.0 / beta, nonneg, max_iter,
        stop)
    # never accept an objective increase relative to a feasible input
    if not nonneg or np.all(x >= 0):
        if value(z) >= value(x0):
            z = x0.copy()
    return z, nit, 1 + 2 * nit, not converged


def prox_tv(shape, params, x, beta, nonneg=False, tol=1e-6, max_iter=500):
    """Proximal map of the smoothed TV; see prox_tv_with_info."""
    return prox_tv_with_info(shape, params, x, beta, nonneg, tol, max_iter)[0]
