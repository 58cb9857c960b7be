"""Discrete gradient, anisotropic TV, its smoothing, and the TV prox.

The prox runs `_projected_nesterov`, the kernel that also solves the
constrained least-squares prox in `fbs`. The kernel takes a forward
step, `forward(y, out)`, which writes y - grad(y)/L into `out`, and
keeps its iterates in three buffers allocated once per call, never
writing the start array. Each step takes one TV gradient, at the
extrapolated point y, and the prox stops on the (projected) gradient
mapping at y that the step already holds: L * ||y - z_new||_inf <= tol.
So n_evaluations == n_iterations, and the returned z_new lies within
(beta - 1/L) * sqrt(n) * tol of the exact prox (in the 2-norm). The
prox's forward step is (1 - 1/(beta L)) y - D^T (d / root) / L +
x / (beta L), with the scalars and x / (beta L) formed once per call, so
d / root is its one divide.

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
        # written so that NaN fails every test; a tau whose square
        # underflows makes d / sqrt(tau^2 + d^2) 0/0 wherever d = 0
        if not (0 < self.tau <= 1 and self.tau ** 2 > 0):
            raise ValueError("tau must be in (0, 1], with tau**2 > 0")
        if not 0 <= self.lam < math.inf:
            raise ValueError("lambda must be finite and nonnegative")


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


def _projected_nesterov(name, forward, z, lip, mu, nonneg, max_iter, stop):
    """Constant-momentum projected Nesterov on a mu-strongly convex objective.

    Minimizes an objective with `lip`-Lipschitz gradient over z >= 0 when
    `nonneg` (the start z must then be feasible). `forward(y, out)`
    writes the forward step y - grad(y)/lip into `out`. Step k takes one
    forward step, from the extrapolated point y (the start at k = 1):
    z_new is that step, clipped at 0 when `nonneg`, then
    y = z_new + m (z_new - z) with m = (sqrt(lip) - sqrt(mu)) /
    (sqrt(lip) + sqrt(mu)); the objective gap contracts by
    1 - sqrt(mu/lip) per step. After each step k, `stop(k, z_new, y)` is
    asked about what the step holds. Returns (z, steps, converged);
    converged is False exactly when `max_iter` steps ran without `stop`
    accepting, which a RuntimeWarning headed by `name` (the solver and
    its unmet test) reports.

    The first step reads the start array and never writes it; y, z and
    z_new then live in three buffers allocated once per call, the
    momentum formed in y in place. `stop` gets two distinct arrays, and
    the returned z is one of this call's buffers.
    """
    root_l, root_mu = math.sqrt(lip), math.sqrt(mu)
    momentum = (root_l - root_mu) / (root_l + root_mu)
    start = y = z
    y_buf, z_new = np.empty_like(z), np.empty_like(z)
    for k in range(1, max_iter + 1):
        forward(y, z_new)
        if nonneg:
            np.maximum(z_new, 0.0, out=z_new)
        if stop(k, z_new, y):
            return z_new, k, True
        y = np.subtract(z_new, z, out=y_buf)
        y *= momentum
        y += z_new
        # the start is only read: the step after it gets a third buffer
        z, z_new = z_new, (np.empty_like(z) if z is start else z)
    warnings.warn(f"{name} after max_iter = {max_iter} steps; returning the "
                  "last iterate", RuntimeWarning)
    return z, max_iter, False


def prox_tv_with_info(shape, params, x, beta, nonneg=False, tol=1e-6,
                      max_iter=500):
    """Proximal map of the (optionally constrained) smoothed TV.

    Approximately minimizes R_tau(z) [+ indicator(z >= 0)] +
    ||z - x||^2 / (2*beta), (1/beta)-strongly convex with an
    L = (8/tau + 1/beta)-Lipschitz gradient, by `_projected_nesterov`
    from max(x, 0) or x. A step from y returns its z_new as soon as
    L * ||y - z_new||_inf <= `tol`: the gradient at y, or under the
    constraint the projected gradient mapping at y. The projected
    gradient step is a (1 - 1/(beta L))-contraction with fixed point z*,
    so that bounds ||z_new - z*||_2 by (beta - 1/L) * sqrt(n) * tol.

    Returns (z, n_iterations, n_evaluations, warn_flag): the Nesterov
    steps (at least 1), the TV gradient evaluations (one per step, so
    n_evaluations == n_iterations) and whether `max_iter` steps ran
    without meeting `tol`, for which the kernel also warns. The returned
    point never increases the objective relative to a feasible input x;
    that check reuses R_tau(x0) from the first step's gradient.
    """
    # written so that NaN fails every test
    if not (beta > 0 and tol >= 0):
        raise ValueError("need beta > 0 and tol >= 0")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    x = np.asarray(x, dtype=np.float64)
    x0 = np.maximum(x, 0.0) if nonneg else x
    lip = lipschitz_bound(params) + 1.0 / beta
    # the forward step y - (grad R_tau(y) + (y - x)/beta)/L, regrouped
    keep, step = 1.0 - 1.0 / (beta * lip), 1.0 / lip
    pull = x / (beta * lip)
    d, root = np.empty(2 * shape.n), np.empty(2 * shape.n)
    work = np.empty(shape.n)
    # the guard runs for a feasible x, where x0 = x, and compares with
    # R_tau(x0), taken from the first step at y = x0
    guarded = not nonneg or x.min() >= 0
    tv_start = None

    def forward(y, out):
        nonlocal tv_start
        _smooth_terms(shape, params, y, d=d, root=root)
        if guarded and tv_start is None:
            tv_start = root.sum()
        g = grad_adjoint(shape, np.divide(d, root, out=d), out=work)
        g *= step
        np.multiply(y, keep, out=out)
        out -= g
        out += pull

    def stop(k, z, y):
        # L * max|y - z| from one difference, without an |.| pass
        np.subtract(y, z, out=work)
        return lip * max(work.max(), -work.min()) <= tol

    z, nit, converged = _projected_nesterov(
        f"TV prox: projected gradient above tol = {tol}", forward, x0, lip,
        1.0 / beta, nonneg, max_iter, stop)
    # never accept an objective increase; at x0 = x the objective is R_tau
    if guarded:
        tv_end = _smooth_terms(shape, params, z, d=d, root=root)[1].sum()
        diff = np.subtract(z, x, out=work)
        if tv_end + 0.5 / beta * float(diff @ diff) >= tv_start:
            z = x0.copy()
    return z, nit, nit, not converged
