"""Forward-backward splitting with exact and inexact proximal maps.

Supports both decompositions of the TV-regularized least-squares
objective h = 0.5*||Ax-b||^2 + lam*R_tau(x) [+ indicator(x >= 0)]:

- NaturalLS: f = lam*R_tau (smooth part), g = least squares
  (+ constraint); the prox of g is done exactly (a solve of the
  reduced m x m system, or projected Nesterov steps under the
  constraint) or inexactly by primal-dual steps (PDNoInv; PDBasic under
  the constraint only) in one loop that stops on a computable acceptance
  certificate. Under the constraint PDNoInv's certificate tests the
  extrapolated candidate when it is feasible, and otherwise the Fenchel
  duality gap at the step's feasible primal-dual pair, which bounds the
  prox error because the subproblem is strongly convex; the constrained
  exact prox and PDBasic stop on the same closed-form gap (`dual_gap`).
- ReversedTV: f = least squares, g = lam*R_tau (+ constraint); the prox
  of g is the TV prox.

The accelerated outer loop uses constant step alpha, constant relaxation
a_relax, and the momentum recursion on t_k, with the gradient-based
adaptive restart of O'Donoghue and Candes (2015): whenever
<y_k - x_{k+1}, x_{k+1} - x_k> > 0 the momentum is dropped (t = t0,
y_{k+1} = x_{k+1}). Plain forward-backward is the accelerated=False
special case (t_k = 1, y_k = x_k) and never restarts. `afbs_run`
defines one outer step; `metrics.run_outer` records each iterate and
stops the run on ||grad h||_inf <= term_tol, or on
||min(x, grad h)||_inf <= term_tol under the constraint.
"""

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .metrics import RunResult, run_outer
from .opslin import shifted_gram_solve, smw_solve
from .regtv import (_projected_nesterov, prox_tv_with_info, tv_smooth,
                    tv_smooth_grad)

INNER_SOLVERS = ("ExactSMW", "PDBasic", "PDNoInv", "TVProx")


@dataclass(frozen=True)
class Splitting:
    """Which summand carries the gradient step and which the prox."""

    kind: str  # "NaturalLS" or "ReversedTV"
    nonneg: bool = False

    def __post_init__(self):
        if self.kind not in ("NaturalLS", "ReversedTV"):
            raise ValueError(f"unknown splitting {self.kind!r}")


@dataclass(frozen=True)
class AFBSConfig:
    """Outer-loop and inner-solver parameters.

    alpha defaults to 1/L_f; the inexact inner tolerance schedule is
    eps_k = inexact_C * k**(-inexact_q). max_inner caps each prox's inner
    steps, whichever the inner solver; a prox that reaches it warns.
    """

    alpha: float = None
    a_relax: float = 1.0
    t0: float = 1.01
    accelerated: bool = True
    inexact_q: float = 2.0
    inexact_C: float = 1.0
    inner: str = "ExactSMW"
    max_outer: int = 2000
    max_inner: int = 100000
    warm_start: bool = True
    term_tol: float = 0.001

    def __post_init__(self):
        if self.inner not in INNER_SOLVERS:
            raise ValueError(f"unknown inner solver {self.inner!r}")
        if self.max_inner < 1:
            raise ValueError("max_inner must be at least 1")
        if self.t0 <= 1:
            raise ValueError("t0 must exceed 1")
        if not 0 < self.a_relax < 2:
            raise ValueError("a_relax must be in (0, 2)")


@dataclass
class ProxCertificate:
    """Computable acceptance evidence for an inexact prox evaluation."""

    z: np.ndarray
    gap_value: float = 0.0
    eps_achieved: float = 0.0
    inner_iters: int = 0
    accepted: bool = True
    fallback: bool = False


def lipschitz_f(splitting, A, tvparams):
    """Lipschitz constant of the smooth part's gradient."""
    if splitting.kind == "NaturalLS":
        return tvparams.lam * 8.0 / tvparams.tau
    return A.norm_sq


def prox_ls_exact(A, b, alpha, x, nonneg=False, atb=None,
                  max_iter=AFBSConfig.max_inner):
    """Exact prox of 0.5*||Az - b||^2 [+ indicator(z >= 0)] at x.

    Returns (z, steps), the prox and the inner steps that computed it.
    Unconstrained: solves (I + alpha A^T A) z = x + alpha A^T b through
    the reduced m x m system (two counted products, steps = 0), plus one
    counted product for A^T b unless the caller passes it as `atb`.
    Constrained: forms c = x/alpha + A^T b once (one uncounted product)
    and runs projected Nesterov steps (`regtv._projected_nesterov`, two
    counted products each) on the (1/alpha)-strongly convex subproblem
    until `dual_gap` at c, checked at the start, every 10 steps and after
    the last step, is <= 2 alpha ||delta||^2, delta_i = n * eps * |c_i|
    (eps the float64 machine epsilon): the gap that rounding of c - Bz
    alone can show. Warns if `max_iter` steps do not get there.
    """
    x = np.asarray(x, dtype=np.float64)
    if not nonneg:
        if atb is None:
            atb = A.rmatvec(b)
        return shifted_gram_solve(A, 1.0, alpha, x + alpha * atb), 0
    c = x / alpha + A.applyT_nocount(b)
    floor = 2.0 * alpha * (c.size * np.finfo(np.float64).eps) ** 2 \
        * float(c @ c)

    def grad(z):
        return A.rmatvec(A.matvec(z)) + z / alpha - c

    def stop(k, z):
        return (k % 10 == 0 or k == max_iter) \
            and dual_gap(A, alpha, c, z) <= floor

    return _projected_nesterov(
        "constrained least-squares prox: duality gap above its rounding "
        "floor", grad, np.maximum(x, 0.0), A.norm_sq + 1.0 / alpha,
        1.0 / alpha, True, max_iter, stop)[:2]


def _fenchel_gap(alpha, r, z):
    """Fenchel gap of the constrained LS prox less 0.5||Az - q||^2.

    For a dual point q, feasible z and r = c - A^T q - z/alpha, sums
    (alpha/2) r_i^2 where alpha r_i + z_i >= 0 and -r_i z_i -
    z_i^2/(2 alpha) elsewhere, as two nonnegative parts so that nothing
    cancels: 0.5 alpha ||max(r, -z/alpha)||^2 - <z, min(r + z/alpha, 0)>.
    """
    u = z / alpha
    top = np.maximum(r, -u)
    return 0.5 * alpha * float(top @ top) - float(z @ np.minimum(r + u, 0.0))


def dual_gap(A, alpha, c, z):
    """Duality gap of the constrained least-squares prox subproblem at z.

    The subproblem, the prox at x, is min 0.5 z^T B z - <c, z> over
    z >= 0 with B = A^T A + I/alpha and c = x/alpha + A^T b; callers pass
    the c they hold. Returns P(z) - D(A z), the Fenchel gap at q = A z
    (`_fenchel_gap`), with dual D(q) = -0.5||q||^2 - (alpha/2)||(c -
    A^T q)_+||^2: at least ||z - z*||^2/(2 alpha) for feasible z by strong
    convexity, and zero at the constrained prox. 2 uncounted products.
    """
    z = np.asarray(z, dtype=np.float64)
    if np.min(z) < 0:
        raise ValueError("dual_gap requires a feasible point z >= 0")
    r = c - (A.applyT_nocount(A.apply_nocount(z)) + z / alpha)
    return _fenchel_gap(alpha, r, z)


# -- primal-dual inner iterations ------------------------------------------


@dataclass
class PDBasicState:
    z: np.ndarray
    p: np.ndarray
    zbar: np.ndarray
    tau: float
    sigma: float
    c_alpha: np.ndarray


@dataclass
class PDNoInvState:
    z: np.ndarray
    q: np.ndarray
    zbar: np.ndarray
    tau: float
    sigma: float
    c_alpha: np.ndarray
    atq: np.ndarray = None  # A^T q, kept by pd_noinv_step for the certificate


def pd_basic_init(A, b, alpha, x, z0=None, p0=None):
    """Initial state with tau0 = sigma0 = 1 (tau0*sigma0 <= 1)."""
    x = np.asarray(x, dtype=np.float64)
    z = x.copy() if z0 is None else np.array(z0, dtype=np.float64)
    p = np.zeros_like(z) if p0 is None else np.array(p0, dtype=np.float64)
    c = x / alpha + A.applyT_nocount(b)
    return PDBasicState(z=z, p=p, zbar=z.copy(), tau=1.0, sigma=1.0, c_alpha=c)


def pd_basic_step(A, alpha, state):
    """One primal-dual step on the constrained prox subproblem.

    Dual update clips to the nonpositive cone; the primal update solves
    (I + tau B) z = rhs through the reduced system (a fresh factorization
    per step size, so this variant suits small row counts).
    """
    p_new = np.minimum(state.p + state.sigma * state.zbar, 0.0)
    rhs = state.z - state.tau * (p_new - state.c_alpha)
    z_new = smw_solve(A, alpha, state.tau, rhs)
    theta = 1.0 / math.sqrt(1.0 + 2.0 * state.tau / alpha)
    zbar = z_new + theta * (z_new - state.z)
    return PDBasicState(z=z_new, p=p_new, zbar=zbar, tau=theta * state.tau,
                        sigma=state.sigma / theta, c_alpha=state.c_alpha)


def pd_noinv_init(A, b, alpha, x, nonneg, z0=None, q0=None):
    """Initial state with tau0 = sigma0 = 1/||A||_2 (tau0*sigma0 <= 1/||A||^2)."""
    x = np.asarray(x, dtype=np.float64)
    z = x.copy() if z0 is None else np.array(z0, dtype=np.float64)
    if nonneg:
        z = np.maximum(z, 0.0)
    q = np.zeros(A.n_rows) if q0 is None else np.array(q0, dtype=np.float64)
    c = x / alpha + A.applyT_nocount(b)
    t0 = 1.0 / math.sqrt(A.norm_sq)
    return PDNoInvState(z=z, q=q, zbar=z.copy(), tau=t0, sigma=t0, c_alpha=c)


def pd_noinv_step(A, alpha, nonneg, state):
    """One inversion-free primal-dual step: exactly one A and one A^T product.

    The two charged products are the whole cost; the new state keeps
    A^T q_new as `atq`, which the certificates reuse.
    """
    q_new = (state.q + state.sigma * A.matvec(state.zbar)) / (1.0 + state.sigma)
    atq = A.rmatvec(q_new)
    v = state.z - state.tau * (atq - state.c_alpha)
    z_new = alpha / (alpha + state.tau) * v
    if nonneg:
        z_new = np.maximum(z_new, 0.0)
    theta = 1.0 / math.sqrt(1.0 + 2.0 * state.tau / alpha)
    zbar = z_new + theta * (z_new - state.z)
    return PDNoInvState(z=z_new, q=q_new, zbar=zbar, tau=theta * state.tau,
                        sigma=state.sigma / theta, c_alpha=state.c_alpha,
                        atq=atq)


# -- inexactness certificates ------------------------------------------------


def cert_unconstrained(A, alpha, eps_k, z_prev, tau_prev, state):
    """Acceptance test for the unconstrained inexact prox.

    Extrapolates z = z_new + (alpha/tau_prev)(z_new - z_prev) and accepts
    when 0.5*||Az - q||^2 <= eps_k^2 / (2*alpha). The extrapolated z is
    the value to return as the prox, not the raw iterate.
    """
    z = state.z + (alpha / tau_prev) * (state.z - z_prev)
    resid = A.apply_nocount(z) - state.q
    lhs = 0.5 * float(resid @ resid)
    accepted = lhs <= eps_k ** 2 / (2.0 * alpha)
    return ProxCertificate(z=z, gap_value=lhs,
                           eps_achieved=math.sqrt(2.0 * alpha * lhs),
                           accepted=accepted)


def cert_constrained(A, alpha, eps_k, z_prev, tau_prev, state):
    """Acceptance test for the constrained inexact prox.

    `state` comes from `pd_noinv_step`: the certificate reuses its
    `atq` = A^T q and `c_alpha` = c = x/alpha + A^T b, and computes A z1
    and A^T A z1 once for the step's feasible iterate z1.

    Primary path: the extrapolated z = z1 + (alpha/tau_prev)(z1 - z_prev)
    + alpha A^T(q - A z1), with normal-cone element
    w = A^T A z1 + z/alpha - c >= 0, is accepted when
    0.5*||A(z - z1)||^2 + <w, z> <= eps_k^2/(2*alpha) (a type-2
    approximation). It applies when z is feasible up to rounding: entries
    above -n * eps * alpha * max(|A^T q|, |A^T A z1|) are clipped to 0,
    which keeps w >= 0 and the test exact, so a last-bit change in an
    entry where z1 = z_prev = 0 cannot switch the path.

    Fallback path, when z leaves the orthant: z1 is accepted when
    eps_achieved = sqrt(2 alpha gap) <= eps_k, with gap =
    0.5||A z1 - q||^2 + `_fenchel_gap`(alpha, c - A^T q - z1/alpha, z1)
    the Fenchel gap at the pair (z1, q), which bounds
    ||z1 - z*||^2/(2 alpha) as `dual_gap`'s does.

    Uncounted products: 2 on the fallback path, 3 on the primary path.
    """
    z1, atq, c = state.z, state.atq, state.c_alpha
    az1 = A.apply_nocount(z1)
    atatz1 = A.applyT_nocount(az1)
    # A^T(q1 - A z1) by linearity
    z = z1 + (alpha / tau_prev) * (z1 - z_prev) + alpha * (atq - atatz1)
    eps64 = np.finfo(np.float64).eps
    tol = z.size * eps64 * alpha * max(float(np.max(np.abs(atq))),
                                       float(np.max(np.abs(atatz1))))
    if np.min(z) >= -tol:
        z = np.maximum(z, 0.0)
        # A^T(A z1 - b) - (x - z)/alpha, by linearity
        w = atatz1 + z / alpha - c
        d = A.apply_nocount(z - z1)
        lhs = 0.5 * float(d @ d) + float(w @ z)
        accepted = lhs <= eps_k ** 2 / (2.0 * alpha)
        return ProxCertificate(z=z, gap_value=lhs,
                               eps_achieved=math.sqrt(
                                   2.0 * alpha * max(lhs, 0.0)),
                               accepted=accepted)
    resid = az1 - state.q
    gap = 0.5 * float(resid @ resid) \
        + _fenchel_gap(alpha, c - atq - z1 / alpha, z1)
    eps_achieved = math.sqrt(2.0 * alpha * gap)
    return ProxCertificate(z=z1, gap_value=gap, eps_achieved=eps_achieved,
                           accepted=eps_achieved <= eps_k,
                           fallback=True)


def _cert_pd_basic(A, alpha, eps_k, z_prev, tau_prev, state):
    """PDBasic's test: `dual_gap` at (z_l)_+ <= max(eps_k^2/(2a), 1e-12).

    Here a = alpha; the gap bounds ||z - z*||^2/(2a); 2 uncounted products.
    """
    z = np.maximum(state.z, 0.0)
    gap = dual_gap(A, alpha, state.c_alpha, z)
    return ProxCertificate(z=z, gap_value=gap,
                           eps_achieved=math.sqrt(2.0 * alpha * gap),
                           accepted=gap <= max(eps_k ** 2 / (2.0 * alpha),
                                               1e-12))


def _certified_inner_loop(solver, state, step, certify, max_inner):
    """Step a primal-dual state until `certify` accepts, or warn once.

    `step(state)` returns the next state; `certify(z_prev, tau_prev,
    state)` returns its `ProxCertificate`. After `max_inner` unaccepted
    steps the last candidate is returned with a `RuntimeWarning`. Returns
    the certificate, its `inner_iters` set, and the last state. The
    runners bind `step` and `certify` per call, not at import, so that
    wrappers installed on this module's functions see every call.
    """
    for steps in range(1, max_inner + 1):
        z_prev, tau_prev = state.z, state.tau
        state = step(state)
        cert = certify(z_prev, tau_prev, state)
        if cert.accepted:
            break
    else:
        warnings.warn(f"{solver}: no inexact prox accepted within max_inner "
                      f"= {max_inner} steps; returning the last candidate",
                      RuntimeWarning)
    cert.inner_iters = steps
    return cert, state


def _run_pd_noinv_inexact(A, b, alpha, x, eps_k, nonneg, max_inner,
                          warm=None):
    """PDNoInv's certified prox from `warm` = (z, q); returns cert, (z, q)."""
    state = pd_noinv_init(A, b, alpha, x, nonneg, *(warm or ()))
    certify = cert_constrained if nonneg else cert_unconstrained
    cert, state = _certified_inner_loop(
        "PDNoInv", state, partial(pd_noinv_step, A, alpha, nonneg),
        partial(certify, A, alpha, eps_k), max_inner)
    return cert, (state.z, state.q)


def _run_pd_basic(A, b, alpha, x, eps_k, nonneg, max_inner, warm=None):
    """PDBasic's certified prox, as `_run_pd_noinv_inexact` with (z, p).

    Its clipped dual makes it constrained whatever `nonneg` says, so
    `_check_inner` rejects it without the constraint.
    """
    state = pd_basic_init(A, b, alpha, x, *(warm or ()))
    cert, state = _certified_inner_loop(
        "PDBasic", state, partial(pd_basic_step, A, alpha),
        partial(_cert_pd_basic, A, alpha, eps_k), max_inner)
    return cert, (state.z, state.p)


def _check_inner(splitting, inner):
    """Raise ValueError unless `inner` solves the prox `splitting` needs."""
    if (splitting.kind == "ReversedTV") != (inner == "TVProx"):
        raise ValueError(f"{splitting.kind} cannot take the {inner} solver")
    if inner == "PDBasic" and not splitting.nonneg:
        raise ValueError("PDBasic solves only the constrained prox (:nonneg)")


def _grad_smooth(splitting, A, b, shape, tvparams, y):
    if splitting.kind == "NaturalLS":
        return tvparams.lam * tv_smooth_grad(shape, tvparams, y)
    return A.rmatvec(A.matvec(y) - b)


def objective(A, b, shape, tvparams, x):
    """Full objective 0.5*||Ax-b||^2 + lam*R_tau(x) (uncounted products)."""
    r = A.apply_nocount(x) - b
    return 0.5 * float(r @ r) + tvparams.lam * tv_smooth(shape, tvparams, x)


def grad_h_u(A, b, shape, tvparams, x):
    """Gradient of the unconstrained objective (uncounted products)."""
    return A.applyT_nocount(A.apply_nocount(x) - b) \
        + tvparams.lam * tv_smooth_grad(shape, tvparams, x)


def afbs_run(splitting, config, A, b, shape, tvparams, x_ref=None,
             iterate_callback=None, record_wall_time=False):
    """Run (accelerated) forward-backward splitting to first-order optimality.

    Starts at x = 0. `metrics.run_outer` drives the steps and stops on
    rule opt_u, the infinity norm of the objective gradient <= term_tol,
    or opt_c, that of min(x, gradient), in the constrained case, or at
    max_outer. Returns a `metrics.RunResult` with the fallback-certificate
    count and the total inner-iteration count: every prox's steps, which
    are zero only for the direct solve of the unconstrained ExactSMW.

    The accelerated loop restarts its momentum (t = t0, y = x_new) after
    any step with <y - x_new, x_new - x> > 0, for every inner solver and
    both splittings; it cannot fire at k = 1. With accelerated=False the
    loop is plain forward-backward and has no restart.
    """
    b = np.asarray(b, dtype=np.float64)
    L = lipschitz_f(splitting, A, tvparams)
    alpha = 1.0 / L if config.alpha is None else config.alpha
    _check_inner(splitting, config.inner)

    x = np.zeros(A.n_cols)
    y = x.copy()
    t = config.t0
    atb = None
    warm = None
    fallback_count = 0

    def step(k, x):
        nonlocal y, t, atb, warm, fallback_count
        v = y - alpha * _grad_smooth(splitting, A, b, shape, tvparams, y)
        eps_k = config.inexact_C * float(k) ** (-config.inexact_q)
        if config.inner == "ExactSMW":
            if atb is None and not splitting.nonneg:
                atb = A.rmatvec(b)  # constant over the run: charged once
            z, inner_iters = prox_ls_exact(
                A, b, alpha, v, nonneg=splitting.nonneg, atb=atb,
                max_iter=config.max_inner)
        elif config.inner == "TVProx":
            z, inner_iters, _, _ = prox_tv_with_info(
                shape, tvparams, v, alpha * tvparams.lam,
                nonneg=splitting.nonneg, max_iter=config.max_inner)
        else:
            run_pd = (_run_pd_basic if config.inner == "PDBasic"
                      else _run_pd_noinv_inexact)
            cert, warm_new = run_pd(A, b, alpha, v, eps_k, splitting.nonneg,
                                    config.max_inner, warm=warm)
            warm = warm_new if config.warm_start else None
            z, inner_iters = cert.z, cert.inner_iters
            fallback_count += cert.fallback
        x_new = np.asarray(z, dtype=np.float64)
        if iterate_callback is not None:
            iterate_callback(x_new)
        if config.accelerated and float((y - x_new) @ (x_new - x)) <= 0.0:
            # constant alpha and a_relax make the t-ratio equal to one
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = x_new + ((t - 1.0) / t_new) * (x_new - x) \
                + (1.0 - config.a_relax) * (t / t_new) * (y - x_new)
            t = t_new
        else:
            # plain FBS, or the gradient-based adaptive restart: the step
            # from y opposed the momentum direction, so drop the momentum
            t = config.t0
            y = x_new
        return x_new, inner_iters

    x, records, converged, iterations = run_outer(
        step, x, A, b, shape, tvparams,
        "opt_c" if splitting.nonneg else "opt_u", config.term_tol,
        config.max_outer, "forward-backward run", x_ref=x_ref,
        record_wall_time=record_wall_time)
    return RunResult(x, records, converged, iterations, fallback_count,
                     sum(r.inner_iters for r in records))
