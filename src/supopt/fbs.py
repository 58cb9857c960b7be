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
  Every solver takes the subproblem as one checked `LSProx`.
- ReversedTV: f = least squares, g = lam*R_tau (+ constraint); the prox
  of g is the TV prox.

The accelerated outer loop is the FISTA recursion of Beck and Teboulle
(2009), with constant step alpha, no relaxation and t_1 = T0: y_{k+1} =
x_{k+1} + ((t_k - 1)/t_{k+1})(x_{k+1} - x_k). It has the gradient-based
adaptive restart of O'Donoghue and Candes (2015): whenever
<y_k - x_{k+1}, x_{k+1} - x_k> > 0 the momentum is dropped (t = T0,
y_{k+1} = x_{k+1}). An inexact prox at step k is accepted within
eps_k = k^(-inexact_q). Plain forward-backward is the accelerated=False
special case (t_k = 1, y_k = x_k) and never restarts. `AFBSConfig`
describes a whole run; `afbs_run` defines one outer step;
`metrics.run_outer` records each iterate and stops the run on
||grad h||_inf <= term_tol, or on
||min(x, grad h)||_inf <= term_tol under the constraint.

Cost is counted in operator products (`SparseOperator.matvec_count`):
two per outer step of the direct solve and of ReversedTV, two per inner
step of every other solver. A^T b is data, like b: a run forms it once,
uncounted, and no solver is charged for it.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .metrics import run_outer
from .opslin import shifted_gram_solve
from .regtv import (_projected_nesterov, lipschitz_bound, prox_tv_with_info,
                    tv_smooth, tv_smooth_grad)

INNER_SOLVERS = ("ExactSMW", "PDBasic", "PDNoInv")  # the natural splitting's
T0 = 1.01  # the momentum parameter t at the start and after a restart


@dataclass(frozen=True)
class AFBSConfig:
    """The splitting, its inner solver and the outer-loop parameters.

    kind names the summand that carries the prox: "NaturalLS" (the least
    squares) or "ReversedTV" (the TV); nonneg adds the constraint to it.
    inner names NaturalLS's solver and defaults to ExactSMW; PDBasic
    needs nonneg. ReversedTV's prox is the TV prox, so it takes no inner
    solver and its inner stays None. alpha defaults to
    1/L_f; the inexact inner tolerance schedule is eps_k =
    k**(-inexact_q). max_inner caps each prox's inner steps, whichever
    the inner solver; a prox that reaches it warns.
    """

    kind: str
    nonneg: bool = False
    inner: str = None
    alpha: float = None
    accelerated: bool = True
    inexact_q: float = 2.0
    max_outer: int = 2000
    max_inner: int = 100000
    term_tol: float = 0.001

    def __post_init__(self):
        if self.kind not in ("NaturalLS", "ReversedTV"):
            raise ValueError(f"unknown splitting {self.kind!r}")
        if self.kind == "ReversedTV":
            if self.inner is not None:
                raise ValueError("ReversedTV takes no inner solver")
        elif self.inner is None:
            object.__setattr__(self, "inner", "ExactSMW")
        elif self.inner not in INNER_SOLVERS:
            raise ValueError(f"unknown inner solver {self.inner!r}")
        if self.inner == "PDBasic" and not self.nonneg:
            raise ValueError("PDBasic solves only the constrained prox "
                             "(:nonneg)")
        # written so that NaN fails every test
        if not (self.alpha is None or 0 < self.alpha < math.inf):
            raise ValueError("alpha must be positive and finite")
        if not (0 < self.inexact_q < math.inf
                and 0 <= self.term_tol < math.inf) \
                or self.max_inner < 1 or self.max_outer < 0:
            raise ValueError("need finite inexact_q > 0 and term_tol >= 0, "
                             "max_inner >= 1 and max_outer >= 0")

    def check_lam(self, lam):
        """ValueError unless lam > 0: 1/L_f and the TV prox step need it."""
        if not lam > 0:
            raise ValueError("a splitting run needs lam > 0")


@dataclass
class ProxCertificate:
    """Computable acceptance evidence for an inexact prox evaluation.

    z is the candidate prox; az = A z and ataz = A^T A z where the
    certificate formed them from held products, else None. gap_value is
    the quantity the acceptance test compares with its threshold. The
    steps that led to z are counted by `_run_pd`, which returns them.
    """

    z: np.ndarray
    az: np.ndarray = None
    ataz: np.ndarray = None
    gap_value: float = 0.0
    accepted: bool = True
    fallback: bool = False


@dataclass(frozen=True)
class LSProx:
    """The least-squares prox subproblem at x, NaturalLS's backward step.

    min_z 0.5*||Az - b||^2 + ||z - x||^2/(2 alpha), over z >= 0 under
    `nonneg`; equivalently min 0.5 z^T B z - <c, z> with B = A^T A +
    I/alpha and c = x/alpha + A^T b. b enters only through `atb` = A^T b,
    data that the caller forms. Making one turns x and atb into float64
    arrays and raises ValueError unless alpha is positive and finite and
    both have shape (A.n_cols,). c is formed on first use and kept.
    """

    A: object
    atb: np.ndarray
    alpha: float
    x: np.ndarray
    nonneg: bool = False

    def __post_init__(self):
        n = self.A.n_cols
        # written so that NaN fails the test
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got "
                             f"{self.alpha}")
        for name in ("atb", "x"):
            value = np.asarray(getattr(self, name), dtype=np.float64)
            if value.shape != (n,):
                raise ValueError(f"{name} has shape {value.shape}, A has {n} "
                                 "columns")
            object.__setattr__(self, name, value)

    @cached_property
    def c(self):
        x, alpha, atb = self.x, self.alpha, self.atb
        return x / alpha + atb


def lipschitz_f(kind, A, tvparams):
    """Lipschitz constant of the smooth part's gradient on splitting `kind`."""
    if kind == "NaturalLS":
        return tvparams.lam * lipschitz_bound(tvparams)
    return A.norm_sq


def prox_ls_exact(prob, max_inner=AFBSConfig.max_inner, az=None):
    """Exact solution of the `LSProx` subproblem `prob`.

    Returns (z, steps), the prox and the inner steps that computed it.
    Unconstrained: solves (I + alpha A^T A) z = x + alpha A^T b through
    the reduced m x m system (two counted products, steps = 0); a
    length-m `az` receives A z from the solve (`shifted_gram_solve`).
    Constrained: runs projected Nesterov steps
    (`regtv._projected_nesterov`, two counted products each) on the
    (1/alpha)-strongly convex subproblem until `dual_gap`, checked
    at the start, every 10 steps and after the last step, is <= 2 alpha
    ||delta||^2, delta_i = n * eps * |c_i| (eps the float64 machine
    epsilon): the gap that rounding of c - Bz alone can show. Warns if
    `max_inner` steps do not get there.
    """
    A, alpha, x = prob.A, prob.alpha, prob.x
    if not prob.nonneg:
        # x + alpha A^T b, not alpha * c: the two round differently
        return shifted_gram_solve(A, 1.0, alpha, x + alpha * prob.atb,
                                  az=az), 0
    c = prob.c
    floor = 2.0 * alpha * (c.size * np.finfo(np.float64).eps) ** 2 \
        * float(c @ c)

    def grad(z):
        return A.rmatvec(A.matvec(z)) + z / alpha - c

    def stop(k, z, y):
        return (k % 10 == 0 or k == max_inner) and dual_gap(prob, z) <= floor

    z = np.maximum(x, 0.0)
    if dual_gap(prob, z) <= floor:
        return z, 0
    return _projected_nesterov(
        "constrained least-squares prox: duality gap above its rounding "
        "floor", grad, z, A.norm_sq + 1.0 / alpha, 1.0 / alpha, True,
        max_inner, stop)[:2]


def _fenchel_gap(alpha, r, z, u):
    """Fenchel gap of the constrained LS prox less 0.5||Az - q||^2.

    For a dual point q, feasible z, u = z/alpha and r = c - A^T q - u,
    sums (alpha/2) r_i^2 where alpha r_i + z_i >= 0 and -r_i z_i -
    z_i^2/(2 alpha) elsewhere, as two nonnegative parts so that nothing
    cancels: 0.5 alpha ||max(r, -u)||^2 - <z, min(r + u, 0)>. Both
    callers hold u, having formed r from it; both parts are formed in
    one scratch array.
    """
    part = np.negative(u)
    np.maximum(r, part, out=part)
    top = float(part @ part)
    np.add(r, u, out=part)
    np.minimum(part, 0.0, out=part)
    return 0.5 * alpha * top - float(z @ part)


def dual_gap(prob, z):
    """Duality gap of `prob`'s subproblem, constrained, at z.

    The constrained subproblem is min 0.5 z^T B z - <c, z> over z >= 0
    (`LSProx`), whatever prob.nonneg says. Returns P(z) - D(A z), the
    Fenchel gap at q = A z (`_fenchel_gap`), with dual D(q) =
    -0.5||q||^2 - (alpha/2)||(c - A^T q)_+||^2: at least
    ||z - z*||^2/(2 alpha) for feasible z by strong convexity, and zero
    at the constrained prox. 2 uncounted products; r = c - (A^T A z +
    z/alpha) is formed in place in the second product's output.
    """
    z = np.asarray(z, dtype=np.float64)
    if np.min(z) < 0:
        raise ValueError("dual_gap requires a feasible point z >= 0")
    u = z / prob.alpha
    r = prob.A.applyT_nocount(prob.A.apply_nocount(z))
    r += u
    np.subtract(prob.c, r, out=r)
    return _fenchel_gap(prob.alpha, r, z, u)


# -- primal-dual inner iterations ------------------------------------------


@dataclass
class PDBasicState:
    z: np.ndarray
    p: np.ndarray
    zbar: np.ndarray
    tau: float
    sigma: float


@dataclass
class PDNoInvState:
    """PDNoInv's pair (z, q), its step sizes, and the products it holds.

    az = A z, atq = A^T q and ataz = A^T A z; azbar and atazbar are A and
    A^T A at the extrapolated zbar = z + theta (z - z_prev), which only
    the next step's dual update needs, so zbar itself is not kept. A step
    computes az and ataz as its two charged products; the rest follow by
    linearity. The certificates read az, atq and ataz from here.
    """

    z: np.ndarray
    q: np.ndarray
    tau: float
    sigma: float
    az: np.ndarray
    atq: np.ndarray
    ataz: np.ndarray
    azbar: np.ndarray
    atazbar: np.ndarray


def pd_basic_init(prob, warm=None):
    """Initial state with tau0 = sigma0 = 1 (tau0*sigma0 <= 1).

    Starts from (x, 0), or from the pair (z, p) of the state `warm`.
    """
    z = prob.x.copy() if warm is None else warm.z
    p = np.zeros_like(z) if warm is None else warm.p
    return PDBasicState(z=z, p=p, zbar=z.copy(), tau=1.0, sigma=1.0)


def pd_basic_step(prob, state):
    """One primal-dual step on `prob`'s subproblem, constrained.

    Dual update clips to the nonpositive cone; the primal update solves
    (I + tau B) z = rhs, B = A^T A + I/alpha, as ((1 + tau/alpha) I +
    tau A^T A) z = rhs through the reduced system: a fresh block-row
    Cholesky factor of the m x m matrix per step size (about m^3/3 flops;
    it replaces the operator's cached one), so this variant suits small
    row counts.
    """
    alpha = prob.alpha
    p_new = np.minimum(state.p + state.sigma * state.zbar, 0.0)
    rhs = state.z - state.tau * (p_new - prob.c)
    z_new = shifted_gram_solve(prob.A, 1.0 + state.tau / alpha, state.tau,
                               rhs)
    theta = 1.0 / math.sqrt(1.0 + 2.0 * state.tau / alpha)
    zbar = z_new + theta * (z_new - state.z)
    return PDBasicState(z=z_new, p=p_new, zbar=zbar, tau=theta * state.tau,
                        sigma=state.sigma / theta)


def pd_noinv_init(prob, warm=None):
    """Initial state with tau0 = sigma0 = 1/||A||_2 (tau0*sigma0 <= 1/||A||^2).

    A cold start takes z = x (clipped to z >= 0 under `nonneg`) and q = 0,
    so A^T q = 0, and forms A z and A^T A z as two uncounted set-up
    products. A warm start carries z, q and their products over from the
    state `warm`, the last of the previous prox, and runs no product.
    """
    A, x = prob.A, prob.x
    if warm is None:
        z = np.maximum(x, 0.0) if prob.nonneg else x.copy()
        q, atq = np.zeros(A.n_rows), np.zeros(A.n_cols)
        az = A.apply_nocount(z)
        ataz = A.applyT_nocount(az)
    else:
        z, q, az, atq, ataz = warm.z, warm.q, warm.az, warm.atq, warm.ataz
    t0 = 1.0 / math.sqrt(A.norm_sq)
    return PDNoInvState(z=z, q=q, tau=t0, sigma=t0, az=az, atq=atq,
                        ataz=ataz, azbar=az, atazbar=ataz)


def _extrapolate(new, old, ratio):
    """new + ratio (new - old), formed in one fresh array."""
    out = new - old
    out *= ratio
    out += new
    return out


def pd_noinv_step(prob, state):
    """One inversion-free primal-dual step: exactly one A and one A^T product.

    The two charged products are A z_new and A^T A z_new at the new
    iterate. Everything else comes from the held products by linearity:
    q_new = (q + sigma A zbar) / (1 + sigma) and A^T q_new = (A^T q +
    sigma A^T A zbar) / (1 + sigma), a convex combination, so rounding
    does not grow over the steps; then A zbar_new = A z_new + theta (A z_new
    - A z), and A^T A zbar_new the same way; z_new = alpha/(alpha + tau)
    (z - tau (A^T q_new - c)), clipped to z_new >= 0 under `nonneg`.

    Each new vector is formed in one fresh array and finished in place,
    every entry through the same operations in the same order as the
    plain expressions; no array of `state` is written, so the previous
    state stays valid for the certificates and the warm start.
    """
    s, alpha = state, prob.alpha
    q_new = s.sigma * s.azbar
    q_new += s.q
    q_new /= 1.0 + s.sigma
    atq = s.sigma * s.atazbar
    atq += s.atq
    atq /= 1.0 + s.sigma
    z_new = atq - prob.c
    z_new *= s.tau
    np.subtract(s.z, z_new, out=z_new)
    z_new *= alpha / (alpha + s.tau)
    if prob.nonneg:
        np.maximum(z_new, 0.0, out=z_new)
    az = prob.A.matvec(z_new)
    ataz = prob.A.rmatvec(az)
    theta = 1.0 / math.sqrt(1.0 + 2.0 * s.tau / alpha)
    return PDNoInvState(z=z_new, q=q_new, tau=theta * s.tau,
                        sigma=s.sigma / theta, az=az, atq=atq, ataz=ataz,
                        azbar=_extrapolate(az, s.az, theta),
                        atazbar=_extrapolate(ataz, s.ataz, theta))


# -- inexactness certificates ------------------------------------------------


def cert_unconstrained(prob, eps_k, prev, state):
    """Acceptance test for the unconstrained inexact prox.

    `prev` and `state` are the `PDNoInvState`s before and after a step.
    Extrapolates z = z_new + (alpha/tau_prev)(z_new - z_prev), and A z
    and A^T A z from the two states' products by linearity
    (`_extrapolate`, one fresh array each), and accepts when
    0.5*||Az - q||^2 <= eps_k^2 / (2*alpha). The extrapolated z is the
    value to return as the prox, not the raw iterate; the certificate
    keeps its A z and A^T A z. No product.
    """
    alpha = prob.alpha
    ratio = alpha / prev.tau
    z = _extrapolate(state.z, prev.z, ratio)
    az = _extrapolate(state.az, prev.az, ratio)
    ataz = _extrapolate(state.ataz, prev.ataz, ratio)
    resid = az - state.q
    lhs = 0.5 * float(resid @ resid)
    accepted = lhs <= eps_k ** 2 / (2.0 * alpha)
    return ProxCertificate(z=z, az=az, ataz=ataz, gap_value=lhs,
                           accepted=accepted)


def cert_constrained(prob, eps_k, prev, state):
    """Acceptance test for the constrained inexact prox.

    `prev` and `state` are the `PDNoInvState`s before and after a step;
    the certificate reads the step's feasible iterate z1 = state.z, its
    held A z1, A^T A z1 and A^T q, and `prob`'s c = x/alpha + A^T b.

    Primary path: the extrapolated z = z1 + (alpha/tau_prev)(z1 - z_prev)
    + alpha A^T(q - A z1), with normal-cone element
    w = A^T A z1 + z/alpha - c >= 0, is accepted when
    0.5*||A(z - z1)||^2 + <w, z> <= eps_k^2/(2*alpha) (a type-2
    approximation). It applies when z is feasible up to rounding: entries
    above -n * eps * alpha * max(|A^T q|, |A^T A z1|) are clipped to 0,
    which keeps w >= 0 and the test exact, so a last-bit change in an
    entry where z1 = z_prev = 0 cannot switch the path. The tolerance is
    formed only when min(z) >= 0 fails; a NaN in z takes the fallback
    path.

    Fallback path, when z leaves the orthant: z1 is accepted when
    sqrt(2 alpha gap) <= eps_k, with gap = 0.5||A z1 - q||^2 +
    `_fenchel_gap`(alpha, c - A^T q - u, z1, u), u = z1/alpha,
    the Fenchel gap at the pair (z1, q), which bounds
    ||z1 - z*||^2/(2 alpha) as `dual_gap`'s does.

    Uncounted products: none on the fallback path, 1 (A(z - z1)) on the
    primary path. Either path keeps A z for the z it returns: A z1, or
    A z1 + A(z - z1) on the primary path; the fallback path also keeps
    the held A^T A z1. The vectors are built in z's array and one work
    array, in place, through the same operations as the formulas above.
    """
    alpha, c = prob.alpha, prob.c
    z1, az1, atatz1, atq = state.z, state.az, state.ataz, state.atq
    z = _extrapolate(z1, prev.z, alpha / prev.tau)
    work = atq - atatz1  # A^T(q1 - A z1) by linearity
    work *= alpha
    z += work
    eps64 = np.finfo(np.float64).eps
    low = np.min(z)
    if low >= 0 or low >= -z.size * eps64 * alpha * max(
            np.max(atq), -np.min(atq), np.max(atatz1), -np.min(atatz1)):
        np.maximum(z, 0.0, out=z)
        # w = A^T(A z1 - b) - (x - z)/alpha, by linearity
        w = np.divide(z, alpha, out=work)
        w += atatz1
        w -= c
        wz = float(w @ z)
        d = prob.A.apply_nocount(np.subtract(z, z1, out=work))
        lhs = 0.5 * float(d @ d) + wz
        accepted = lhs <= eps_k ** 2 / (2.0 * alpha)
        d += az1
        return ProxCertificate(z=z, az=d, gap_value=lhs, accepted=accepted)
    u = np.divide(z1, alpha, out=z)
    r = np.subtract(c, atq, out=work)
    r -= u
    resid = az1 - state.q
    gap = 0.5 * float(resid @ resid) + _fenchel_gap(alpha, r, z1, u)
    return ProxCertificate(z=z1, az=az1, ataz=atatz1, gap_value=gap,
                           accepted=math.sqrt(2.0 * alpha * gap) <= eps_k,
                           fallback=True)


def _cert_pd_basic(prob, eps_k, prev, state):
    """PDBasic's test: `dual_gap` at (z_l)_+ <= max(eps_k^2/(2a), 1e-12).

    Here a = alpha; the gap bounds ||z - z*||^2/(2a); 2 uncounted products.
    `prev` is unused: the test needs only the step's state.
    """
    z = np.maximum(state.z, 0.0)
    gap = dual_gap(prob, z)
    return ProxCertificate(z=z, gap_value=gap,
                           accepted=gap <= max(eps_k ** 2 / (2.0 * prob.alpha),
                                               1e-12))


def _run_pd(inner, prob, eps_k, max_inner, warm=None):
    """Certified solution of the `LSProx` `prob` by the primal-dual `inner`.

    `inner` is "PDNoInv" or "PDBasic"; PDBasic's clipped dual makes it
    constrained whatever prob.nonneg says, so `AFBSConfig` rejects it
    without the constraint. The solver starts from the state `warm`, the
    last of the previous prox, if given, and steps until its certificate
    accepts the step from the previous state; after `max_inner`
    unaccepted steps it warns (`RuntimeWarning`) and returns the last
    candidate. Returns (certificate, steps, state), the state being the
    next prox's `warm`. The step and certificate functions are looked up
    per call, so wrappers installed on this module's functions see every
    call.
    """
    if inner == "PDBasic":
        state = pd_basic_init(prob, warm)
        step, certify = pd_basic_step, _cert_pd_basic
    else:
        state = pd_noinv_init(prob, warm)
        step = pd_noinv_step
        certify = cert_constrained if prob.nonneg else cert_unconstrained
    for steps in range(1, max_inner + 1):
        prev, state = state, step(prob, state)
        cert = certify(prob, eps_k, prev, state)
        if cert.accepted:
            return cert, steps, state
    warnings.warn(f"{inner}: no inexact prox accepted within max_inner = "
                  f"{max_inner} steps; returning the last candidate",
                  RuntimeWarning)
    return cert, max_inner, state


def objective(A, b, shape, tvparams, x):
    """Full objective 0.5*||Ax-b||^2 + lam*R_tau(x) (uncounted products)."""
    r = A.apply_nocount(x) - b
    return 0.5 * float(r @ r) + tvparams.lam * tv_smooth(shape, tvparams, x)


def grad_h_u(A, b, shape, tvparams, x):
    """Gradient of the unconstrained objective (uncounted products)."""
    return A.applyT_nocount(A.apply_nocount(x) - b) \
        + tvparams.lam * tv_smooth_grad(shape, tvparams, x)


def afbs_run(config, problem, iterate_callback=None):
    """Run (accelerated) forward-backward splitting to first-order optimality.

    Solves the `metrics.ProblemInstance` `problem`, starting at x = 0;
    lam = 0 raises ValueError on entry.
    `metrics.run_outer` drives the steps and stops on rule opt_u, the
    infinity norm of the objective gradient <= term_tol, or opt_c, that
    of min(x, gradient), in the constrained case, or at max_outer.
    Returns run_outer's `metrics.RunResult` plus the fallback count;
    total_inner is zero only for the unconstrained ExactSMW.
    Each primal-dual prox starts from the previous one's last state: its
    pair and, for PDNoInv, the products it holds.

    The accelerated loop restarts its momentum (t = T0, y = x_new) after
    any step with <y - x_new, x_new - x> > 0, for every inner solver and
    both splittings; it cannot fire at k = 1. With accelerated=False the
    loop is plain forward-backward and has no restart.

    A^T b is data, like b: one uncounted product forms it before the
    record of x_0 = 0, where the product count starts from zero, and that
    record gets r = -b and A^T r = -A^T b. Each step hands the record
    what it holds at x_new.
    ReversedTV runs its two charged products at x_new: r = A x_new - b
    and g = A^T r serve the record, and the next gradient at y = x_new +
    m (x_new - x) is g + m (g - g_x) by linearity, with g_x that of x.
    The unconstrained ExactSMW hands over r = A z - b from the solve and
    A^T r = (v - z) / alpha, the optimality condition of the prox at v;
    PDNoInv hands over its certificate's A z - b and, where the
    certificate keeps A^T A z (unconstrained, and the constrained
    fallback path, whose z is the step's iterate), A^T A z - A^T b.
    """
    A, b = problem.A, problem.b
    shape, tvparams = problem.shape, problem.tvparams
    config.check_lam(tvparams.lam)
    L = lipschitz_f(config.kind, A, tvparams)
    alpha = 1.0 / L if config.alpha is None else config.alpha
    reversed_tv = config.kind == "ReversedTV"

    x = np.zeros(A.n_cols)
    y = x.copy()
    t = T0
    warm = None
    fallback_count = 0
    atb = A.applyT_nocount(b)  # data, like b: formed once, uncounted
    held = (-b, -atb)  # r = A x_0 - b and A^T r at x_0 = 0
    # ReversedTV's gradients A^T(A x - b) at x and at y
    g_x = g_y = held[1]

    def step(k, x):
        nonlocal y, t, warm, fallback_count, g_x, g_y
        r = atr = None
        if reversed_tv:
            x_new, inner_iters, _, _ = prox_tv_with_info(
                shape, tvparams, y - alpha * g_y, alpha * tvparams.lam,
                nonneg=config.nonneg, max_iter=config.max_inner)
            r = A.matvec(x_new) - b
            atr = A.rmatvec(r)
        else:
            v = y - alpha * (tvparams.lam * tv_smooth_grad(shape, tvparams, y))
            prob = LSProx(A, atb, alpha, v, config.nonneg)
            if config.inner == "ExactSMW":
                az = None if config.nonneg else np.empty(A.n_rows)
                x_new, inner_iters = prox_ls_exact(prob, config.max_inner,
                                                   az=az)
                if az is not None:
                    # the prox's optimality: A^T(A z - b) + (z - v)/alpha = 0
                    r, atr = az - b, (v - x_new) / alpha
            else:
                cert, inner_iters, warm = _run_pd(
                    config.inner, prob, float(k) ** (-config.inexact_q),
                    config.max_inner, warm=warm)
                x_new = cert.z
                fallback_count += cert.fallback
                if cert.az is not None:
                    r = cert.az - b
                if cert.ataz is not None:
                    atr = cert.ataz - atb
        if iterate_callback is not None:
            iterate_callback(x_new)
        if config.accelerated and float((y - x_new) @ (x_new - x)) <= 0.0:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            m = (t - 1.0) / t_new
            y = x_new + m * (x_new - x)
            if reversed_tv:
                g_y = atr + m * (atr - g_x)
            t = t_new
        else:
            # plain FBS, or the gradient-based adaptive restart: the step
            # from y opposed the momentum direction, so drop the momentum
            t = T0
            y = x_new
            g_y = atr
        g_x = atr
        return x_new, inner_iters, r, atr

    result = run_outer(step, x, problem,
                       "opt_c" if config.nonneg else "opt_u",
                       config.term_tol, config.max_outer, held=held)
    result.fallback_count = fallback_count
    return result
