"""Superiorization: target-reduction steps and the interleaved driver.

A superiorized run alternates bounded target-function-reduction
perturbations (on the smoothed TV, optionally with a nonnegativity
constraint) with one step of a perturbation-resilient basic operator.
Eight named variants select the combination of reduction step
(normalized-gradient passes or a single prox step) and basic operator
(regularized CG, Landweber, projected Landweber), whose step
`basic.make_step` builds; each variant's `VARIANTS` entry also holds
the default `a` and `gamma0` that `SupConfig` takes when they are
unset. `superiorize_run` defines one outer step;
`metrics.run_outer` records each iterate and stops the run on
g_u <= eps (with nonnegativity up to -1e-8 for the constrained
variants).

Known fault: ProxCSupLW and ProxCSupCG end every outer step with an
unprojected basic step (LW or CG), so their iterates stay slightly
negative and the constrained rule does not stop them; they run to
max_outer and report converged = False.
"""

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from . import basic
from .metrics import run_outer, settle_read_fields
from .opslin import as_vector
from .regtv import _smooth_terms, grad_adjoint, prox_tv_with_info

# variant -> (basic operator, reduction step, default a, default gamma0);
# a None gamma0 is the step-coupled 1.9 * lam / ||A||_2^2 of superiorize_run
VARIANTS = {
    "GradSupCG": ("CG", "grad", 1.0 - 1e-4, 0.001),
    "GradSupLW": ("LW", "grad", 1.0 - 1e-4, 0.0025),
    "ProxSupCG": ("CG", "prox", 1.0 - 1e-6, 0.001),
    "ProxSupLW": ("LW", "prox", 1.0 - 1e-6, 0.001),
    "ProxCSupCG": ("CG", "prox+", 1.0 - 1e-6, None),
    "ProxCSupLW": ("LW", "prox+", 1.0 - 1e-6, None),
    "GradSupProjLW": ("LW+", "grad", 1.0 - 1e-4, 0.0025),
    "ProxSupProjLW": ("LW+", "prox", 1.0 - 1e-6, None),
}

_ELL_MAX = 10 ** 6
# a smaller prox weight beta has no finite 1/beta: its prox step is skipped
_VANISHED = 1.0 / np.finfo(np.float64).max


@dataclass(frozen=True)
class SupConfig:
    """Parameters of a superiorized run.

    kappa is the number of reduction passes per outer iteration; only
    the gradient variants (`GradSup*`) read it, and there it defaults to
    20. Setting it on a prox variant raises ValueError, which names the
    variant and the field (`metrics.settle_read_fields`). The
    perturbation sizes gamma0 * a^l are summable whenever a < 1. An
    unset a or gamma0 takes the variant's default from `VARIANTS`. kappa
    and max_outer must be integers (numpy's too), else TypeError.
    """

    variant: str
    kappa: int = None
    a: float = None
    gamma0: float = None
    eps: float = 0.001
    max_outer: int = 2000

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        _, reduction, a, gamma0 = VARIANTS[self.variant]
        settle_read_fields(self, self.variant,
                           {"kappa": 20 if reduction == "grad" else None})
        if self.a is None:
            object.__setattr__(self, "a", a)
        if self.gamma0 is None:
            object.__setattr__(self, "gamma0", gamma0)
        # written so that NaN fails every test; operator.index rejects a
        # NaN or 2.5 count: run_outer stops only on k == max_outer
        if not 0 < self.a <= 1:
            raise ValueError("a must be in (0, 1]")
        if not (self.gamma0 is None or 0 < self.gamma0 < math.inf) \
                or not (self.kappa is None
                        or operator.index(self.kappa) >= 1) \
                or not 0 <= self.eps < math.inf \
                or operator.index(self.max_outer) < 0:
            raise ValueError("need a finite gamma0 > 0, kappa >= 1, a finite "
                             "eps >= 0, max_outer >= 0")

    def check_lam(self, lam):
        """ValueError if gamma0 is the step-coupled one and lam is not > 0."""
        if self.gamma0 is None and not lam > 0:
            raise ValueError("the step-coupled gamma0 1.9 * lam / "
                             "||A||_2^2 needs lam > 0")


def s_grad(shape, tvparams, y, ell, a, gamma0, kappa):
    """kappa normalized-negative-gradient reduction passes on R_tau.

    Each pass shrinks the trial step gamma0 * a^ell (incrementing the
    shared exponent ell every trial) until the smoothed TV does not
    increase, then commits. Returns (y_new, ell_new) with
    R_tau(y_new) <= R_tau(y).

    A pass costs one D^T and, per trial, one D and one square root: the
    accepted trial's differences d and roots sqrt(tau^2 + d^2) give the
    next pass both its gradient D^T (d / root) and its value root.sum().
    The call copies y once and allocates its buffers once; an accepted
    trial swaps them, so a pass allocates no image-sized array.
    """
    y = np.array(y, dtype=np.float64)
    d, root = _smooth_terms(shape, tvparams, y)
    d_try, root_try = np.empty_like(d), np.empty_like(root)
    v, y_try = np.empty_like(y), np.empty_like(y)
    r_cur = float(root.sum())
    for _ in range(kappa):
        # d_try is free until the first trial, so it holds d / root
        grad_adjoint(shape, np.divide(d, root, out=d_try), out=v)
        nrm = float(np.linalg.norm(v))
        if nrm > 0:
            np.divide(v, -nrm, out=v)  # equals -g / nrm bit for bit
        else:
            v.fill(0.0)
        while True:
            if ell > _ELL_MAX:
                warnings.warn("step-size exponent exhausted; committing "
                              "current point", RuntimeWarning)
                return y, ell
            np.multiply(gamma0 * a ** ell, v, out=y_try)
            np.add(y, y_try, out=y_try)
            ell += 1
            _smooth_terms(shape, tvparams, y_try, d=d_try, root=root_try)
            r_try = float(root_try.sum())
            if r_try <= r_cur:
                y, y_try = y_try, y
                d, d_try = d_try, d
                root, root_try = root_try, root
                r_cur = r_try
                break
    return y, ell


def s_prox(shape, tvparams, y, beta):
    """Single prox reduction step: prox of the smoothed TV at step beta.

    Returns (out, steps), the TV prox's Nesterov steps being the run's
    inner iterations. A bounded perturbation: ||y - out|| <= M * beta
    with M the sum of the difference-operator row norms.
    """
    return prox_tv_with_info(shape, tvparams, y, beta)[:2]


def s_prox_plus(shape, tvparams, y, beta):
    """Nonnegativity-constrained `s_prox`; out is >= 0."""
    return prox_tv_with_info(shape, tvparams, y, beta, nonneg=True)[:2]


def superiorize_run(config, problem, x0=None, half_callback=None):
    """Run one superiorized variant until eps-compatibility or max_outer.

    Solves the `metrics.ProblemInstance` `problem`, starting at x0 (zero
    by default; `opslin.DimensionMismatchError` unless its shape is
    (A.n_cols,)). Outer step k applies the variant's reduction step(s) to
    get y_{k-1/2}, optionally reported through `half_callback`, then one
    basic operator step: Landweber with step `basic.default_gamma`, or CG
    with `basic.default_mu`.
    A gamma0 that the config leaves unset is 1.9 * lam / ||A||_2^2, and
    then lam = 0 raises ValueError on entry.
    `metrics.run_outer` drives the steps and stops on rule sup_u,
    g_u(y) <= eps, or, with LW+ or prox+, sup_c, which adds min_i y_i >
    -1e-8; a CG step hands the record its residual, so only Landweber
    records run a product of their own. A record's inner_iters are the
    steps of its outer step's TV prox, as on the reversed splitting, and
    0 for the gradient reductions, which run no prox. Once the prox
    weight gamma0 * a^(k-1) falls below 1/(the largest float), where
    1/beta overflows, the reduction step is the prox at weight 0: y
    itself, or max(y, 0) under prox+, with no inner step. Returns
    run_outer's RunResult.
    """
    A, shape, tvparams = problem.A, problem.shape, problem.tvparams
    y = np.zeros(A.n_cols) if x0 is None else as_vector("x0", x0, A.n_cols)
    config.check_lam(tvparams.lam)
    kind, reduction = VARIANTS[config.variant][:2]
    rule = "sup_c" if kind == "LW+" or reduction == "prox+" else "sup_u"
    gamma0 = config.gamma0
    if gamma0 is None:
        gamma0 = 1.9 * tvparams.lam / A.norm_sq
    basic_step = basic.make_step(kind, A, problem.b)
    ell = 0

    def step(k, y):
        nonlocal ell
        inner_iters = 0
        if reduction == "grad":
            y, ell = s_grad(shape, tvparams, y, ell, config.a, gamma0,
                            config.kappa)
        else:
            beta = gamma0 * config.a ** (k - 1)
            if beta >= _VANISHED:
                prox_step = s_prox_plus if reduction == "prox+" else s_prox
                y, inner_iters = prox_step(shape, tvparams, y, beta)
            elif reduction == "prox+":
                y = np.maximum(y, 0.0)  # the constrained prox at weight 0
        if half_callback is not None:
            half_callback(y)
        y, r = basic_step(y)
        return y, inner_iters, r, None

    return run_outer(step, y, problem, rule, config.eps, config.max_outer)
