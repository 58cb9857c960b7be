"""Superiorization: target-reduction steps and the interleaved driver.

A superiorized run alternates bounded target-function-reduction
perturbations (on the smoothed TV, optionally with a nonnegativity
constraint) with one step of a perturbation-resilient basic operator.
Eight named variants select the combination of reduction step
(normalized-gradient passes or a single prox step) and basic operator
(regularized CG, Landweber, projected Landweber), whose step
`basic.make_step` builds. `superiorize_run` defines one outer step;
`metrics.run_outer` records each iterate and stops the run on
g_u <= eps (with nonnegativity up to -1e-8 for the constrained
variants).

Known fault: ProxCSupLW and ProxCSupCG end every outer step with an
unprojected basic step (LW or CG), so their iterates stay slightly
negative and the constrained rule does not stop them; they run to
max_outer and report converged = False.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import basic
from .metrics import RunResult, run_outer
from .regtv import _smooth_terms, grad_adjoint, prox_tv

# variant -> (basic operator, reduction step, constrained termination)
VARIANTS = {
    "GradSupCG": ("CG", "grad", False),
    "GradSupLW": ("LW", "grad", False),
    "ProxSupCG": ("CG", "prox", False),
    "ProxSupLW": ("LW", "prox", False),
    "ProxCSupCG": ("CG", "prox+", True),
    "ProxCSupLW": ("LW", "prox+", True),
    "GradSupProjLW": ("LW+", "grad", True),
    "ProxSupProjLW": ("LW+", "prox", True),
}

_ELL_MAX = 10 ** 6


@dataclass(frozen=True)
class SupConfig:
    """Parameters of a superiorized run.

    kappa is the number of reduction passes per outer iteration (gradient
    variants only); the perturbation sizes gamma0 * a^l are summable
    whenever a < 1.
    """

    variant: str
    kappa: int = 20
    a: float = 1.0 - 1e-6
    gamma0: float = 0.001
    eps: float = 0.001
    max_outer: int = 2000

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 0 < self.a <= 1:
            raise ValueError("a must be in (0, 1]")
        if self.gamma0 <= 0 or self.kappa < 1 or self.eps < 0:
            raise ValueError("need gamma0 > 0, kappa >= 1, eps >= 0")


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

    A bounded perturbation: ||y - out|| <= M * beta with M the sum of the
    difference-operator row norms.
    """
    return prox_tv(shape, tvparams, y, beta)


def s_prox_plus(shape, tvparams, y, beta):
    """Nonnegativity-constrained prox reduction step; output is >= 0."""
    return prox_tv(shape, tvparams, y, beta, nonneg=True)


def superiorize_run(config, A, b, shape, tvparams, gamma=None, x0=None,
                    x_ref=None, half_callback=None, record_wall_time=False):
    """Run one superiorized variant until eps-compatibility or max_outer.

    Starts at x0 (zero by default). Outer step k applies the variant's
    reduction step(s) to get y_{k-1/2}, optionally reported through
    `half_callback`, then one basic operator step: Landweber with step
    `gamma` (default `basic.default_gamma`), or CG with `basic.default_mu`.
    `metrics.run_outer` drives the steps and stops on rule sup_u,
    g_u(y) <= eps, or for the constrained variants sup_c, which adds
    min_i y_i > -1e-8. Returns a `metrics.RunResult`.
    """
    kind, reduction, constrained = VARIANTS[config.variant]
    b = np.asarray(b, dtype=np.float64)
    y = np.zeros(A.n_cols) if x0 is None else np.asarray(x0, dtype=np.float64)
    basic_step = basic.make_step(kind, A, b, y, gamma=gamma)
    ell = 0

    def step(k, y):
        nonlocal ell
        if reduction == "grad":
            y, ell = s_grad(shape, tvparams, y, ell, config.a, config.gamma0,
                            config.kappa)
        else:
            beta = config.gamma0 * config.a ** (k - 1)
            prox_step = s_prox_plus if reduction == "prox+" else s_prox
            y = prox_step(shape, tvparams, y, beta)
        if half_callback is not None:
            half_callback(y)
        return basic_step(y), 0

    return RunResult(*run_outer(
        step, y, A, b, shape, tvparams, "sup_c" if constrained else "sup_u",
        config.eps, config.max_outer, f"superiorized run {config.variant}",
        x_ref=x_ref, record_wall_time=record_wall_time))
