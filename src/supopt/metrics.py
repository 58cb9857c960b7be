"""Per-iteration records, stopping rules and the outer-loop driver.

Every iterative family (superiorization and forward-backward splitting)
runs through `run_outer`. It records each iterate with `make_record`,
which also decides the family's stopping rule from the same residual
and difference terms, so each iterate is evaluated once.
"""

import time
from dataclasses import dataclass, fields

import numpy as np

from .regtv import _smooth_terms, grad_adjoint

FEAS_TOL = -1e-8  # sup_c's floor on min_i x_i


class NumericalDivergenceError(RuntimeError):
    """An iterate became non-finite; the run was aborted."""


@dataclass(frozen=True)
class MetricsRecord:
    """One outer iteration worth of diagnostics.

    residual_scaled is ||Ax - b||^2 / (2m), tv_scaled is R_tau(x) / n and
    err_scaled is ||x - x_ref||^2 / n (zero when no reference image is
    supplied). cumulative_matvecs counts operator products charged to the
    cost model up to and including this iteration.
    """

    k: int
    residual_scaled: float
    tv_scaled: float
    err_scaled: float
    inner_iters: int
    cumulative_matvecs: int
    wall_time: float

    def __post_init__(self):
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"non-finite metric {f.name}")


FIELD_NAMES = tuple(f.name for f in fields(MetricsRecord))


@dataclass
class RunResult:
    """Final iterate, its records, and whether the stopping rule held.

    iterations counts the steps taken. fallback_count and total_inner are
    the forward-backward runs' fallback certificates and inner steps.
    """

    x: np.ndarray
    records: list
    converged: bool
    iterations: int
    fallback_count: int = 0
    total_inner: int = 0


def make_record(k, A, b, x, shape, tvparams, rule, tol, x_ref=None,
                inner_iters=0, wall_time=0.0):
    """Record the iterate x and decide the stopping rule `rule` at `tol`.

    The rules: sup_u is g_u(x) = 0.5*||Ax - b||^2 <= tol, and sup_c adds
    min_i x_i > FEAS_TOL; opt_u is ||grad h_u(x)||_inf <= tol, and opt_c
    is ||min(x, grad h_u(x))||_inf <= tol. r = Ax - b and the difference
    terms d, root of R_tau are computed once and serve the record and the
    rule; grad h_u(x) = A^T r + lam * D^T (d / root), as `fbs.grad_h_u`
    computes it. All products are diagnostic and bypass the matvec
    counter. Returns (record, stopped).
    """
    r = A.apply_nocount(x) - b
    rr = float(r @ r)
    d, root = _smooth_terms(shape, tvparams, x)
    if rule in ("sup_u", "sup_c"):
        stopped = 0.5 * rr <= tol and (rule == "sup_u"
                                       or float(np.min(x)) > FEAS_TOL)
    elif rule in ("opt_u", "opt_c"):
        g = A.applyT_nocount(r) \
            + tvparams.lam * grad_adjoint(shape, d / root)
        if rule == "opt_c":
            g = np.minimum(x, g)
        stopped = float(np.max(np.abs(g))) <= tol
    else:
        raise ValueError(f"unknown stopping rule {rule!r}")
    if x_ref is None:
        err_scaled = 0.0
    else:
        e = x - x_ref
        err_scaled = float(e @ e) / shape.n
    record = MetricsRecord(k=int(k), residual_scaled=rr / (2.0 * A.n_rows),
                           tv_scaled=float(root.sum()) / shape.n,
                           err_scaled=err_scaled,
                           inner_iters=int(inner_iters),
                           cumulative_matvecs=int(A.matvec_count),
                           wall_time=float(wall_time))
    return record, stopped


def run_outer(step, x0, A, b, shape, tvparams, rule, tol, max_outer, where,
              x_ref=None, record_wall_time=False):
    """Drive `step` from x0 until `rule` holds at tol or max_outer steps.

    `step(k, x)` returns (x_k, inner_iters) for k = 1, 2, ...; the caller
    keeps its own algorithm state in the closure. Before each step
    run_outer records the current iterate through `make_record` and stops
    if the rule holds there; after each step it aborts with
    NumericalDivergenceError on a non-finite iterate.
    With `record_wall_time`, record k's wall_time is read when x_k is
    ready, before its own diagnostics, so it covers steps 1..k and the
    records and stop tests of x_0..x_{k-1}. Returns (x, records,
    converged, iterations), where converged is the rule at the final x.
    """
    t_start = time.perf_counter()
    records = []
    x, inner_iters, k = x0, 0, 0
    while True:
        wall_time = time.perf_counter() - t_start if record_wall_time else 0.0
        record, stopped = make_record(k, A, b, x, shape, tvparams, rule, tol,
                                      x_ref=x_ref, inner_iters=inner_iters,
                                      wall_time=wall_time)
        records.append(record)
        if stopped or k == max_outer:
            return x, records, stopped, k
        k += 1
        x, inner_iters = step(k, x)
        if not np.all(np.isfinite(x)):
            raise NumericalDivergenceError(
                f"non-finite iterate in {where}, k={k}")
