"""The problem, per-iteration records, stopping rules and the outer loop.

A `ProblemInstance` holds one TV-regularized least-squares problem and
is checked once, where it is made; the run functions take it whole.
Every iterative family (superiorization and forward-backward splitting)
runs through `run_outer`. It records each iterate with `make_record`,
which also decides the family's stopping rule from the same residual
and difference terms, so each iterate is evaluated once. A step that
already holds the residual r = A x_k - b at its new iterate, and A^T r
where it has it, hands them over, and the record takes no product of
its own for them.
"""

import time
from dataclasses import dataclass, fields

import numpy as np

from .opslin import NonFiniteError
from .regtv import GridShape, SmoothedTVParams, _smooth_terms, grad_adjoint

FEAS_TOL = -1e-8  # sup_c's floor on min_i x_i


@dataclass(frozen=True)
class ProblemInstance:
    """min 0.5*||Ax - b||^2 + lam * R_tau(x) on the grid `shape`.

    x_ref is the reference image that records measure err_scaled against
    (the phantom, or an optimum x* by `dataclasses.replace`), or None.
    Making one, `dataclasses.replace` included, turns b and x_ref into
    float64 arrays and raises ValueError unless b has length A.n_rows,
    and shape.n and the length of x_ref, where given, are A.n_cols.
    """

    A: object
    b: np.ndarray
    shape: GridShape
    tvparams: SmoothedTVParams
    x_ref: np.ndarray = None

    def __post_init__(self):
        m, n = self.A.n_rows, self.A.n_cols
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))
        if self.b.shape != (m,):
            raise ValueError(f"b has shape {self.b.shape}, A has {m} rows")
        if self.shape.n != n:
            raise ValueError(f"shape has {self.shape.n} pixels, A has {n} "
                             "columns")
        if self.x_ref is not None:
            object.__setattr__(self, "x_ref",
                               np.asarray(self.x_ref, dtype=np.float64))
            if self.x_ref.shape != (n,):
                raise ValueError(f"x_ref has shape {self.x_ref.shape}, A has "
                                 f"{n} columns")


class NumericalDivergenceError(RuntimeError):
    """An iterate or its metrics became non-finite; the run was aborted.

    `records` holds the run's records before the failure: those of x_0
    to x_{k-1} when x_k or its metrics are non-finite.
    """

    def __init__(self, message, records=()):
        super().__init__(message)
        self.records = list(records)


@dataclass(frozen=True)
class MetricsRecord:
    """One outer iteration worth of diagnostics.

    residual_scaled is ||Ax - b||^2 / (2m), tv_scaled is R_tau(x) / n and
    err_scaled is ||x - x_ref||^2 / n (zero when no reference image is
    supplied). cumulative_matvecs counts operator products charged to the
    cost model from the run's start up to and including this iteration,
    and wall_time the seconds from the run's start (`run_outer`).
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
                raise NumericalDivergenceError(f"non-finite metric {f.name}")


FIELD_NAMES = tuple(f.name for f in fields(MetricsRecord))


@dataclass
class RunResult:
    """Final iterate, its records, and whether the stopping rule held.

    `run_outer` fills in the steps taken (iterations) and the inner
    steps (total_inner); `fbs.afbs_run` adds its fallback certificates.
    """

    x: np.ndarray
    records: list
    converged: bool
    iterations: int
    fallback_count: int = 0
    total_inner: int = 0


@np.errstate(over="ignore", invalid="ignore")
def make_record(k, problem, x, rule, tol, inner_iters=0, wall_time=0.0,
                r=None, atr=None):
    """Record the iterate x of `problem` and decide `rule` at `tol`.

    The rules: sup_u is g_u(x) = 0.5*||Ax - b||^2 <= tol, and sup_c adds
    min_i x_i > FEAS_TOL; opt_u is ||grad h_u(x)||_inf <= tol, and opt_c
    is ||min(x, grad h_u(x))||_inf <= tol. r = Ax - b and the difference
    terms d, root of R_tau are computed once and serve the record and the
    rule; grad h_u(x) = A^T r + lam * D^T (d / root), as `fbs.grad_h_u`
    computes it. The caller may pass r and, for the opt rules, atr =
    A^T r, as the step that made x formed them; whichever is not passed
    is computed here by a diagnostic product, which bypasses the matvec
    counter; cumulative_matvecs is A.matvec_count, which `run_outer`
    zeroes at the start of the run; err_scaled is measured against the
    problem's x_ref. Overflow in these sums is left to the finiteness
    check of `MetricsRecord`, which raises NumericalDivergenceError.
    Returns (record, stopped).
    """
    A, shape, tvparams = problem.A, problem.shape, problem.tvparams
    if r is None:
        r = A.apply_nocount(x) - problem.b
    rr = float(r @ r)
    d, root = _smooth_terms(shape, tvparams, x)
    if rule in ("sup_u", "sup_c"):
        stopped = 0.5 * rr <= tol and (rule == "sup_u"
                                       or float(np.min(x)) > FEAS_TOL)
    elif rule in ("opt_u", "opt_c"):
        if atr is None:
            atr = A.applyT_nocount(r)
        g = atr + tvparams.lam * grad_adjoint(shape, d / root)
        if rule == "opt_c":
            g = np.minimum(x, g)
        stopped = float(np.max(np.abs(g))) <= tol
    else:
        raise ValueError(f"unknown stopping rule {rule!r}")
    if problem.x_ref is None:
        err_scaled = 0.0
    else:
        e = x - problem.x_ref
        err_scaled = float(e @ e) / shape.n
    record = MetricsRecord(k=int(k), residual_scaled=rr / (2.0 * A.n_rows),
                           tv_scaled=float(root.sum()) / shape.n,
                           err_scaled=err_scaled,
                           inner_iters=int(inner_iters),
                           cumulative_matvecs=int(A.matvec_count),
                           wall_time=float(wall_time))
    return record, stopped


def run_outer(step, x0, problem, rule, tol, max_outer, held=(None, None)):
    """Drive `step` from x0 until `rule` holds at tol or max_outer steps.

    `step(k, x)` returns (x_k, inner_iters, r, atr) for k = 1, 2, ...;
    the caller keeps its own algorithm state in the closure. r = A x_k -
    b and atr = A^T r are what the step already holds at x_k, or None
    where it holds nothing; `held` is that pair for x0. run_outer zeroes
    the problem's `A.matvec_count`, then before each step records the
    current iterate through `make_record`, which computes only what is
    None, and stops if the rule holds there.
    It aborts with NumericalDivergenceError, carrying the records so far,
    on a non-finite iterate or metric, or on a step's `NonFiniteError`
    (an overflowing reduced system); the message names k, not the run.
    Record k's wall_time is read when x_k is ready, before its own
    diagnostics, so it covers steps 1..k and the records and stop tests
    of x_0..x_{k-1}. Returns the `RunResult`; converged is the rule at
    the final x.
    """
    problem.A.reset_matvec_count()
    t_start = time.perf_counter()
    records = []
    x, inner_iters, k = x0, 0, 0
    r, atr = held
    while True:
        wall_time = time.perf_counter() - t_start
        try:
            record, stopped = make_record(
                k, problem, x, rule, tol, inner_iters=inner_iters,
                wall_time=wall_time, r=r, atr=atr)
        except NumericalDivergenceError as exc:
            raise NumericalDivergenceError(f"{exc}, k={k}", records) from None
        records.append(record)
        if stopped or k == max_outer:
            return RunResult(x, records, stopped, k, total_inner=sum(
                rec.inner_iters for rec in records))
        k += 1
        try:
            x, inner_iters, r, atr = step(k, x)
        except NonFiniteError as exc:
            raise NumericalDivergenceError(f"{exc}, k={k}", records) from None
        if not np.all(np.isfinite(x)):
            raise NumericalDivergenceError(f"non-finite iterate, k={k}",
                                           records)
