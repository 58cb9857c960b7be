"""Per-iteration metric records shared by all iterative drivers."""

from dataclasses import dataclass, fields

import numpy as np

from .regtv import tv_smooth


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


def make_record(k, A, b, x, shape, tvparams, x_ref=None, inner_iters=0,
                wall_time=0.0):
    """Assemble a MetricsRecord from the current iterate.

    All products here are diagnostic and bypass the matvec counter.
    """
    r = A.apply_nocount(x) - b
    residual_scaled = float(r @ r) / (2.0 * A.n_rows)
    tv_scaled = tv_smooth(shape, tvparams, x) / shape.n
    if x_ref is None:
        err_scaled = 0.0
    else:
        d = x - x_ref
        err_scaled = float(d @ d) / shape.n
    return MetricsRecord(k=int(k), residual_scaled=residual_scaled,
                         tv_scaled=tv_scaled, err_scaled=err_scaled,
                         inner_iters=int(inner_iters),
                         cumulative_matvecs=int(A.matvec_count),
                         wall_time=float(wall_time))


def require_finite(x, where):
    if not np.all(np.isfinite(x)):
        raise NumericalDivergenceError(f"non-finite iterate in {where}")
