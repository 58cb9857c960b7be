"""Benchmark workloads: seeded instances, one solve, output checks.

Every workload runs one supopt algorithm through the public
`harness.run_algorithm` on instances built with the public `tomo`
builders. The workload seed only chooses a rotation of the projection
angles; the program sees nothing but the resulting operator and data.
"""

from dataclasses import dataclass

import numpy as np

from speed import Probe
from supopt import basic, fbs, harness, tomo
from supopt.regtv import GridShape, SmoothedTVParams

# the paper's stopping tolerance for both rules: g_u(x) <= eps on exact
# data, and ||grad h_u(x)||_inf <= 1e-3
STOP_TOL = 1e-3


@dataclass(frozen=True)
class Size:
    image_side: int
    n_angles: int
    n_rays: int


PAPER = Size(128, 20, 120)
TINY = Size(16, 4, 16)  # for the self-test only


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    max_outer: int
    stop_rule: str  # "g_u" / "grad_h" is re-checked; "budget" runs max_outer
    batch: int      # instances solved per pass, at evenly spaced rotations


# why each workload exists: README.md in this directory
WORKLOADS = {w.name: w for w in (
    Workload("sup_gradcg", "GradSupCG", 2000, "g_u", 1),
    Workload("sup_proxc", "ProxCSupLW", 50, "budget", 3),
    Workload("afbs_exact", "AFBS:NaturalLS", 2000, "grad_h", 5),
    Workload("afbs_pd_nonneg", "AFBS:NaturalLS:PDNoInv:nonneg", 1, "budget",
             3),
)}


def angle_offsets(seed, size, count):
    """Rotations (degrees) of the default angle set for one seed.

    The default angles rotated by any offset in the window
    [-a_0, 180 - a_last) stay in [0, 180). The `count` offsets are evenly
    spaced over that window from a seeded phase; seed 0 has phase 0, so
    its first instance is the paper's angle set.
    """
    base = tomo.Geometry(size.image_side, size.n_angles, size.n_rays).angles
    lo = -base[0]
    width = 180.0 - base[-1] + base[0]
    step = width / count
    phase = 0.0 if seed == 0 else np.random.default_rng(seed).uniform(0, step)
    return [float((phase + i * step - lo) % width + lo) for i in range(count)]


def build_instance(size, offset, config):
    """Exact-data instance at the given angle rotation (as build_problem)."""
    base = tomo.Geometry(size.image_side, size.n_angles, size.n_rays).angles
    geom = tomo.Geometry(size.image_side, size.n_angles, size.n_rays,
                         angles=base + offset)
    A = tomo.build_parallel_system(geom)
    x_ref = tomo.shepp_logan(size.image_side)
    b = A.apply_nocount(x_ref)
    tvparams = SmoothedTVParams(tau=config.tau, lam=config.resolved_lam())
    return harness.ProblemInstance(
        A=A, b=b, shape=GridShape(size.image_side, size.image_side),
        tvparams=tvparams, x_ref=x_ref)


def experiment_config(workload, size):
    return harness.ExperimentConfig(
        image_side=size.image_side, n_angles=size.n_angles,
        n_rays=size.n_rays, algorithms=[workload.algorithm],
        max_outer=workload.max_outer)


@dataclass
class Solve:
    x: np.ndarray
    records: list
    info: dict
    timing: Probe


def solve(workload, problem, config):
    """One closed-loop call of run_algorithm, timed by a speed probe."""
    with Probe() as timing:
        x, records, info = harness.run_algorithm(workload.algorithm, problem,
                                                 config)
    return Solve(x, records, info, timing)


def check(workload, problem, result):
    """Output checks; returns a list of failure messages (empty if fine).

    Counts are deliberately not checked: a correct change may move them.
    """
    x, records = result.x, result.records
    if not np.all(np.isfinite(x)):
        return ["non-finite iterate"]
    failures = []
    if not records[-1].err_scaled < records[0].err_scaled:
        failures.append(f"err_scaled {records[-1].err_scaled} not below its "
                        f"k = 0 value {records[0].err_scaled}")
    if workload.stop_rule == "g_u":
        value = basic.g_u(problem.A, problem.b, x)
        if not value <= STOP_TOL:
            failures.append(f"g_u = {value} > {STOP_TOL} at the returned x")
    elif workload.stop_rule == "grad_h":
        g = fbs.grad_h_u(problem.A, problem.b, problem.shape,
                         problem.tvparams, x)
        value = float(np.max(np.abs(g)))
        if not value <= STOP_TOL:
            failures.append(f"||grad h||_inf = {value} > {STOP_TOL} at the "
                            "returned x")
    return failures
