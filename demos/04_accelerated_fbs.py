"""Accelerated vs plain forward-backward splitting.

Minimizes the TV-regularized least-squares objective with exact proximal
steps on the natural splitting (smooth TV forward step, least-squares
prox) and shows the iteration savings from acceleration, then repeats
with the inexact inversion-free primal-dual inner solver.
"""

import numpy as np

from supopt.fbs import AFBSConfig, Splitting, afbs_run, grad_h_u, objective
from supopt.regtv import GridShape, SmoothedTVParams
from supopt.tomo import Geometry, build_parallel_system, shepp_logan

side = 32
geom = Geometry(side, n_angles=10, n_rays=32)
A = build_parallel_system(geom)
x_true = shepp_logan(side)
b = A.apply_nocount(x_true)
shape = GridShape(side, side)
tvp = SmoothedTVParams(tau=0.01, lam=0.01)
sp = Splitting(kind="NaturalLS", nonneg=False)

print("exact least-squares prox (reduced-system solve):")
for accelerated in (False, True):
    cfg = AFBSConfig(inner="ExactSMW", accelerated=accelerated,
                     max_outer=2000, term_tol=0.001)
    res = afbs_run(sp, cfg, A, b, shape, tvp)
    g = grad_h_u(A, b, shape, tvp, res.x)
    label = "accelerated" if accelerated else "plain      "
    print(f"  {label}: {res.iterations:>5} outer iterations, "
          f"h = {objective(A, b, shape, tvp, res.x):.6e}, "
          f"||grad h||_inf = {np.max(np.abs(g)):.2e}")

print()
print("inexact prox via the inversion-free primal-dual inner solver")
print("(error budget eps_k = C / k^q):")
for q in (1.2, 2.0):
    cfg = AFBSConfig(inner="PDNoInv", inexact_q=q, max_outer=200,
                     term_tol=0.001)
    res = afbs_run(sp, cfg, A, b, shape, tvp)
    last = res.records[-1]
    print(f"  q = {q}: {res.iterations:>5} outer, {res.total_inner:>7} "
          f"inner, {last.cumulative_matvecs:>8} matvecs, "
          f"h = {objective(A, b, shape, tvp, res.x):.6e}")
