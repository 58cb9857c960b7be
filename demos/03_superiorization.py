"""Superiorized reconstruction on a small tomography instance.

Runs three superiorized variants to the same residual target and
compares how much total variation each spends to get there, and how far
below zero its last iterate reaches. The superiorized runs steer the
iterates toward lower TV with vanishing perturbations while keeping the
original convergence.
"""

from supopt.regtv import GridShape, SmoothedTVParams
from supopt.superior import SupConfig, superiorize_run
from supopt.tomo import Geometry, build_parallel_system, shepp_logan

side = 32
geom = Geometry(side, n_angles=10, n_rays=32)
A = build_parallel_system(geom)
x_true = shepp_logan(side)
b = A.apply_nocount(x_true)
shape = GridShape(side, side)
tvp = SmoothedTVParams(tau=0.01, lam=0.01)
eps = 2.0

print(f"instance: {A.shape[0]} x {A.shape[1]}, target g_u(x) <= {eps}")
print()
print(f"{'variant':<14} {'outer':>6} {'matvecs':>8} {'resid/2m':>12} "
      f"{'TV/n':>10} {'err/n':>10} {'min x':>10}")
for variant in ("GradSupCG", "GradSupLW", "ProxCSupLW"):
    A.reset_matvec_count()
    res = superiorize_run(
        SupConfig(variant=variant, eps=eps, max_outer=3000),
        A, b, shape, tvp, x_ref=x_true)
    last = res.records[-1]
    flag = "" if res.converged else "  (budget hit)"
    print(f"{variant:<14} {res.iterations:>6} {last.cumulative_matvecs:>8} "
          f"{last.residual_scaled:>12.3e} {last.tv_scaled:>10.4f} "
          f"{last.err_scaled:>10.4f} {res.x.min():>10.2e}{flag}")

print()
print("the gradient-based variants hit the residual target quickly; the")
print("constrained prox variant reaches the lowest TV and reconstruction")
print("error, but it ends every step with an unprojected Landweber step, so")
print("its iterates stay slightly negative (min x) and the constrained rule,")
print("g_u <= eps with min x > -1e-8, never stops it: it runs its budget out")
