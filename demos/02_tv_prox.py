"""Smoothed total variation: values, gradients, and proximal steps.

Shows how the smoothing parameter tau trades off between the exact
anisotropic TV and a differentiable surrogate, and how the proximal
mapping of the surrogate denoises a piecewise-constant image.
"""

import numpy as np

from supopt.regtv import (GridShape, SmoothedTVParams, lipschitz_bound,
                          prox_tv_with_info, tv_smooth, tv_value)

shape = GridShape(32, 32)
rng = np.random.default_rng(0)

# piecewise-constant test image: a bright square on a dark background
img = np.zeros((32, 32))
img[8:24, 8:24] = 1.0
x = img.ravel()
noisy = x + 0.2 * rng.standard_normal(shape.n)

print("tau      R_tau(x)     R_tau - R     L bound 8/tau")
for tau in (0.1, 0.01, 0.001):
    tvp = SmoothedTVParams(tau=tau)
    r_smooth = tv_smooth(shape, tvp, x)
    r_exact = tv_value(shape, x)
    print(f"{tau:<8} {r_smooth:<12.4f} {r_smooth - r_exact:<11.4f} "
          f"{lipschitz_bound(tvp):.0f}")

tvp = SmoothedTVParams(tau=0.01)
print(f"\nnoisy image:  TV = {tv_value(shape, noisy):8.2f}, "
      f"distance to truth = {np.linalg.norm(noisy - x):.3f}")
for beta in (0.01, 0.05, 0.2):
    den = prox_tv_with_info(shape, tvp, noisy, beta)[0]
    print(f"prox, beta={beta:<5} TV = {tv_value(shape, den):8.2f}, "
          f"distance to truth = {np.linalg.norm(den - x):.3f}")

# the constrained prox additionally clips to the nonnegative orthant
den = prox_tv_with_info(shape, tvp, noisy, 0.05, nonneg=True)[0]
print(f"\nconstrained prox at beta=0.05: min = {den.min():.4f} (>= 0), "
      f"TV = {tv_value(shape, den):.2f}")
