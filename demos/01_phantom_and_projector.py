"""Build a head phantom, a parallel-beam projector, and a sinogram.

Walks through the data pipeline: rasterize the phantom on an N x N grid,
trace rays through the pixel grid to assemble the sparse system matrix,
project, and optionally contaminate the measurements with Gaussian noise.
Writes phantom.pgm and sinogram.npy into the directory named by the first
argument, or into the current directory:

    python3 demos/01_phantom_and_projector.py [OUT_DIR]
"""

import sys
from pathlib import Path

import numpy as np

from supopt.tomo import (Geometry, NoiseModel, add_noise,
                         build_parallel_system, noise_sigma, save_pgm,
                         shepp_logan)

out = Path(sys.argv[1] if len(sys.argv) > 1 else ".")
out.mkdir(parents=True, exist_ok=True)

side = 64
geom = Geometry(side, n_angles=12, n_rays=48)
print(f"geometry: {side}x{side} image, {geom.n_angles} angles x "
      f"{geom.n_rays} rays -> {geom.n_measurements} measurements, "
      f"{geom.n_pixels} unknowns")

x = shepp_logan(side)
print(f"phantom range: [{x.min():.3f}, {x.max():.3f}], "
      f"nonzero pixels: {np.count_nonzero(x)}")

A = build_parallel_system(geom)
nnz = A.nnz
print(f"system matrix: {A.shape[0]} x {A.shape[1]}, {nnz} nonzeros "
      f"({100.0 * nnz / (A.shape[0] * A.shape[1]):.2f}% dense)")

b = A.apply_nocount(x)
print(f"sinogram range: [{b.min():.3f}, {b.max():.3f}]")

model = NoiseModel(relative_level=0.02, seed=0)
b_noisy = add_noise(b, model)
print(f"noise sigma at 2% relative level: {noise_sigma(b, model):.4f}")
print(f"||b_noisy - b|| = {np.linalg.norm(b_noisy - b):.4f}")

save_pgm(out / "phantom.pgm", x, (side, side))
np.save(out / "sinogram.npy", b_noisy.reshape(geom.n_angles, geom.n_rays))
print(f"wrote {out / 'phantom.pgm'} and {out / 'sinogram.npy'}")
