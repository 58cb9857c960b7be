import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from supopt.tomo import (_ELLIPSES, Geometry, NoiseModel, add_noise,
                         build_parallel_system, noise_sigma, save_pgm,
                         shepp_logan)


def _trace_ray(N, theta_rad, offset):
    """Intersection lengths of one ray with the unit cells of an N x N grid.

    The grid covers [-N/2, N/2]^2. The ray passes through
    offset * (-sin t, cos t) with direction (cos t, sin t). Returns
    (flat_indices, lengths) with row-major image indexing (row 0 at top).
    """
    half = N / 2.0
    dx, dy = np.cos(theta_rad), np.sin(theta_rad)
    px, py = -offset * np.sin(theta_rad), offset * np.cos(theta_rad)

    # clip the ray against the image square
    t_lo, t_hi = -np.inf, np.inf
    for p, d in ((px, dx), (py, dy)):
        if abs(d) < 1e-14:
            if abs(p) >= half:
                return np.empty(0, dtype=np.int64), np.empty(0)
        else:
            t0, t1 = (-half - p) / d, (half - p) / d
            t_lo = max(t_lo, min(t0, t1))
            t_hi = min(t_hi, max(t0, t1))
    if t_hi <= t_lo:
        return np.empty(0, dtype=np.int64), np.empty(0)

    ts = [np.array([t_lo, t_hi])]
    grid = np.arange(-half, half + 1.0)
    if abs(dx) >= 1e-14:
        tx = (grid - px) / dx
        ts.append(tx[(tx > t_lo) & (tx < t_hi)])
    if abs(dy) >= 1e-14:
        ty = (grid - py) / dy
        ts.append(ty[(ty > t_lo) & (ty < t_hi)])
    t = np.unique(np.concatenate(ts))
    lengths = np.diff(t)
    tm = 0.5 * (t[:-1] + t[1:])
    cx = px + tm * dx
    cy = py + tm * dy
    ix = np.clip(np.floor(cx + half).astype(np.int64), 0, N - 1)
    iy = np.clip(np.floor(cy + half).astype(np.int64), 0, N - 1)
    keep = lengths > 1e-12
    rows = (N - 1) - iy[keep]  # image row 0 corresponds to largest y
    return rows * N + ix[keep], lengths[keep]


def _build_reference(geom):
    """The projector traced one ray at a time, each row sorted by column."""
    N = geom.image_side
    offsets = np.linspace(-(N - 1) / 2.0, (N - 1) / 2.0, geom.n_rays)
    data, indices, indptr = [], [], [0]
    for angle in geom.angles:
        theta = np.deg2rad(angle)
        for off in offsets:
            cols, lengths = _trace_ray(N, theta, off)
            order = np.argsort(cols)
            indices.append(cols[order])
            data.append(lengths[order])
            indptr.append(indptr[-1] + len(cols))
    return sp.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), np.array(indptr)),
        shape=(geom.n_measurements, geom.n_pixels))


def _shepp_logan_reference(image_side):
    """The phantom with every ellipse rotated on full coordinate grids."""
    N = image_side
    coords = (2.0 * np.arange(N) + 1.0) / N - 1.0
    xs = coords[None, :].repeat(N, axis=0)
    ys = (-coords)[:, None].repeat(N, axis=1)
    img = np.zeros((N, N))
    for a, ax, ay, x0, y0, phi in _ELLIPSES:
        c, s = np.cos(np.deg2rad(phi)), np.sin(np.deg2rad(phi))
        xr = (xs - x0) * c + (ys - y0) * s
        yr = -(xs - x0) * s + (ys - y0) * c
        img[(xr / ax) ** 2 + (yr / ay) ** 2 <= 1.0] += a
    return img.ravel()


def test_geometry_default_angles():
    geom = Geometry(16, 4, 10)
    assert np.allclose(geom.angles, [1.0, 45.75, 90.5, 135.25])
    assert geom.n_pixels == 256
    assert geom.n_measurements == 40


def test_geometry_rejects_bad_angles():
    with pytest.raises(ValueError):
        Geometry(16, 3, 10, angles=np.array([10.0, 5.0, 20.0]))
    with pytest.raises(ValueError):
        Geometry(16, 2, 10, angles=np.array([10.0, 180.0]))
    # NaN as the only, the first and the last angle
    for angles in ([np.nan], [np.nan, 10.0], [10.0, np.nan]):
        with pytest.raises(ValueError):
            Geometry(8, len(angles), 8, angles=np.array(angles))


def test_phantom_value_range():
    img = shepp_logan(64)
    # overlapping ellipse intensities cancel up to round-off
    assert img.min() >= -1e-12
    assert img.max() <= 1.0 + 1e-12
    # background stays zero, head region is positive
    assert img[0] == 0.0
    assert img.reshape(64, 64)[32, 32] > 0


@pytest.mark.parametrize("side", [2, 3, 12, 24, 32, 64, 127, 128, 129, 256])
def test_phantom_bitwise_equal_to_rotated_reference(side):
    assert shepp_logan(side).tobytes() == _shepp_logan_reference(side).tobytes()


_PAPER_ANGLES = Geometry(128, 20, 120).angles


def _random_geometries(count):
    """Seeded geometries: N in [2, 70], 1-15 angles on a 0.5 degree grid
    and 1-90 rays. Geometry i holds the angle 45 (i mod 4) degrees, so
    0, 45, 90 and 135 degrees occur."""
    rng = np.random.default_rng(0)
    geoms = []
    for i in range(count):
        others = rng.choice(360, size=int(rng.integers(0, 15)), replace=False)
        angles = np.union1d(0.5 * others, [45.0 * (i % 4)])
        geoms.append(Geometry(int(rng.integers(2, 71)), len(angles),
                              int(rng.integers(1, 91)), angles=angles))
    return geoms


_RANDOM_GEOMETRIES = _random_geometries(12)


@pytest.mark.parametrize("geom", [
    Geometry(128, 20, 120),
    # rotations bench/workloads.angle_offsets draws for seed 1, batches 3, 5
    Geometry(128, 20, 120, angles=_PAPER_ANGLES + 5.014208388589193),
    Geometry(128, 20, 120, angles=_PAPER_ANGLES - 0.9714749668464915),
    # axis-aligned rays, some of them along grid lines
    Geometry(8, 2, 15, angles=np.array([0.0, 90.0])),
    # the middle ray runs through grid corners, where x and y crossings
    # coincide up to rounding, for even and odd N
    Geometry(8, 2, 15, angles=np.array([45.0, 135.0])),
    Geometry(9, 2, 17, angles=np.array([45.0, 135.0])),
    Geometry(9, 3, 9, angles=np.array([0.0, 30.0, 90.0])),
    Geometry(16, 4, 1),
    # short corner rays: 154 of the bound's 240 entries filled
    Geometry(8, 1, 15, angles=np.array([45.0])),
    *_RANDOM_GEOMETRIES,
], ids=["paper", "paper+5.01", "paper-0.97", "0-90", "45-135-even",
        "45-135-odd", "odd-N", "one-ray", "45-corners",
        *(f"random-{i}" for i in range(len(_RANDOM_GEOMETRIES)))])
def test_projector_bitwise_equal_to_per_ray_reference(geom):
    ref = _build_reference(geom)
    csr = build_parallel_system(geom).tocsr()
    assert csr.indptr.tobytes() == ref.indptr.tobytes()
    assert csr.indices.tobytes() == ref.indices.tobytes()
    assert csr.data.tobytes() == ref.data.tobytes()


@pytest.mark.parametrize("geom, view", [
    (Geometry(128, 20, 120), True),  # 367 060 of 614 400 entries
    (Geometry(8, 1, 15, angles=np.array([45.0])), True),  # 154 of 240
    (Geometry(16, 4, 1), False),  # 54 of 256
], ids=["paper", "45-corners", "one-ray"])
def test_projector_keeps_a_filled_prefix_of_half_the_buffer_as_a_view(
        geom, view):
    # scipy copies a prefix shorter than half the buffer it views
    bound = max(geom.n_measurements * 2 * geom.image_side, geom.n_pixels)
    csr = build_parallel_system(geom).tocsr()
    for array in (csr.data, csr.indices):
        assert array.base.size == (bound if view else csr.nnz)


_BUILD_GROWTH = """
from supopt.tomo import Geometry, build_parallel_system


def high_water_mark():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024


build_parallel_system(Geometry(16, 20, 16))
before = high_water_mark()
csr = build_parallel_system(Geometry(128, 20, 120)).tocsr()
print(high_water_mark() - before - csr.data.nbytes - csr.indices.nbytes
      - csr.indptr.nbytes)
"""


def test_projector_build_holds_the_operator_once():
    # the paper-size build's resident peak beyond the CSR arrays it keeps
    # is one angle's trace, about 1.5 MB; holding every angle's trace and
    # then their concatenation grows it by about 3 MB more. tracemalloc
    # cannot see this, as it counts the buffers' untouched tails. A fresh
    # interpreter, after a small build, so that the peak is this build's;
    # numpy's huge-page advice is off, since a huge page makes up to
    # 2 MiB of untouched buffer resident, depending on its alignment
    status = Path("/proc/self/status")
    if not status.exists() or "VmHWM:" not in status.read_text():
        pytest.skip("no VmHWM in /proc/self/status")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path),
           "NUMPY_MADVISE_HUGEPAGE": "0"}
    proc = subprocess.run([sys.executable, "-c", _BUILD_GROWTH], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 3.25e6


def test_projector_row_sums_are_chord_lengths():
    # at 90 degrees rays run horizontally: each row sums to the full width
    geom = Geometry(8, 1, 8, angles=np.array([90.0]))
    A = build_parallel_system(geom)
    sums = np.asarray(A.tocsr().sum(axis=1)).ravel()
    assert np.allclose(sums, 8.0)


def test_projector_axis_aligned_geometry():
    # 90-degree rays travel vertically; offsets -1.5..1.5 each cross
    # exactly one pixel column with unit lengths
    geom = Geometry(4, 1, 4, angles=np.array([90.0]))
    A = build_parallel_system(geom).tocsr().toarray()
    for r in range(4):
        row = A[r].reshape(4, 4)
        hit_cols = np.unique(np.nonzero(row)[1])
        assert len(hit_cols) == 1
        assert np.allclose(row[:, hit_cols[0]], 1.0)


def test_projector_matches_dense_line_integral():
    # integral of the constant-one image equals the chord length in the square
    geom = Geometry(16, 6, 16)
    A = build_parallel_system(geom)
    ones = np.ones(geom.n_pixels)
    sino = A.apply_nocount(ones)
    # every kept ray crosses the square: lengths in (0, 16*sqrt(2)]
    assert sino.max() <= 16 * np.sqrt(2) + 1e-9
    assert sino.min() >= 0.0


def test_projector_shape_and_zero_rows_kept():
    geom = Geometry(16, 5, 12)
    A = build_parallel_system(geom)
    assert A.shape == (60, 256)


def test_noise_sigma_formula():
    b = np.array([1.0, 2.0, 3.0, 4.0])
    model = NoiseModel(relative_level=0.02, seed=0)
    assert noise_sigma(b, model) == pytest.approx(0.02 / 4 * 10.0)
    with pytest.raises(ValueError):
        noise_sigma(np.zeros(4), model)


def test_noise_model_rejects_a_negative_or_nan_level():
    assert NoiseModel(relative_level=0.0).relative_level == 0.0
    for level in (-1.0, np.nan):
        with pytest.raises(ValueError):
            NoiseModel(relative_level=level)


def test_add_noise_reproducible_and_scaled():
    rng = np.random.default_rng(0)
    b = np.abs(rng.standard_normal(5000)) + 1.0
    model = NoiseModel(relative_level=0.02, seed=42)
    b1 = add_noise(b, model)
    b2 = add_noise(b, model)
    assert np.array_equal(b1, b2)
    sigma = noise_sigma(b, model)
    emp = np.std(b1 - b)
    assert emp == pytest.approx(sigma, rel=0.1)


def test_add_noise_zero_level_is_copy():
    b = np.arange(5.0)
    out = add_noise(b, NoiseModel(relative_level=0.0))
    assert np.array_equal(out, b)
    assert out is not b


def test_pgm_header_and_payload(tmp_path):
    vec = np.linspace(0, 1, 6)
    path = tmp_path / "img.pgm"
    save_pgm(path, vec, (2, 3))
    data = path.read_bytes()
    assert data.startswith(b"P5\n3 2\n255\n")
    assert len(data) == len(b"P5\n3 2\n255\n") + 6
