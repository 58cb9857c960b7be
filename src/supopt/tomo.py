"""Test-data generation: phantom, parallel-beam system matrix, noise.

The projector is a Siddon ray tracer (Siddon, Med. Phys. 12(2), 1985)
over a unit pixel grid, run on all rays of one angle at once. Rows are
ordered angle-major: row index = angle_index * n_rays + ray_index, so
m = n_angles * n_rays. Within a row, columns ascend.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .opslin import SparseOperator

# Shepp-Logan ellipse table, MATLAB phantom()'s modified intensities
# (values in [0, 1]): (intensity, semi_axis_x, semi_axis_y, center_x,
# center_y, rotation_deg).
_ELLIPSES = [
    (1.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0),
    (-0.80, 0.6624, 0.8740, 0.00, -0.0184, 0.0),
    (-0.20, 0.1100, 0.3100, 0.22, 0.0000, -18.0),
    (-0.20, 0.1600, 0.4100, -0.22, 0.0000, 18.0),
    (0.10, 0.2100, 0.2500, 0.00, 0.3500, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, 0.1000, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, -0.1000, 0.0),
    (0.10, 0.0460, 0.0230, -0.08, -0.6050, 0.0),
    (0.10, 0.0230, 0.0230, 0.00, -0.6060, 0.0),
    (0.10, 0.0230, 0.0460, 0.06, -0.6050, 0.0),
]


@dataclass(frozen=True)
class Geometry:
    """Parallel-beam acquisition geometry over an N x N image (n = N^2)."""

    image_side: int
    n_angles: int
    n_rays: int
    angles: np.ndarray = None  # degrees, strictly increasing in [0, 180)

    def __post_init__(self):
        if self.image_side < 2 or self.n_angles < 1 or self.n_rays < 1:
            raise ValueError("need image_side >= 2, n_angles >= 1, "
                             "n_rays >= 1")
        if self.angles is None:
            object.__setattr__(
                self, "angles",
                np.linspace(1.0, 180.0, self.n_angles, endpoint=False))
        angles = np.asarray(self.angles, dtype=np.float64)
        if len(angles) != self.n_angles:
            raise ValueError("angles length must equal n_angles")
        # NaN fails too
        if not (np.all(np.diff(angles) > 0) and angles[0] >= 0
                and angles[-1] < 180):
            raise ValueError("angles must be strictly increasing in [0, 180)")
        object.__setattr__(self, "angles", angles)

    @property
    def n_pixels(self):
        return self.image_side * self.image_side

    @property
    def n_measurements(self):
        return self.n_angles * self.n_rays


@dataclass(frozen=True)
class NoiseModel:
    """Additive Gaussian noise with sigma = relative_level/m * sum(b)."""

    relative_level: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.relative_level < math.inf:  # NaN fails too
            raise ValueError("relative_level must be finite and nonnegative")


def shepp_logan(image_side):
    """Rasterize the 10-ellipse Shepp-Logan phantom, row-major flat vector.

    Pixel value is the sum of intensities of all ellipses containing the
    pixel center, from MATLAB's modified table (values in [0, 1]). An
    unrotated ellipse's test splits into a term per column and a term per
    row: with cos 0 = 1 and sin 0 = 0 the rotation changes at most the
    sign of a zero, which squaring removes, so the sum of the two terms
    equals the rotated form's bit for bit.
    """
    if image_side < 2:
        raise ValueError("image_side must be >= 2")
    N = image_side
    # pixel centers on [-1, 1]^2, row 0 at the top
    coords = (2.0 * np.arange(N) + 1.0) / N - 1.0
    xs, ys = coords[None, :], (-coords)[:, None]
    img = np.zeros((N, N))
    for a, ax, ay, x0, y0, phi in _ELLIPSES:
        if phi == 0.0:
            inside = ((xs - x0) / ax) ** 2 + ((ys - y0) / ay) ** 2 <= 1.0
        else:
            c, s = np.cos(np.deg2rad(phi)), np.sin(np.deg2rad(phi))
            xr = (xs - x0) * c + (ys - y0) * s
            yr = -(xs - x0) * s + (ys - y0) * c
            inside = (xr / ax) ** 2 + (yr / ay) ** 2 <= 1.0
        img[inside] += a
    return img.ravel()


def _trace_angle(N, offsets, theta, index_dtype):
    """Trace all rays of one angle through the unit cells of an N x N grid.

    The grid covers [-N/2, N/2]^2. Ray j passes through
    offsets[j] * (-sin t, cos t) with direction (cos t, sin t), so it
    meets the grid line x = g at (g - px_j) / cos t, and likewise for y;
    an axis a ray runs parallel to (|cos t| or |sin t| below 1e-14) adds
    no crossings. Each axis's N + 1 crossing times run in grid order,
    reversed where the direction is negative, so both runs ascend; their
    first and last columns are the row minima and maxima, and bound the
    span [t_lo, t_hi] in which the ray is inside the image. The times,
    clipped to that span, are sorted as one row of an (n_rays, 2 N + 2)
    array, and consecutive times bound the segments. Clipping repeats
    t_lo and t_hi, and an x crossing that meets a y crossing repeats a
    time; those segments, like the ones rounding leaves between two
    nearly equal crossings, go with the filter that keeps lengths above
    1e-12. Only the kept segments' midpoints are formed, and give their
    pixels.

    Returns (cols, lengths, counts): the kept segments' flat row-major
    pixel indices (image row 0 at the top) as `index_dtype` and lengths,
    ray by ray in the order the ray runs, and the number kept per ray.
    """
    half = N / 2.0
    grid = np.arange(-half, half + 1.0)
    dx, dy = np.cos(theta), np.sin(theta)
    px, py = -offsets * np.sin(theta), offsets * np.cos(theta)
    crossings = [((grid if d > 0 else grid[::-1]) - p[:, None]) / d
                 for p, d in ((px, dx), (py, dy)) if abs(d) >= 1e-14]
    # the first and last grid lines of each axis bound the image
    t_lo = np.max([ts[:, 0] for ts in crossings], axis=0)
    t_hi = np.min([ts[:, -1] for ts in crossings], axis=0)
    t = np.concatenate(crossings, axis=1)
    np.maximum(t, t_lo[:, None], out=t)
    np.minimum(t, t_hi[:, None], out=t)
    t.sort(axis=1)
    lengths = np.diff(t, axis=1)
    keep = lengths > 1e-12
    counts = keep.sum(axis=1)
    tm = 0.5 * (t[:, :-1][keep] + t[:, 1:][keep])
    # floor, clip and the flat index are exact on float64's integers
    pixel = []
    for p, d in ((px, dx), (py, dy)):
        i = np.floor(tm * d + np.repeat(p, counts) + half)
        pixel.append(np.minimum(np.maximum(i, 0.0, out=i), N - 1.0, out=i))
    ix, iy = pixel
    cols = ((N - 1.0) - iy) * N + ix
    return cols.astype(index_dtype), lengths[keep], counts


def build_parallel_system(geom):
    """Assemble the parallel-beam system matrix as a SparseOperator.

    The rays' offsets are `np.linspace(-(N - 1) / 2, (N - 1) / 2,
    n_rays)` pixel units from the centre, N = image_side: equispaced and
    centred for n_rays >= 2, while a single ray sits at -(N - 1) / 2,
    and at 0 degrees crosses only the bottom pixel row (image row N - 1).
    Entries are exact ray/pixel intersection lengths. The rays of one
    angle are traced together (`_trace_angle`).
    Row r = angle_index * n_rays + ray_index holds the cells its ray
    crosses for a length above 1e-12, with columns in ascending order.
    Every ray passes within (N - 1) / 2 of the centre, inside the
    image's inscribed circle, so no row is empty.

    A ray crosses fewer than 2 N cells. One pair of arrays, `data` and
    `indices`, sized by that bound on nnz, receives each angle's trace
    at a running offset, and the CSR takes their filled prefix, so the
    build holds the operator's arrays once, plus one angle's trace. The
    tail past nnz is never written, so its pages stay out of memory,
    bar the rest of a huge page the prefix ends in (numpy asks for huge
    pages for arrays of 4 MiB and more, as `data` is at 128^2). scipy
    keeps the prefix as a view when it is at least half the buffer
    (367 060 of 614 400 entries at 128^2, 20 angles, 120 rays), and
    copies it otherwise, as concatenating the traces would.
    """
    N = geom.image_side
    n_rays = geom.n_rays
    offsets = np.linspace(-(N - 1) / 2.0, (N - 1) / 2.0, n_rays)
    # when the bound on nnz and both dimensions fit int32, scipy stores
    # int32 indices, so the columns are cast as each angle is traced
    bound = max(geom.n_measurements * 2 * N, geom.n_pixels)
    index_dtype = np.int32 if bound <= np.iinfo(np.int32).max else np.int64
    data = np.empty(bound)
    indices = np.empty(bound, dtype=index_dtype)
    indptr = np.zeros(geom.n_measurements + 1, dtype=np.int64)
    nnz = 0
    for a, angle in enumerate(geom.angles):
        cols, lengths, kept = _trace_angle(N, offsets, np.deg2rad(angle),
                                           index_dtype)
        end = nnz + len(cols)
        indices[nnz:end], data[nnz:end] = cols, lengths
        indptr[1 + a * n_rays:1 + (a + 1) * n_rays] = kept
        nnz = end
    np.cumsum(indptr, out=indptr)
    # SparseOperator sorts each row's columns (they come in ray order)
    return SparseOperator(sp.csr_matrix(
        (data[:nnz], indices[:nnz], indptr),
        shape=(geom.n_measurements, geom.n_pixels)))


def noise_sigma(b, model):
    """sigma = relative_level / m * sum_j b_j; requires sum(b) > 0."""
    b = np.asarray(b, dtype=np.float64)
    total = float(np.sum(b))
    if total <= 0:
        raise ValueError("sum(b) must be positive to define sigma")
    return model.relative_level / len(b) * total


def add_noise(b, model):
    """Add i.i.d. N(0, sigma^2) noise to b.

    Noise is drawn from numpy's PCG64 generator seeded with `model.seed`,
    so results are bit-reproducible across runs and platforms.
    """
    b = np.asarray(b, dtype=np.float64)
    if model.relative_level == 0:
        return b.copy()
    sigma = noise_sigma(b, model)
    rng = np.random.default_rng(model.seed)
    return b + sigma * rng.standard_normal(len(b))


def save_pgm(path, vec, shape):
    """8-bit PGM preview, min/max scaled."""
    img = np.asarray(vec, dtype=np.float64).reshape(shape)
    lo, hi = float(img.min()), float(img.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    pix = np.round((img - lo) * scale).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{shape[1]} {shape[0]}\n255\n".encode("ascii"))
        fh.write(pix.tobytes())
