import numpy as np
import pytest

from oracles import (dense_grad_matrix, grad_adjoint_2d, grad_apply_2d,
                     smooth_terms_2d)
from supopt.regtv import (GridShape, SmoothedTVParams, _smooth_terms,
                          grad_adjoint, grad_apply, lipschitz_bound,
                          perturbation_norm_bound, prox_tv, prox_tv_with_info,
                          tv_smooth, tv_smooth_grad, tv_value)

SHAPE = GridShape(6, 7)
TVP = SmoothedTVParams(tau=0.01)


def test_grid_shape_validation():
    with pytest.raises(ValueError):
        GridShape(1, 5)
    assert GridShape(3, 4).n == 12


def test_params_validation():
    with pytest.raises(ValueError):
        SmoothedTVParams(tau=0.0)
    with pytest.raises(ValueError):
        SmoothedTVParams(tau=0.01, lam=-1.0)


def test_grad_matches_dense_matrix():
    rng = np.random.default_rng(0)
    D = dense_grad_matrix(SHAPE)
    x = rng.standard_normal(SHAPE.n)
    y = rng.standard_normal(2 * SHAPE.n)
    assert np.allclose(grad_apply(SHAPE, x), D @ x)
    assert np.allclose(grad_adjoint(SHAPE, y), D.T @ y)


def test_grad_exactly_matches_dense_matrix_on_integers():
    shape = GridShape(16, 16)
    rng = np.random.default_rng(9)
    D = dense_grad_matrix(shape)
    x = rng.integers(-9, 10, shape.n).astype(np.float64)
    y = rng.integers(-9, 10, 2 * shape.n).astype(np.float64)
    d = grad_apply(shape, x)
    assert np.array_equal(d, D @ x)
    assert np.array_equal(grad_adjoint(shape, y), D.T @ y)
    # the trailing row of D1 x and column of D2 x are +0.0 exactly
    d1 = d[:shape.n].reshape(shape.rows, shape.cols)
    d2 = d[shape.n:].reshape(shape.rows, shape.cols)
    for edge in (d1[-1, :], d2[:, -1]):
        assert np.all(edge == 0.0) and not np.any(np.signbit(edge))


def _signed_zeros(rng, size):
    v = rng.standard_normal(size)
    v[rng.random(size) < 0.25] = 0.0
    v[rng.random(size) < 0.25] = -0.0
    return v


@pytest.mark.parametrize("rows, cols",
                         [(2, 2), (2, 9), (9, 2), (7, 11), (11, 7), (16, 16)])
def test_flat_kernels_bitwise_equal_2d_reference(rows, cols):
    shape = GridShape(rows, cols)
    n = shape.n
    rng = np.random.default_rng(31 * rows + cols)
    x = _signed_zeros(rng, n)
    y = _signed_zeros(rng, 2 * n)
    # D^T ignores the last row of y1 and the last column of y2
    ignored = np.resize([np.nan, np.inf, -np.inf, -0.0], max(rows, cols))
    y[n - cols:n] = ignored[:cols]
    y[n:].reshape(rows, cols)[:, -1] = ignored[::-1][:rows]
    d_ref = grad_apply_2d(shape, x).tobytes()
    adj_ref = grad_adjoint_2d(shape, y).tobytes()
    terms_ref = [t.tobytes() for t in smooth_terms_2d(shape, TVP, x)]
    # finite entries everywhere D^T reads raise no floating-point flag
    with np.errstate(all="raise"):
        assert grad_apply(shape, x).tobytes() == d_ref
        assert grad_adjoint(shape, y).tobytes() == adj_ref
        assert [t.tobytes() for t in _smooth_terms(shape, TVP, x)] \
            == terms_ref
        # output buffers are overwritten in full and returned
        out = np.full(2 * n, np.nan)
        assert grad_apply(shape, x, out=out) is out
        assert out.tobytes() == d_ref
        out = np.full(n, np.nan)
        assert grad_adjoint(shape, y, out=out) is out
        assert out.tobytes() == adj_ref
        d, root = np.full(2 * n, np.nan), np.full(2 * n, np.nan)
        terms = _smooth_terms(shape, TVP, x, d=d, root=root)
        assert terms[0] is d and terms[1] is root
        assert [d.tobytes(), root.tobytes()] == terms_ref


def test_kernels_reject_wrong_length():
    with pytest.raises(ValueError, match="expected length 42"):
        grad_apply(SHAPE, np.zeros(SHAPE.n + 1))
    with pytest.raises(ValueError, match="expected length 84"):
        grad_adjoint(SHAPE, np.zeros(SHAPE.n))


def test_grad_adjoint_inner_product_identity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(SHAPE.n)
    y = rng.standard_normal(2 * SHAPE.n)
    assert float(grad_apply(SHAPE, x) @ y) == pytest.approx(
        float(x @ grad_adjoint(SHAPE, y)), rel=1e-12)


def test_constant_image_has_zero_tv():
    x = np.full(SHAPE.n, 3.7)
    assert tv_value(SHAPE, x) == 0.0
    assert tv_smooth(SHAPE, TVP, x) == pytest.approx(2 * SHAPE.n * TVP.tau)
    assert np.allclose(tv_smooth_grad(SHAPE, TVP, x), 0.0)


def test_smoothing_bracket():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(SHAPE.n)
    r = tv_value(SHAPE, x)
    rs = tv_smooth(SHAPE, TVP, x)
    assert r <= rs <= r + 2 * SHAPE.n * TVP.tau


def test_gradient_by_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(SHAPE.n)
    g = tv_smooth_grad(SHAPE, TVP, x)
    h = 1e-6
    for i in rng.choice(SHAPE.n, size=8, replace=False):
        e = np.zeros(SHAPE.n)
        e[i] = h
        fd = (tv_smooth(SHAPE, TVP, x + e) - tv_smooth(SHAPE, TVP, x - e)) \
            / (2 * h)
        assert g[i] == pytest.approx(fd, abs=1e-5)


def test_lipschitz_bounds():
    loose = lipschitz_bound(TVP)
    assert loose == pytest.approx(8.0 / TVP.tau)
    D = dense_grad_matrix(SHAPE)
    dense = np.linalg.norm(D, 2) ** 2 / TVP.tau
    assert dense <= loose + 1e-9


def test_hessian_norm_below_bound():
    # analytic Hessian D^T diag(tau^2/(tau^2+d^2)^{3/2}) D
    rng = np.random.default_rng(4)
    D = dense_grad_matrix(SHAPE)
    bound = lipschitz_bound(TVP)
    for _ in range(5):
        x = rng.standard_normal(SHAPE.n)
        d = D @ x
        wts = TVP.tau ** 2 / (TVP.tau ** 2 + d ** 2) ** 1.5
        H = D.T @ (wts[:, None] * D)
        assert np.linalg.norm(H, 2) <= bound + 1e-9


def test_perturbation_norm_bound_equals_row_norm_sum():
    D = dense_grad_matrix(SHAPE)
    row_norms = np.linalg.norm(D, axis=1).sum()
    assert perturbation_norm_bound(SHAPE) == pytest.approx(row_norms)


def _prox_oracle(shape, params, x, beta, nonneg, steps=200000):
    """Projected gradient descent on the prox objective (slow oracle)."""
    L = 8.0 / params.tau + 1.0 / beta
    z = np.maximum(x, 0.0) if nonneg else x.copy()
    for _ in range(steps):
        g = tv_smooth_grad(shape, params, z) + (z - x) / beta
        z_new = z - g / L
        if nonneg:
            z_new = np.maximum(z_new, 0.0)
        if np.max(np.abs(z_new - z)) * L < 1e-11:
            return z_new
        z = z_new
    return z


def test_prox_matches_projected_gradient_oracle():
    shape = GridShape(3, 3)
    params = SmoothedTVParams(tau=0.05)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(shape.n)
    # 1e-5 is the step regime of the prox superiorization workloads
    for beta in (0.1, 1e-5):
        for nonneg in (False, True):
            z = prox_tv(shape, params, x, beta, nonneg=nonneg, tol=1e-9,
                        max_iter=2000)
            oracle = _prox_oracle(shape, params, x, beta, nonneg)
            assert np.max(np.abs(z - oracle)) < 1e-6


def test_prox_stationary_point_returned_unchanged():
    x = np.full(SHAPE.n, 2.0)  # constant image: gradient of R_tau is zero
    z = prox_tv(SHAPE, TVP, x, 0.01)
    assert np.array_equal(z, x)


def test_prox_never_increases_objective():
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.standard_normal(SHAPE.n)
        beta = 10 ** rng.uniform(-4, -1)
        z = prox_tv(SHAPE, TVP, x, beta)
        d = z - x
        obj_z = tv_smooth(SHAPE, TVP, z) + 0.5 / beta * float(d @ d)
        assert obj_z <= tv_smooth(SHAPE, TVP, x) + 1e-12


def test_prox_nonneg_feasible_output():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(SHAPE.n)
    z = prox_tv(SHAPE, TVP, x, 0.05, nonneg=True)
    assert np.min(z) >= 0.0


def test_prox_info_reports_iterations():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(SHAPE.n)
    z, nit, nfev, warn = prox_tv_with_info(SHAPE, TVP, x, 0.05)
    assert nit >= 1 and nfev >= nit
    assert not warn
    with pytest.raises(ValueError):
        prox_tv(SHAPE, TVP, x, 0.0)


def test_prox_info_warns_when_budget_runs_out():
    # at a large step the subproblem is ill conditioned: one step is short
    rng = np.random.default_rng(8)
    x = rng.standard_normal(SHAPE.n)
    for nonneg in (False, True):
        with pytest.warns(RuntimeWarning, match="max_iter = 1 steps"):
            _, nit, nfev, warn = prox_tv_with_info(SHAPE, TVP, x, 10.0,
                                                   nonneg=nonneg, max_iter=1)
        assert warn and nit == 1 and nfev >= nit
        # prox_tv drops the flag, so the warning is all its caller sees
        with pytest.warns(RuntimeWarning, match="max_iter = 1 steps"):
            prox_tv(SHAPE, TVP, x, 10.0, nonneg=nonneg, max_iter=1)
