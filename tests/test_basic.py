import numpy as np
import pytest

from oracles import count_uncounted_products, relative_error
from supopt.basic import (cg_step, default_gamma, default_mu, g_u, g_u_mu,
                          lw_proj_step, lw_step, make_step)
from supopt.opslin import SparseOperator


def make_system(m, n, seed=0):
    rng = np.random.default_rng(seed)
    A = SparseOperator(rng.standard_normal((m, n)))
    b = rng.standard_normal(m)
    return A, b


def _cg(A, b, mu):
    """`make_step("CG", A, b)` with mu in place of `default_mu(A)`."""
    p = h = np.zeros(A.n_cols)

    def step(x):
        nonlocal p, h
        x, p, h, r = cg_step(A, b, mu, x, p, h)
        return x, r

    return step


def test_lw_step_is_fixed_point_at_solution():
    rng = np.random.default_rng(1)
    A = SparseOperator(rng.standard_normal((3, 6)))
    x = rng.standard_normal(6)
    b = A.apply_nocount(x)
    out = lw_step(A, b, 0.1, x)
    assert np.allclose(out, x)


def test_lw_step_identity_one_step():
    A = SparseOperator(np.eye(4))
    x = np.array([1.0, -2.0, 3.0, 0.5])
    out = lw_step(A, np.zeros(4), 1.0, x)
    assert np.allclose(out, 0.0)


def test_lw_step_decreases_residual():
    A, b = make_system(4, 8, seed=2)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(8)
    out = lw_step(A, b, default_gamma(A), x)
    assert g_u(A, b, out) < g_u(A, b, x)


def test_lw_proj_step_composition():
    A, b = make_system(4, 8, seed=4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(8)
    gamma = default_gamma(A)
    assert np.array_equal(lw_proj_step(A, b, gamma, x),
                          np.maximum(lw_step(A, b, gamma, x), 0.0))
    assert np.min(lw_proj_step(A, b, gamma, x)) >= 0.0


def test_lw_proj_step_all_clipped():
    A = SparseOperator(np.eye(3))
    x = np.array([-1.0, -2.0, -3.0])
    out = lw_proj_step(A, np.zeros(3), 1.0, x)
    assert np.array_equal(out, np.zeros(3))


def test_cg_step_zero_gradient_is_fixed_point():
    # 1-D: minimizer of 0.5(x-1)^2 + (mu/2) x^2 is 1/(1+mu)
    A = SparseOperator(np.array([[1.0]]))
    b = np.array([1.0])
    mu = 0.01
    step = _cg(A, b, mu)
    x, _ = step(np.zeros(1))
    assert x[0] == pytest.approx(1.0 / (1.0 + mu), rel=1e-12)
    # at the minimizer the next step does not move
    x2, _ = step(x)
    assert x2[0] == pytest.approx(x[0], abs=1e-14)


def test_cg_step_stationary_point_stays_and_charges_four_products():
    # b = 0 and x = 0: g = 0, so the direction vanishes
    A, _ = make_system(4, 8, seed=17)
    x, _ = make_step("CG", A, np.zeros(4))(np.zeros(8))
    assert np.array_equal(x, np.zeros(8))
    assert A.matvec_count == 4


def test_cg_step_hands_over_its_residual_after_a_restart():
    # r = A x - b at the new x, from the products the step ran: through a
    # regular step and through the restart, forced by p = g and any h
    # with g @ h != 0, so that beta = 1 and -g + beta p cancels; the
    # restart runs the step's 4 charged products and no other
    A, b = make_system(6, 12, seed=18)
    mu = 0.05
    x = np.random.default_rng(19).standard_normal(12)
    p = h = np.zeros(12)
    for _ in range(3):
        x, p, h, r = cg_step(A, b, mu, x, p, h)
        assert relative_error(r, A.apply_nocount(x) - b) <= 1e-10
    g = A.applyT_nocount(A.apply_nocount(x) - b) + mu * x
    calls = count_uncounted_products(A)
    charged = A.matvec_count
    restarted, p, _, r = cg_step(A, b, mu, x, g, h)
    assert not calls and A.matvec_count - charged == 4
    assert np.array_equal(p, -g)
    assert relative_error(r, A.apply_nocount(restarted) - b) <= 1e-10


def _textbook_cg(M, rhs, x0, steps):
    """Classical CG on the SPD system M x = rhs (test oracle)."""
    x = x0.copy()
    r = rhs - M @ x
    p = r.copy()
    out = [x.copy()]
    for _ in range(steps):
        Mp = M @ p
        alpha = float(r @ r) / float(p @ Mp)
        x = x + alpha * p
        r_new = r - alpha * Mp
        beta = float(r_new @ r_new) / float(r @ r)
        p = r_new + beta * p
        r = r_new
        out.append(x.copy())
    return out


def test_cg_matches_textbook_cg_without_perturbations():
    rng = np.random.default_rng(6)
    M = rng.standard_normal((6, 12))
    A = SparseOperator(M)
    b = rng.standard_normal(6)
    mu = 0.05
    # regularized normal equations: (A^T A + mu I) x = A^T b
    Mat = M.T @ M + mu * np.eye(12)
    rhs = M.T @ b
    oracle = _textbook_cg(Mat, rhs, np.zeros(12), 10)
    x = p = h = np.zeros(12)
    for k in range(1, 11):
        x, p, h, _ = cg_step(A, b, mu, x, p, h)
        assert np.max(np.abs(x - oracle[k])) < 1e-10


def test_cg_restarts_on_breakdown():
    # the empty pair p = h = 0, which a first step starts from and a
    # degenerate pair amounts to, steps along steepest descent p = -g
    A, b = make_system(3, 5, seed=7)
    mu = 0.01
    x = np.random.default_rng(8).standard_normal(5)
    out, p, _, _ = cg_step(A, b, mu, x, np.zeros(5), np.zeros(5))
    g = A.applyT_nocount(A.apply_nocount(x) - b) + mu * x
    assert np.array_equal(p, -g)
    assert g_u_mu(A, b, out, mu) < g_u_mu(A, b, x, mu)


def test_cg_runs_exactly_the_products_it_is_charged():
    from supopt import tomo
    A = tomo.build_parallel_system(tomo.Geometry(16, 4, 16))
    b = A.apply_nocount(tomo.shepp_logan(16))
    A.norm_sq  # the power iteration runs before the wrapping
    runs = []
    for name in ("matvec", "rmatvec", "apply_nocount", "applyT_nocount"):
        def product(v, run=getattr(A, name)):
            runs.append(1)
            return run(v)
        setattr(A, name, product)
    x = np.zeros(A.n_cols)
    step = make_step("CG", A, b)
    for k in range(1, 11):
        x, _ = step(x)
        assert len(runs) == A.matvec_count == 4 * k


def test_cg_finite_termination_on_small_systems():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        n = 8
        M = rng.standard_normal((n, n)) + n * np.eye(n)
        A = SparseOperator(M)
        b = rng.standard_normal(n)
        mu = 0.1
        step, x = _cg(A, b, mu), np.zeros(n)
        for _ in range(n):
            x, _ = step(x)
        res = M.T @ (M @ x - b) + mu * x
        assert np.linalg.norm(res) < 1e-8


def _run_until(step, x, done, max_iter):
    """Apply `step` from x until done(x); (x, steps), or (x, None) if
    max_iter steps do not get there."""
    k = 0
    while not done(x):
        if k == max_iter:
            return x, None
        x, k = step(x)[0], k + 1
    return x, k


def test_make_step_cg_threads_the_direction_pair_bit_for_bit():
    A, b = make_system(6, 12, seed=13)
    rng = np.random.default_rng(14)
    step = make_step("CG", A, b)
    x = p = h = np.zeros(12)
    for k in range(8):
        # odd steps start from a perturbed point, as in a superiorized
        # run; the first step takes -g0 from the empty pair
        y = x + 1e-3 * rng.standard_normal(12) if k % 2 else x
        x, r = step(y)
        x_ref, p, h, r_ref = cg_step(A, b, default_mu(A), y, p, h)
        assert np.array_equal(x, x_ref) and np.array_equal(r, r_ref)


@pytest.mark.parametrize("kind,op", [("LW", lw_step), ("LW+", lw_proj_step)])
def test_make_step_landweber_uses_default_gamma(kind, op):
    A, b = make_system(4, 8, seed=15)
    x = np.random.default_rng(16).standard_normal(8)
    x_new, r = make_step(kind, A, b)(x)
    assert np.array_equal(x_new, op(A, b, default_gamma(A), x))
    assert r is None  # Landweber holds no product at its new point


def test_mu_sweep_approaches_min_norm_solution():
    rng = np.random.default_rng(8)
    M = rng.standard_normal((4, 9))
    A = SparseOperator(M)
    b = rng.standard_normal(4)
    x_ls = M.T @ np.linalg.solve(M @ M.T, b)
    errs = []
    for mu in (1e-2, 1e-4, 1e-6):
        step = _cg(A, b, mu)
        x = np.zeros(9)
        for _ in range(2000):
            x, _ = step(x)
        errs.append(np.linalg.norm(x - x_ls))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-4


def test_make_step_cg_converges_fast_on_consistent_system():
    rng = np.random.default_rng(10)
    M = rng.standard_normal((5, 12))
    x_true = rng.standard_normal(12)
    A = SparseOperator(M)
    b = M @ x_true
    x, steps = _run_until(_cg(A, b, 1e-12), np.zeros(12),
                          lambda x: g_u_mu(A, b, x, 1e-12) <= 1e-10, 12)
    assert steps is not None
    assert g_u_mu(A, b, x, 1e-12) <= 1e-8


def test_lw_much_slower_than_cg_on_ill_conditioned_system():
    rng = np.random.default_rng(11)
    # ill-conditioned 4x8 system via scaled singular values
    U, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    V, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    S = np.zeros((4, 8))
    S[np.arange(4), np.arange(4)] = [1.0, 0.5, 0.2, 0.05]
    M = U @ S @ V.T
    A = SparseOperator(M)
    b = M @ rng.standard_normal(8)
    eps = 1e-6
    x0 = np.zeros(8)
    _, cg = _run_until(_cg(A, b, 1e-14), x0,
                       lambda x: g_u_mu(A, b, x, 1e-14) <= eps, 100000)
    _, lw = _run_until(make_step("LW", A, b), x0,
                       lambda x: g_u(A, b, x) <= eps, 100000)
    assert cg is not None and lw is not None
    assert lw >= 10 * cg


def test_make_step_unknown_kind():
    A, b = make_system(3, 5)
    with pytest.raises(ValueError, match="unknown basic algorithm"):
        make_step("XX", A, b)


def test_default_mu_scales_with_operator():
    A, _ = make_system(4, 8, seed=12)
    from supopt.opslin import spectral_norm_sq
    assert default_mu(A) == pytest.approx(1e-6 * spectral_norm_sq(A))
