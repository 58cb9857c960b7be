import numpy as np
import pytest

from oracles import grad_adjoint_2d, smooth_terms_2d
from supopt import superior
from supopt.basic import default_gamma, g_u
from supopt.fbs import AFBSConfig, afbs_run
from supopt.metrics import ProblemInstance
from supopt.opslin import SparseOperator
from supopt.regtv import (GridShape, SmoothedTVParams,
                          perturbation_norm_bound, tv_smooth)
from supopt.superior import (SupConfig, VARIANTS, s_grad, s_prox,
                             s_prox_plus, superiorize_run)
from supopt.tomo import Geometry, build_parallel_system, shepp_logan

SHAPE = GridShape(8, 8)
TVP = SmoothedTVParams(tau=0.01)


def make_instance(seed=0, m=20, shape=SHAPE):
    rng = np.random.default_rng(seed)
    A = SparseOperator(rng.standard_normal((m, shape.n)))
    x_true = np.abs(rng.standard_normal(shape.n))
    b = A.apply_nocount(x_true)
    return A, b


def test_config_validation():
    with pytest.raises(ValueError):
        SupConfig(variant="NoSuch")
    with pytest.raises(ValueError):
        SupConfig(variant="GradSupCG", a=1.5)
    with pytest.raises(ValueError):
        SupConfig(variant="GradSupCG", gamma0=0.0)
    with pytest.raises(ValueError):
        SupConfig(variant="GradSupCG", max_outer=-1)
    # NaN fails every range check
    for bad in ({"a": np.nan}, {"gamma0": np.nan}, {"eps": np.nan},
                {"eps": -1.0}):
        with pytest.raises(ValueError):
            SupConfig(variant="GradSupCG", **bad)


def test_config_takes_unset_a_and_gamma0_from_the_variant():
    assert SupConfig("GradSupLW").a == 1.0 - 1e-4
    assert SupConfig("GradSupLW").gamma0 == 0.0025
    assert SupConfig("ProxSupCG").a == 1.0 - 1e-6
    assert SupConfig("ProxSupCG", a=0.5, gamma0=0.1).gamma0 == 0.1
    # a gamma0 of None is the step-coupled 1.9 lam / ||A||^2, bit for bit
    assert SupConfig("ProxCSupLW").gamma0 is None
    A, b = make_instance(seed=3)
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    coupled = superiorize_run(SupConfig("ProxCSupLW", max_outer=3),
                              ProblemInstance(A, b, SHAPE, tvp))
    pinned = superiorize_run(
        SupConfig("ProxCSupLW", gamma0=1.9 * tvp.lam / A.norm_sq,
                  max_outer=3), ProblemInstance(A, b, SHAPE, tvp))
    assert np.array_equal(coupled.x, pinned.x)


def test_run_needs_lam_only_for_a_step_coupled_gamma0():
    A, b = make_instance(seed=4)
    tvp = SmoothedTVParams(tau=0.01, lam=0.0)
    for name, (*_, gamma0) in VARIANTS.items():
        config = SupConfig(name, max_outer=1)
        if gamma0 is None:
            with pytest.raises(ValueError, match="lam > 0"):
                superiorize_run(config, ProblemInstance(A, b, SHAPE, tvp))
            config = SupConfig(name, gamma0=0.001, max_outer=1)
        assert superiorize_run(
            config, ProblemInstance(A, b, SHAPE, tvp)).iterations == 1


def test_s_grad_constant_image_advances_ell_by_kappa():
    y = np.full(SHAPE.n, 1.5)
    y_new, ell_new = s_grad(SHAPE, TVP, y, ell=3, a=0.5, gamma0=0.01, kappa=5)
    assert np.array_equal(y_new, y)
    assert ell_new == 8


def test_s_grad_never_increases_target():
    rng = np.random.default_rng(1)
    for seed in range(5):
        y = np.random.default_rng(seed).standard_normal(SHAPE.n)
        y_new, _ = s_grad(SHAPE, TVP, y, ell=0, a=0.5, gamma0=0.01, kappa=3)
        assert tv_smooth(SHAPE, TVP, y_new) <= tv_smooth(SHAPE, TVP, y)


def test_s_grad_instrumented_trial_count():
    # ramp image: every accepted step must strictly decrease R_tau
    y = np.repeat(np.linspace(0, 1, SHAPE.cols)[None, :], SHAPE.rows,
                  axis=0).ravel()
    vals = [tv_smooth(SHAPE, TVP, y)]
    ell = 0
    cur = y
    for _ in range(5):
        cur, ell = s_grad(SHAPE, TVP, cur, ell, a=0.5, gamma0=0.01, kappa=1)
        vals.append(tv_smooth(SHAPE, TVP, cur))
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    # ell counts every trial, so it grows at least once per pass
    assert ell >= 5


def _s_grad_reference(shape, tvparams, y, ell, a, gamma0, kappa):
    """s_grad recomputing the gradient, R_tau(y) and R_tau(y_try) anew.

    Built on the two-dimensional reference kernels in `oracles`, so it
    shares no difference kernel with the code under test.
    """
    for _ in range(kappa):
        d, root = smooth_terms_2d(shape, tvparams, y)
        g = grad_adjoint_2d(shape, d / root)
        nrm = float(np.linalg.norm(g))
        v = -g / nrm if nrm > 0 else np.zeros_like(y)
        r_cur = float(root.sum())
        while True:
            if ell > superior._ELL_MAX:
                return y, ell
            y_try = y + (gamma0 * a ** ell) * v
            ell += 1
            if float(smooth_terms_2d(shape, tvparams, y_try)[1].sum()) \
                    <= r_cur:
                y = y_try
                break
    return y, ell


@pytest.mark.parametrize("a, gamma0",
                         [(0.5, 1.0), (0.8, 0.3), (1.0 - 1e-6, 0.01)])
def test_s_grad_bitwise_equals_reference(a, gamma0):
    shape = GridShape(16, 16)
    for seed in range(3):
        y0 = 0.01 * np.random.default_rng(seed).standard_normal(shape.n)
        y, ell = s_grad(shape, TVP, y0, 0, a, gamma0, kappa=10)
        y_ref, ell_ref = _s_grad_reference(shape, TVP, y0, 0, a, gamma0, 10)
        assert np.array_equal(y, y_ref)
        assert ell == ell_ref
        if a < 0.9:
            assert ell > 10  # some trials were rejected


def test_s_grad_exhausted_exponent_returns_current_point(monkeypatch):
    shape = GridShape(16, 16)
    monkeypatch.setattr(superior, "_ELL_MAX", 4)
    y0 = np.random.default_rng(12).standard_normal(shape.n)
    with pytest.warns(RuntimeWarning, match="exhausted"):
        y, ell = s_grad(shape, TVP, y0, 0, 0.5, 5.0, kappa=6)
    y_ref, ell_ref = _s_grad_reference(shape, TVP, y0, 0, 0.5, 5.0, 6)
    assert np.array_equal(y, y_ref) and ell == ell_ref == 5
    with pytest.warns(RuntimeWarning, match="exhausted"):
        y, ell = s_grad(shape, TVP, y0, 5, 0.5, 5.0, kappa=6)
    assert np.array_equal(y, y0) and ell == 5


def test_s_grad_buffers_never_alias_caller_arrays(monkeypatch):
    shape = GridShape(16, 16)
    y0 = 0.01 * np.random.default_rng(13).standard_normal(shape.n)
    y0_bytes = y0.tobytes()
    y1, ell1 = s_grad(shape, TVP, y0, 0, 0.8, 0.3, kappa=5)
    assert y0.tobytes() == y0_bytes
    assert not np.shares_memory(y1, y0)
    y1_bytes = y1.tobytes()
    y2, ell2 = s_grad(shape, TVP, y1, ell1, 0.8, 0.3, kappa=5)
    assert y1.tobytes() == y1_bytes
    assert not np.shares_memory(y2, y1)
    # two chained calls are the same ten passes as one call
    y_once, ell_once = s_grad(shape, TVP, y0, 0, 0.8, 0.3, kappa=10)
    assert y2.tobytes() == y_once.tobytes() and ell2 == ell_once
    # the exhausted-exponent return is a copy too
    monkeypatch.setattr(superior, "_ELL_MAX", ell2 - 1)
    with pytest.warns(RuntimeWarning, match="exhausted"):
        y3, ell3 = s_grad(shape, TVP, y2, ell2, 0.8, 0.3, kappa=5)
    assert ell3 == ell2 and y3.tobytes() == y2.tobytes()
    assert not np.shares_memory(y3, y2)


def test_s_prox_small_beta_bounded_perturbation():
    rng = np.random.default_rng(2)
    M = perturbation_norm_bound(SHAPE)
    y = rng.standard_normal(SHAPE.n)
    y_pos = np.abs(y)
    for beta in (1e-4, 1e-3, 1e-2):
        y_new, _ = s_prox(SHAPE, TVP, y, beta)
        assert np.linalg.norm(y - y_new) <= M * beta + 1e-12
        # the constrained step obeys the same bound from a feasible point
        y_new, _ = s_prox_plus(SHAPE, TVP, y_pos, beta)
        assert np.linalg.norm(y_pos - y_new) <= M * beta + 1e-12


def test_s_prox_plus_feasible_output():
    rng = np.random.default_rng(3)
    y = rng.standard_normal(SHAPE.n)
    assert np.min(s_prox_plus(SHAPE, TVP, y, 0.01)[0]) >= 0.0


def test_s_prox_reduces_target_from_feasible_point():
    rng = np.random.default_rng(4)
    y = np.abs(rng.standard_normal(SHAPE.n))
    z, _ = s_prox_plus(SHAPE, TVP, y, 0.05)
    assert tv_smooth(SHAPE, TVP, z) <= tv_smooth(SHAPE, TVP, y) + 1e-12


def test_run_returns_immediately_when_compatible():
    A, b = make_instance(seed=5)
    x0 = np.zeros(SHAPE.n)
    eps = g_u(A, b, x0) + 1.0
    cfg = SupConfig(variant="ProxSupLW", eps=eps, max_outer=100)
    res = superiorize_run(cfg, ProblemInstance(A, b, SHAPE, TVP), x0=x0)
    assert res.converged and res.iterations == 0
    assert len(res.records) == 1 and res.records[0].k == 0


@pytest.mark.parametrize("bad", [np.zeros(SHAPE.n - 1), 0.0,
                                 np.zeros((SHAPE.n, 1))])
def test_run_rejects_an_x0_of_the_wrong_shape(bad):
    A, b = make_instance(seed=5)
    cfg = SupConfig(variant="GradSupLW", max_outer=3)
    with pytest.raises(ValueError, match="x0"):
        superiorize_run(cfg, ProblemInstance(A, b, SHAPE, TVP), x0=bad)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_all_variants_reduce_residual(variant):
    A, b = make_instance(seed=6, m=24)
    cfg = SupConfig(variant=variant, gamma0=1e-3, a=1 - 1e-4, kappa=3,
                    eps=0.0, max_outer=30)
    res = superiorize_run(cfg, ProblemInstance(A, b, SHAPE, TVP))
    assert g_u(A, b, res.x) < g_u(A, b, np.zeros(SHAPE.n))
    assert len(res.records) == 31
    if VARIANTS[variant][0] == "LW+":
        assert np.min(res.x) >= 0.0


def test_perturbation_sum_bounded():
    # sum of beta_k = gamma0 * a^k stays below gamma0 / (1 - a)
    gamma0, a = 0.01, 0.9
    betas = [gamma0 * a ** k for k in range(1000)]
    assert sum(betas) <= gamma0 / (1 - a) + 1e-12


def test_constrained_variant_terminates_feasibly():
    A, b = make_instance(seed=7, m=16)
    cfg = SupConfig(variant="ProxCSupLW", gamma0=1e-3, a=1 - 1e-6, eps=0.5,
                    max_outer=2000)
    res = superiorize_run(cfg, ProblemInstance(A, b, SHAPE, TVP))
    assert res.converged
    assert g_u(A, b, res.x) <= 0.5
    assert np.min(res.x) > -1e-8


def test_callbacks_fire_each_outer_iteration():
    A, b = make_instance(seed=8)
    halves = []
    cfg = SupConfig(variant="ProxSupLW", eps=0.0, max_outer=5)
    res = superiorize_run(cfg, ProblemInstance(A, b, SHAPE, TVP),
                          half_callback=lambda y: halves.append(y.copy()))
    assert [r.k for r in res.records] == [0, 1, 2, 3, 4, 5]
    assert len(halves) == 5


@pytest.mark.parametrize("variant,nonneg", [("ProxCSupLW", True),
                                            ("ProxSupLW", False)])
def test_constant_step_prox_superiorization_is_fbs_bit_for_bit(variant,
                                                                nonneg):
    # at a = 1 the prox step beta = gamma0 = gamma * lam is the reversed
    # splitting's prox at alpha = gamma, and the Landweber step is its
    # forward step: from FBS's first forward step, every half-iterate is
    # the FBS iterate (acceptance 05's instance, where 05 bounds the gap)
    A = build_parallel_system(Geometry(32, 8, 20))
    b = A.apply_nocount(shepp_logan(32))
    gamma = default_gamma(A)
    if nonneg:
        lam = 0.01
        cfg = SupConfig(variant, a=1.0, gamma0=gamma * lam, eps=0.0,
                        max_outer=50)
    else:
        cfg = SupConfig(variant, a=1.0, eps=0.0, max_outer=50)
        lam = cfg.gamma0 / gamma
    problem = ProblemInstance(A, b, GridShape(32, 32),
                              SmoothedTVParams(tau=0.01, lam=lam))
    halves, iterates = [], []
    superiorize_run(cfg, problem, x0=gamma * A.applyT_nocount(b),
                    half_callback=lambda y: halves.append(y.copy()))
    afbs_run(AFBSConfig("ReversedTV", nonneg=nonneg, alpha=gamma,
                        accelerated=False, max_outer=50, term_tol=0.0),
             problem, iterate_callback=lambda x: iterates.append(x.copy()))
    assert len(halves) == len(iterates) == 50
    assert all(np.array_equal(h, z) for h, z in zip(halves, iterates))


def test_metrics_use_reference_image():
    A, b = make_instance(seed=9)
    rng = np.random.default_rng(10)
    x_ref = rng.standard_normal(SHAPE.n)
    cfg = SupConfig(variant="GradSupLW", eps=0.0, max_outer=2, kappa=2)
    res = superiorize_run(cfg, ProblemInstance(A, b, SHAPE, TVP, x_ref))
    d = np.zeros(SHAPE.n) - x_ref
    assert res.records[0].err_scaled == pytest.approx(float(d @ d) / SHAPE.n)


def test_grad_cg_beats_grad_lw_in_error_decay():
    # CG-based superiorization makes faster progress than the Landweber one
    A, b = make_instance(seed=11, m=32)
    x_ref = None
    cfg_cg = SupConfig(variant="GradSupCG", a=1 - 1e-4, gamma0=0.001,
                       kappa=5, eps=0.0, max_outer=25)
    cfg_lw = SupConfig(variant="GradSupLW", a=1 - 1e-4, gamma0=0.0025,
                       kappa=5, eps=0.0, max_outer=25)
    res_cg = superiorize_run(cfg_cg, ProblemInstance(A, b, SHAPE, TVP))
    res_lw = superiorize_run(cfg_lw, ProblemInstance(A, b, SHAPE, TVP))
    r_cg = [r.residual_scaled for r in res_cg.records]
    r_lw = [r.residual_scaled for r in res_lw.records]
    assert all(c <= l + 1e-12 for c, l in zip(r_cg[5:], r_lw[5:]))
