"""End-to-end acceptance checks.

Every test prints a single PASS/FAIL line (visible on the terminal even
under output capture) before asserting, so a full run yields one status
line per acceptance property.
"""

import itertools

import numpy as np
import pytest

from oracles import dense_grad_matrix
from supopt.basic import default_gamma, g_u
from supopt.fbs import (AFBSConfig, LSProx, afbs_run, dual_gap, objective,
                        pd_basic_init, pd_basic_step, pd_noinv_init,
                        pd_noinv_step)
from supopt.harness import ExperimentConfig, build_problem, run_algorithm
from supopt.metrics import ProblemInstance
from supopt.opslin import SparseOperator, shifted_gram_solve
from supopt.regtv import (GridShape, SmoothedTVParams,
                          perturbation_norm_bound, tv_smooth, tv_smooth_grad)
from supopt.superior import SupConfig, s_prox_plus, superiorize_run
from supopt.tomo import Geometry, build_parallel_system, shepp_logan


def _report(capfd, num, ok, desc):
    with capfd.disabled():
        print(f"\nacceptance {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"acceptance check {num} failed: {desc}"


def _brute_force_nonneg_prox(M, b, alpha, x):
    """Constrained prox by active-set enumeration (oracle, n <= 12)."""
    n = M.shape[1]
    Q = M.T @ M + np.eye(n) / alpha
    c = M.T @ b + x / alpha
    for r in range(n + 1):
        for act in itertools.combinations(range(n), r):
            act = list(act)
            free = [i for i in range(n) if i not in act]
            z = np.zeros(n)
            if free:
                z[free] = np.linalg.solve(Q[np.ix_(free, free)], c[free])
                if np.min(z[free]) < -1e-12:
                    continue
            lam = Q @ z - c
            if act and np.min(lam[act]) < -1e-12:
                continue
            return np.maximum(z, 0.0)
    raise RuntimeError("no KKT point found")


def _inactive_prox_instance(rng, m=4, n=10):
    """Random instance whose constrained prox is strictly positive."""
    M = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    alpha = float(rng.uniform(0.3, 2.0))
    z_t = np.abs(rng.standard_normal(n)) + 0.5
    x = z_t + alpha * (M.T @ (M @ z_t) - M.T @ b)
    return SparseOperator(M), M, b, alpha, x, z_t


def test_acceptance_01_tv_gradient_matches_finite_differences(capfd):
    shape = GridShape(8, 8)
    tvp = SmoothedTVParams(tau=0.01)
    rng = np.random.default_rng(0)
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(shape.n)
        g = tv_smooth_grad(shape, tvp, x)
        fd = np.empty(shape.n)
        for i in range(shape.n):
            e = np.zeros(shape.n)
            e[i] = h
            fd[i] = (tv_smooth(shape, tvp, x + e)
                     - tv_smooth(shape, tvp, x - e)) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(g - fd)) / np.max(np.abs(g))))
    _report(capfd, 1, worst <= 1e-5,
            f"TV gradient vs finite differences: rel err {worst:.2e} <= 1e-5")


def test_acceptance_02_hessian_norm_within_lipschitz_bound(capfd):
    shape = GridShape(6, 6)
    tvp = SmoothedTVParams(tau=0.01)
    rng = np.random.default_rng(1)
    h = 1e-6
    bound = 8.0 / tvp.tau
    worst = 0.0
    for _ in range(10):
        x = rng.standard_normal(shape.n)
        H = np.empty((shape.n, shape.n))
        for i in range(shape.n):
            e = np.zeros(shape.n)
            e[i] = h
            H[:, i] = (tv_smooth_grad(shape, tvp, x + e)
                       - tv_smooth_grad(shape, tvp, x - e)) / (2.0 * h)
        worst = max(worst, float(np.linalg.norm(0.5 * (H + H.T), 2)))
    D = dense_grad_matrix(shape)
    d_norm_sq = float(np.max(np.linalg.eigvalsh(D.T @ D)))
    ok = worst <= bound * (1.0 + 1e-6) and d_norm_sq <= 8.0 + 1e-9
    _report(capfd, 2, ok,
            f"max ||hessian||_2 {worst:.1f} <= 8/tau = {bound:.0f}, "
            f"||D||_2^2 {d_norm_sq:.4f} <= 8")


def test_acceptance_03_pd_limits_match_prox_oracles(capfd):
    rng = np.random.default_rng(3)
    worst_basic = worst_noinv = 0.0
    for _ in range(10):
        A, M, b, alpha, x, _ = _inactive_prox_instance(rng)
        smw = shifted_gram_solve(A, 1.0, alpha, x + alpha * (M.T @ b))
        dense = np.linalg.solve(np.eye(10) + alpha * M.T @ M,
                                x + alpha * M.T @ b)
        assert np.max(np.abs(smw - dense)) <= 1e-9
        prob = LSProx(A, A.applyT_nocount(b), alpha, x, nonneg=True)
        st = pd_basic_init(prob)
        for _ in range(3000):
            zp, tp = st.z, st.tau
            st = pd_basic_step(prob, st)
        zb = st.z + (alpha / tp) * (st.z - zp)
        worst_basic = max(worst_basic, float(np.max(np.abs(zb - smw))))
        st = pd_noinv_init(prob)
        for _ in range(3000):
            zp, tp = st.z, st.tau
            st = pd_noinv_step(prob, st)
        zn = st.z + (alpha / tp) * (st.z - zp) \
            + alpha * (M.T @ (st.q - M @ st.z))
        worst_noinv = max(worst_noinv, float(np.max(np.abs(zn - smw))))
    worst_active = 0.0
    for _ in range(5):
        M = rng.standard_normal((4, 10))
        A = SparseOperator(M)
        b = rng.standard_normal(4)
        alpha = float(rng.uniform(0.3, 2.0))
        x = rng.standard_normal(10) - 0.5
        z_oracle = _brute_force_nonneg_prox(M, b, alpha, x)
        prob = LSProx(A, A.applyT_nocount(b), alpha, x, nonneg=True)
        st = pd_noinv_init(prob)
        for _ in range(20000):
            zp, tp = st.z, st.tau
            st = pd_noinv_step(prob, st)
        zn = st.z + (alpha / tp) * (st.z - zp) \
            + alpha * (M.T @ (st.q - M @ st.z))
        zn = np.maximum(zn, 0.0)
        worst_active = max(worst_active, float(np.max(np.abs(zn - z_oracle))))
    ok = max(worst_basic, worst_noinv, worst_active) <= 1e-6
    _report(capfd, 3, ok,
            f"PD prox limits: unconstrained errs {worst_basic:.1e}/"
            f"{worst_noinv:.1e}, constrained vs active-set oracle "
            f"{worst_active:.1e}, all <= 1e-6")


def test_acceptance_04_duality_gap_properties(capfd):
    rng = np.random.default_rng(4)
    A, M, b, alpha, x, _ = _inactive_prox_instance(rng)
    z_star = shifted_gram_solve(A, 1.0, alpha, x + alpha * (M.T @ b))
    prob = LSProx(A, A.applyT_nocount(b), alpha, x, nonneg=True)
    gap_star = dual_gap(prob, z_star)
    # an instance with active constraints, solved by enumeration
    M2 = rng.standard_normal((4, 10))
    A2 = SparseOperator(M2)
    b2 = rng.standard_normal(4)
    x2 = rng.standard_normal(10) - 0.5
    z2 = _brute_force_nonneg_prox(M2, b2, alpha, x2)
    gap_active = dual_gap(
        LSProx(A2, A2.applyT_nocount(b2), alpha, x2, nonneg=True), z2)
    min_gap = np.inf
    for _ in range(100):
        z = np.abs(rng.standard_normal(10)) * rng.uniform(0.1, 3.0)
        min_gap = min(min_gap, dual_gap(prob, z))
    ok = gap_star <= 1e-10 and gap_active <= 1e-10 and min_gap >= 0.0
    _report(capfd, 4, ok,
            f"duality gap at exact prox {gap_star:.1e}/{gap_active:.1e} "
            f"<= 1e-10; min over 100 feasible points {min_gap:.1e} >= 0")


def test_acceptance_05_constant_step_prox_superiorization_equals_fbs(capfd):
    geom = Geometry(32, 8, 20)
    A = build_parallel_system(geom)
    b = A.apply_nocount(shepp_logan(32))
    shape = GridShape(32, 32)
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    gamma = default_gamma(A)
    y0 = 0.0 - gamma * A.applyT_nocount(A.apply_nocount(np.zeros(shape.n))
                                        - b)
    halves = []
    cfg = SupConfig(variant="ProxCSupLW", a=1.0, gamma0=gamma * tvp.lam,
                    eps=0.0, max_outer=50)
    superiorize_run(cfg, ProblemInstance(A, b, shape, tvp), x0=y0,
                    half_callback=lambda y: halves.append(y.copy()))
    iterates = []
    fcfg = AFBSConfig(kind="ReversedTV", nonneg=True, alpha=gamma,
                      accelerated=False, max_outer=50,
                      term_tol=0.0)
    afbs_run(fcfg, ProblemInstance(A, b, shape, tvp),
             iterate_callback=lambda x: iterates.append(x.copy()))
    assert len(halves) == len(iterates) == 50
    worst = max(float(np.linalg.norm(h - z) / np.linalg.norm(z))
                for h, z in zip(halves, iterates))
    _report(capfd, 5, worst <= 1e-8,
            f"constant-step prox superiorization vs plain FBS on the "
            f"reversed splitting: max rel iterate gap {worst:.1e} <= 1e-8")


def test_acceptance_06_prox_steps_are_bounded_perturbations(capfd):
    shape = GridShape(8, 8)
    tvp = SmoothedTVParams(tau=0.01)
    M = perturbation_norm_bound(shape)
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(200):
        y = np.abs(rng.standard_normal(shape.n)) * rng.uniform(0.2, 3.0)
        beta = 10.0 ** rng.uniform(-4.0, -1.0)
        y_new, _ = s_prox_plus(shape, tvp, y, beta)
        worst = max(worst, float(np.linalg.norm(y - y_new)) / beta)
    _report(capfd, 6, worst <= M + 1e-9,
            f"prox perturbation norms: max ||y - S(y)||/beta {worst:.2f} "
            f"<= M = {M:.2f}")


def test_acceptance_07_accelerated_fbs_outer_iteration_count(capfd):
    cfg = ExperimentConfig()  # 128^2, 20 angles, 120 rays, lam 0.01
    problem = build_problem(cfg)
    fcfg = AFBSConfig(kind="NaturalLS", nonneg=False, inner="ExactSMW",
                      accelerated=True, max_outer=300, term_tol=0.001)
    acc = afbs_run(fcfg, problem)
    pcfg = AFBSConfig(kind="NaturalLS", nonneg=False, inner="ExactSMW",
                      accelerated=False, max_outer=300, term_tol=0.001)
    plain = afbs_run(pcfg, problem)
    faster = (not plain.converged) or acc.iterations < plain.iterations
    ok = acc.converged and acc.iterations <= 150 and faster
    plain_txt = (str(plain.iterations) if plain.converged
                 else f"> {pcfg.max_outer}")
    _report(capfd, 7, ok,
            f"accelerated exact-prox FBS reached ||grad||_inf <= 1e-3 in "
            f"{acc.iterations} outer iterations (required <= 150 and fewer "
            f"than plain FBS: {plain_txt})")


def test_acceptance_08_inexactness_schedule_sensitivity(capfd):
    cfg = ExperimentConfig(image_side=64, n_angles=16, n_rays=40)
    problem = build_problem(cfg)
    A, b = problem.A, problem.b
    shape, tvp = problem.shape, problem.tvparams
    objs = {}
    for q in (1.2, 2.0):
        fcfg = AFBSConfig(kind="NaturalLS", nonneg=False, inner="PDNoInv",
                          inexact_q=q, max_outer=40, max_inner=20000,
                          term_tol=0.0)
        res = afbs_run(fcfg, problem)
        objs[q] = objective(A, b, shape, tvp, res.x)
    # a short constrained run exercises the fallback certificate path,
    # which fires whenever the extrapolated candidate leaves the orthant
    fcfg = AFBSConfig(kind="NaturalLS", nonneg=True, inner="PDNoInv",
                      inexact_q=2.0, max_outer=10, max_inner=5000,
                      term_tol=0.0)
    res = afbs_run(fcfg, problem)
    ok = objs[2.0] < objs[1.2] and res.fallback_count >= 1
    _report(capfd, 8, ok,
            f"inexactness schedules at equal outer budget: h(q=2.0) = "
            f"{objs[2.0]:.6e} < h(q=1.2) = {objs[1.2]:.6e}; constrained "
            f"fallback certificates used {res.fallback_count} times (>= 1)")


def test_acceptance_09_noisy_runs_stop_at_noise_level(capfd):
    cfg = ExperimentConfig(noise_level=0.02, max_outer=2000,
                           algorithms=["GradSupCG", "GradSupLW"])
    problem = build_problem(cfg)
    m = problem.A.n_rows
    eps = cfg.resolved_eps()
    r = problem.A.apply_nocount(problem.x_ref) - problem.b
    noise_norm = float(np.linalg.norm(r))
    ok = True
    ratios = []
    for name in cfg.algorithms:
        x, records, info = run_algorithm(name, problem, cfg)
        final_norm = float(np.sqrt(2.0 * m * records[-1].residual_scaled))
        ratios.append(final_norm / noise_norm)
        ok = ok and info["converged"] and g_u(problem.A, problem.b, x) <= eps
    ok = ok and all(abs(r - 1.0) <= 0.1 for r in ratios)
    _report(capfd, 9, ok,
            f"noisy runs stop with g_u <= 0.047m; final-residual to "
            f"noise-norm ratios {[f'{r:.3f}' for r in ratios]} within 10%")


def test_acceptance_10_matvec_accounting_closed_form(capfd):
    cfg = ExperimentConfig(image_side=16, n_angles=4, n_rays=16, max_outer=20)
    problem = build_problem(cfg)
    ok = True
    _, records, _ = run_algorithm("GradSupLW", problem, cfg)
    ok = ok and [r.cumulative_matvecs for r in records] == \
        [2 * k for k in range(21)]
    _, records, _ = run_algorithm("GradSupCG", problem, cfg)
    ok = ok and [r.cumulative_matvecs for r in records] == \
        [4 * k for k in range(21)]
    problem.A.start_run()
    res = afbs_run(AFBSConfig(kind="NaturalLS", nonneg=False, inner="PDNoInv",
                              max_outer=20, term_tol=0.0), problem)
    want = np.cumsum([2 * rec.inner_iters for rec in res.records]).tolist()
    got = [rec.cumulative_matvecs for rec in res.records]
    ok = ok and got == want
    _report(capfd, 10, ok,
            "cumulative matvec counts equal the closed form: 2/LW step, "
            "4/CG step, 2/PD inner step over 20 instrumented iterations")
