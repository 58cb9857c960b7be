import warnings

import numpy as np
import pytest

from oracles import dense_prox_ls_oracle, nnls_prox_ls_oracle
from supopt import fbs
from supopt.fbs import (AFBSConfig, Splitting, afbs_run, cert_constrained,
                        cert_unconstrained, dual_gap, grad_h_u, lipschitz_f,
                        objective, pd_basic_init, pd_basic_step,
                        pd_noinv_init, pd_noinv_step, prox_ls_exact)
from supopt.opslin import SparseOperator
from supopt.regtv import GridShape, SmoothedTVParams


def make_instance(seed=0, m=4, n=10):
    rng = np.random.default_rng(seed)
    A = SparseOperator(rng.standard_normal((m, n)))
    b = rng.standard_normal(m)
    x = rng.standard_normal(n)
    return A, b, x


def test_splitting_validation():
    with pytest.raises(ValueError):
        Splitting("NoSuch")
    with pytest.raises(ValueError):
        AFBSConfig(inner="NoSuch")
    with pytest.raises(ValueError):
        AFBSConfig(t0=1.0)
    with pytest.raises(ValueError):
        AFBSConfig(max_inner=0)


def test_lipschitz_constants():
    A, _, _ = make_instance()
    tvp = SmoothedTVParams(tau=0.01, lam=0.02)
    assert lipschitz_f(Splitting("NaturalLS"), A, tvp) == \
        pytest.approx(0.02 * 800.0)
    from supopt.opslin import spectral_norm_sq
    assert lipschitz_f(Splitting("ReversedTV"), A, tvp) == \
        pytest.approx(spectral_norm_sq(A))


def test_prox_ls_exact_zero_operator_is_identity():
    A = SparseOperator(np.zeros((3, 5)))
    x = np.arange(5.0)
    z, _ = prox_ls_exact(A, np.zeros(3), 0.7, x)
    assert np.allclose(z, x)


def test_prox_ls_exact_stationary_point():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((4, 10))
    A = SparseOperator(M)
    x = rng.standard_normal(10)
    b = M @ x  # A^T(Ax - b) = 0
    z, _ = prox_ls_exact(A, b, 0.5, x)
    assert np.allclose(z, x, atol=1e-10)


def test_prox_ls_exact_residual():
    A, b, x = make_instance(seed=2)
    alpha = 0.8
    z, _ = prox_ls_exact(A, b, alpha, x)
    c = x / alpha + A.applyT_nocount(b)
    Bz = A.applyT_nocount(A.apply_nocount(z)) + z / alpha
    assert np.linalg.norm(Bz - c) <= 1e-9


def test_prox_ls_exact_constrained_kkt():
    A, b, x = make_instance(seed=3)
    alpha = 0.6
    z, _ = prox_ls_exact(A, b, alpha, x, nonneg=True)
    g = A.applyT_nocount(A.apply_nocount(z) - b) + (z - x) / alpha
    assert np.min(z) >= 0.0
    # complementarity: gradient nonnegative where z = 0, ~zero elsewhere
    assert np.min(g) > -1e-6
    assert np.max(np.abs(g[z > 1e-8])) < 1e-6


def test_dual_gap_zero_at_exact_prox_and_nonneg_elsewhere():
    A, b, x = make_instance(seed=4)
    alpha = 0.7
    z_star, _ = prox_ls_exact(A, b, alpha, x, nonneg=True)
    assert dual_gap(A, alpha, x / alpha + A.applyT_nocount(b),
                    z_star) <= 1e-10
    rng = np.random.default_rng(5)
    for _ in range(25):
        z = np.abs(rng.standard_normal(10))
        assert dual_gap(A, alpha, x / alpha + A.applyT_nocount(b),
                        z) >= 0.0
    with pytest.raises(ValueError):
        dual_gap(A, alpha, x / alpha + A.applyT_nocount(b), -np.ones(10))


def test_dual_gap_equals_primal_minus_dual_objective():
    # Fenchel gap P(z) - D(Az) of min P(z) = 0.5 z^T B z - <c, z> over
    # z >= 0, with D(q) = -0.5||q||^2 - (alpha/2)||(c - A^T q)_+||^2
    A, b, x = make_instance(seed=6)
    alpha = 0.9
    M = A.toarray()
    B = M.T @ M + np.eye(10) / alpha
    c = x / alpha + M.T @ b
    rng = np.random.default_rng(7)
    for scale in (0.1, 1.0, 10.0):
        z = np.abs(rng.standard_normal(10)) * scale
        z[:3] = 0.0
        q = M @ z
        primal = 0.5 * z @ B @ z - c @ z
        dual = -0.5 * q @ q \
            - 0.5 * alpha * np.sum(np.maximum(c - M.T @ q, 0.0) ** 2)
        assert dual_gap(A, alpha, c, z) == pytest.approx(primal - dual,
                                                         rel=1e-10)


@pytest.mark.parametrize("shift", [1.0, 0.0, -1.0])
def test_dual_gap_bounds_distance_to_constrained_prox(shift):
    # strong convexity: gap >= ||z - z*||^2 / (2 alpha) at feasible z, with
    # shift = 1 leaving the constraints inactive and -1 making them active
    rng = np.random.default_rng(30)
    for seed in range(5):
        A, b, x = make_instance(seed=40 + seed)
        x = x + shift
        alpha = float(rng.uniform(0.3, 2.0))
        z_star = nnls_prox_ls_oracle(A, b, alpha, x)
        c = x / alpha + A.applyT_nocount(b)
        for _ in range(20):
            z = np.maximum(z_star + rng.standard_normal(10)
                           * rng.uniform(1e-4, 1.0), 0.0)
            dist = float(np.sum((z - z_star) ** 2)) / (2.0 * alpha)
            assert dual_gap(A, alpha, c, z) >= dist * (1.0 - 1e-9)


def test_dual_gap_takes_two_uncounted_products_and_no_factor():
    A, b, x = make_instance(seed=21)
    c = x / 0.7 + A.applyT_nocount(b)
    calls = _count_uncounted_products(A)
    assert dual_gap(A, 0.7, c, np.abs(x)) > 0.0
    assert len(calls) == 2
    assert A.matvec_count == 0 and A._factor_cache is None


def test_pd_step_size_invariant_and_theta():
    A, b, x = make_instance(seed=8)
    alpha = 0.5
    st = pd_basic_init(A, b, alpha, x)
    prod = st.tau * st.sigma
    for _ in range(20):
        tau_old = st.tau
        st = pd_basic_step(A, alpha, st)
        assert st.tau < tau_old
        assert st.tau * st.sigma == pytest.approx(prod, rel=1e-12)
    st2 = pd_noinv_init(A, b, alpha, x, nonneg=True)
    prod2 = st2.tau * st2.sigma
    for _ in range(20):
        st2 = pd_noinv_step(A, alpha, True, st2)
        assert st2.tau * st2.sigma == pytest.approx(prod2, rel=1e-12)


def test_pd_dual_clipping():
    A, b, x = make_instance(seed=9)
    st = pd_basic_init(A, b, 0.5, x)
    st = pd_basic_step(A, 0.5, st)
    assert np.max(st.p) <= 0.0


def test_pd_basic_converges_to_constrained_prox():
    A, b, x = make_instance(seed=10)
    alpha = 0.7
    z_star, _ = prox_ls_exact(A, b, alpha, x, nonneg=True)
    st = pd_basic_init(A, b, alpha, x)
    for _ in range(1000):
        st = pd_basic_step(A, alpha, st)
    gap_1k = dual_gap(A, alpha, x / alpha + A.applyT_nocount(b),
                      np.maximum(st.z, 0.0))
    assert np.max(np.abs(np.maximum(st.z, 0.0) - z_star)) <= 1e-4
    for _ in range(3000):
        st = pd_basic_step(A, alpha, st)
    # the raw iterate converges at rate O(1/l): the gap keeps shrinking
    gap_4k = dual_gap(A, alpha, x / alpha + A.applyT_nocount(b),
                      np.maximum(st.z, 0.0))
    assert gap_4k < gap_1k
    assert np.max(np.abs(np.maximum(st.z, 0.0) - z_star)) <= 4e-5


def test_pd_noinv_zero_operator_fixed_point():
    A = SparseOperator(np.zeros((3, 5)))
    A._norm_sq = 1.0  # zero operator has no spectral norm; fix the step
    x = np.arange(5.0)
    alpha = 0.5
    st = pd_noinv_init(A, np.zeros(3), alpha, x, nonneg=False)
    for _ in range(500):
        st = pd_noinv_step(A, alpha, False, st)
    # fixed point z* = alpha * c_alpha = x
    assert np.allclose(st.z, x, atol=1e-8)


def test_pd_noinv_unconstrained_matches_smw():
    A, b, x = make_instance(seed=11)
    alpha = 0.7
    z_star = dense_prox_ls_oracle(A, b, alpha, x)
    st = pd_noinv_init(A, b, alpha, x, nonneg=False)
    for _ in range(3000):
        zp, tp = st.z, st.tau
        st = pd_noinv_step(A, alpha, False, st)
    z_ext = st.z + (alpha / tp) * (st.z - zp)
    assert np.max(np.abs(z_ext - z_star)) <= 1e-6
    # dual vector converges to the image of the prox under A
    assert np.max(np.abs(st.q - A.apply_nocount(z_star))) <= 1e-4


def test_cert_unconstrained_accepts_at_fixed_point():
    A, b, x = make_instance(seed=12)
    alpha = 0.7
    z_star = dense_prox_ls_oracle(A, b, alpha, x)

    class FakeState:
        z = z_star
        q = A.apply_nocount(z_star)

    cert = cert_unconstrained(A, alpha, 1e-8, z_star, 0.5, FakeState())
    assert cert.accepted
    assert cert.gap_value <= 1e-18


def test_cert_unconstrained_eps_subdifferential():
    # accepted z satisfies g(y) >= g(z) + <p, y-z> - eps at probe points,
    # with p = (x - z)/alpha and g the least-squares term
    A, b, x = make_instance(seed=13)
    alpha = 0.7
    eps_k = 1e-3
    st = pd_noinv_init(A, b, alpha, x, nonneg=False)
    cert = None
    for _ in range(100000):
        zp, tp = st.z, st.tau
        st = pd_noinv_step(A, alpha, False, st)
        cert = cert_unconstrained(A, alpha, eps_k, zp, tp, st)
        if cert.accepted:
            break
    assert cert.accepted
    z = cert.z
    p = (x - z) / alpha

    def g(v):
        r = A.apply_nocount(v) - b
        return 0.5 * float(r @ r)

    rng = np.random.default_rng(14)
    for _ in range(100):
        y = rng.standard_normal(10) * 3
        assert g(y) >= g(z) + float(p @ (y - z)) - eps_k - 1e-12


def test_cert_constrained_accepts_at_fixed_point():
    A, b, x = make_instance(seed=15)
    alpha = 0.7
    z_star, _ = prox_ls_exact(A, b, alpha, x, nonneg=True)

    class FakeState:
        z = z_star
        q = A.apply_nocount(z_star)
        atq = A.applyT_nocount(q)
        c_alpha = x / alpha + A.applyT_nocount(b)

    cert = cert_constrained(A, alpha, 1e-6, z_star, 0.5, FakeState())
    assert cert.accepted


def _state_at_constrained_prox(A, b, alpha, x):
    # the optimal pair of the constrained prox subproblem: z* and q* = A z*
    z_star = nnls_prox_ls_oracle(A, b, alpha, x)
    q = A.apply_nocount(z_star)
    return fbs.PDNoInvState(z=z_star, q=q, zbar=z_star, tau=0.5, sigma=0.5,
                            c_alpha=x / alpha + A.applyT_nocount(b),
                            atq=A.applyT_nocount(q))


def test_cert_constrained_fallback_accepts_at_exact_prox():
    A, b, x = make_instance(seed=16)
    x = x - 1.0  # make the constraint active
    alpha = 0.7
    st = _state_at_constrained_prox(A, b, alpha, x)
    # a previous iterate above z* where z* = 0 extrapolates out of the
    # orthant, so the certificate takes its fallback path
    z_prev = st.z + (st.z == 0)
    assert np.any(st.z == 0)
    cert = cert_constrained(A, alpha, 1e-6, z_prev, 0.5, st)
    assert cert.fallback and cert.accepted
    assert np.array_equal(cert.z, st.z)
    assert cert.eps_achieved <= 1e-6


def test_cert_constrained_path_stable_under_last_bit_change():
    # at the exact constrained prox of a tomography instance the
    # extrapolated candidate is z* itself, and its zero entries are
    # alpha * (A^T q - A^T A z*) = 0; moving A^T q down by one unit in the
    # last place makes them negative by rounding only
    A, b, _ = _tiny_tomo(side=8)
    rng = np.random.default_rng(1)
    x = 0.5 * rng.standard_normal(A.n_cols)
    alpha = 0.5
    st = _state_at_constrained_prox(A, b, alpha, x)
    assert np.count_nonzero(st.z == 0) >= 10
    nudged = fbs.PDNoInvState(**{**st.__dict__,
                                 "atq": np.nextafter(st.atq, -np.inf)})
    for eps_k in (1e-4, 1e-6):
        cert = cert_constrained(A, alpha, eps_k, st.z, 0.5, st)
        cert_nudged = cert_constrained(A, alpha, eps_k, st.z, 0.5, nudged)
        assert not cert.fallback and not cert_nudged.fallback
        assert cert.accepted and cert_nudged.accepted
        assert np.min(cert_nudged.z) >= 0.0
        assert np.max(np.abs(cert_nudged.z - cert.z)) <= \
            1e-12 * np.max(cert.z)


def test_cert_constrained_fallback_bound_dominates_error():
    A, b, x = make_instance(seed=16)
    x = x - 1.0  # make the constraint active
    alpha = 0.7
    z_star = nnls_prox_ls_oracle(A, b, alpha, x)
    st = pd_noinv_init(A, b, alpha, x, nonneg=True)
    checked = 0
    for _ in range(2000):
        zp, tp = st.z, st.tau
        st = pd_noinv_step(A, alpha, True, st)
        cert = cert_constrained(A, alpha, 0.0, zp, tp, st)
        if cert.fallback:
            err = np.linalg.norm(st.z - z_star)
            assert err <= cert.eps_achieved + 1e-9
            checked += 1
    assert checked > 0


def _cert_constrained_reference(A, b, alpha, eps_k, x, z_prev, tau_prev,
                                state):
    # the certificate's formulas as written out, with their own products
    z1, q1 = state.z, state.q
    Az1 = A.apply_nocount(z1)
    z = z1 + (alpha / tau_prev) * (z1 - z_prev) \
        + alpha * A.applyT_nocount(q1 - Az1)
    if np.min(z) >= 0:
        w = A.applyT_nocount(Az1 - b) - (x - z) / alpha
        d = A.apply_nocount(z - z1)
        lhs = 0.5 * float(d @ d) + float(w @ z)
        return z, w, lhs, lhs <= eps_k ** 2 / (2.0 * alpha), 0.0
    # Fenchel gap of min 0.5||Az||^2 + ||z||^2/(2 alpha) - <c, z> over
    # z >= 0 at the pair (z1, q1) as five terms, plus their rounding floor
    c = x / alpha + A.applyT_nocount(b)
    slack = np.maximum(c - A.applyT_nocount(q1), 0.0)
    terms = [0.5 * float(Az1 @ Az1), float(z1 @ z1) / (2.0 * alpha),
             -float(c @ z1), 0.5 * float(q1 @ q1),
             0.5 * alpha * float(slack @ slack)]
    gap = sum(terms)
    floor = z1.size * np.finfo(np.float64).eps * sum(map(abs, terms))
    return z1, None, gap, np.sqrt(2.0 * alpha * (gap + floor)) <= eps_k, floor


def _count_uncounted_products(A):
    # wraps A's diagnostic products; the returned list grows by one a call
    calls = []

    def counting(product):
        def wrapper(v):
            calls.append(1)
            return product(v)
        return wrapper

    A.apply_nocount = counting(A.apply_nocount)
    A.applyT_nocount = counting(A.applyT_nocount)
    return calls


def _constrained_certificates(shift, eps_k, steps=300):
    # (certificate, reference, uncounted products, state) per PDNoInv step
    A, b, x = make_instance(seed=20)
    x = x + shift
    alpha = 0.7
    calls = _count_uncounted_products(A)
    st = pd_noinv_init(A, b, alpha, x, nonneg=True)
    out = []
    for _ in range(steps):
        zp, tp = st.z, st.tau
        st = pd_noinv_step(A, alpha, True, st)
        del calls[:]
        cert = cert_constrained(A, alpha, eps_k, zp, tp, st)
        products = len(calls)
        ref = _cert_constrained_reference(A, b, alpha, eps_k, x, zp, tp, st)
        out.append((cert, ref, products, st))
    return out


@pytest.mark.parametrize("shift,fallback,eps_k", [(3.0, False, 1.7e-3),
                                                  (-1.0, True, 6e-3)])
def test_cert_constrained_matches_four_product_reference(shift, fallback,
                                                         eps_k):
    # eps_k puts the acceptance switch inside the run on the path tested
    alpha = 0.7
    decisions = set()
    for cert, (z, _, gap, accepted, floor), _, st in \
            _constrained_certificates(shift, eps_k):
        if cert.fallback != fallback:
            continue
        decisions.add(accepted)
        assert cert.accepted == accepted
        if fallback:
            # the same gap at the same pair, summed without cancellation:
            # within the reference's own rounding floor
            assert np.array_equal(cert.z, z)
            assert cert.gap_value >= 0.0
            assert abs(cert.gap_value - gap) <= floor
        else:
            # 1e-12 relative to the magnitude of the terms summed into z
            mag = np.max(np.abs(st.c_alpha)) + np.max(np.abs(st.atq))
            assert np.max(np.abs(cert.z - z)) <= \
                1e-12 * max(np.max(np.abs(z)), alpha * mag)
            assert abs(cert.gap_value - gap) <= \
                1e-12 * (abs(gap) + mag * np.sum(np.abs(z)))
    assert decisions == {False, True}


@pytest.mark.parametrize("shift,fallback,products", [(3.0, False, 3),
                                                     (-1.0, True, 2)])
def test_cert_constrained_uncounted_products(shift, fallback, products):
    certs = _constrained_certificates(shift, eps_k=0.0, steps=50)
    seen = [n for cert, _, n, _ in certs if cert.fallback == fallback]
    assert seen and set(seen) == {products}


def _tiny_tomo(side=16, seed=0):
    from supopt import tomo
    geom = tomo.Geometry(side, 6, side)
    A = tomo.build_parallel_system(geom)
    x_true = tomo.shepp_logan(side)
    b = A.apply_nocount(x_true)
    return A, b, GridShape(side, side)


def test_afbs_t_update_arithmetic():
    # with constant schedules and t_k = 1 the next value is the golden ratio
    t = 1.0
    t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
    assert t_next == pytest.approx((1 + np.sqrt(5)) / 2)


def test_plain_fbs_monotone_descent():
    A, b, shape = _tiny_tomo()
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    cfg = AFBSConfig(accelerated=False, inner="ExactSMW", max_outer=40,
                     term_tol=0.0)
    objs = []
    res = afbs_run(Splitting("NaturalLS"), cfg, A, b, shape, tvp,
                   iterate_callback=lambda x: objs.append(
                       objective(A, b, shape, tvp, x)))
    assert all(b2 <= a2 + 1e-10 for a2, b2 in zip(objs, objs[1:]))


def test_accelerated_beats_plain_in_objective():
    A, b, shape = _tiny_tomo()
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    runs = {}
    for acc in (False, True):
        cfg = AFBSConfig(accelerated=acc, inner="ExactSMW", max_outer=60,
                         term_tol=0.0)
        res = afbs_run(Splitting("NaturalLS"), cfg, A, b, shape, tvp)
        runs[acc] = objective(A, b, shape, tvp, res.x)
    assert runs[True] < runs[False]


def test_acceleration_rate_log_slope():
    # h(x_k) - h* decays roughly like 1/k^2 with exact prox
    A, b, shape = _tiny_tomo(side=32)
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    split = Splitting("NaturalLS")
    ref = afbs_run(split, AFBSConfig(accelerated=True, inner="ExactSMW",
                                     max_outer=3000, term_tol=0.0),
                   A, b, shape, tvp)
    h_star = objective(A, b, shape, tvp, ref.x)
    objs = []
    afbs_run(split, AFBSConfig(accelerated=True, inner="ExactSMW",
                               max_outer=100, term_tol=0.0),
             A, b, shape, tvp,
             iterate_callback=lambda x: objs.append(
                 objective(A, b, shape, tvp, x)))
    ks = np.arange(10, 101)
    gaps = np.array(objs[9:100]) - h_star
    slope = np.polyfit(np.log(ks), np.log(np.maximum(gaps, 1e-300)), 1)[0]
    assert slope <= -1.9


def test_reversed_splitting_runs_and_descends():
    A, b, shape = _tiny_tomo()
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    cfg = AFBSConfig(accelerated=True, inner="TVProx", max_outer=30,
                     term_tol=0.0)
    res = afbs_run(Splitting("ReversedTV"), cfg, A, b, shape, tvp)
    assert objective(A, b, shape, tvp, res.x) < \
        objective(A, b, shape, tvp, np.zeros(shape.n))


def test_inner_solver_splitting_consistency():
    A, b, shape = _tiny_tomo()
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    with pytest.raises(ValueError):
        afbs_run(Splitting("ReversedTV"),
                 AFBSConfig(inner="ExactSMW"), A, b, shape, tvp)
    with pytest.raises(ValueError):
        afbs_run(Splitting("NaturalLS"),
                 AFBSConfig(inner="TVProx"), A, b, shape, tvp)
    # its dual is clipped to <= 0: PDBasic solves only the constrained prox
    with pytest.raises(ValueError, match="PDBasic"):
        afbs_run(Splitting("NaturalLS"),
                 AFBSConfig(inner="PDBasic"), A, b, shape, tvp)


def test_afbs_pd_basic_nonneg_end_to_end():
    A, b, shape = _tiny_tomo(side=12)
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    split = Splitting("NaturalLS", nonneg=True)
    cfg = AFBSConfig(inner="PDBasic", max_outer=10, term_tol=0.0)
    iterates = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = afbs_run(split, cfg, A, b, shape, tvp,
                       iterate_callback=iterates.append)
    assert res.iterations == 10 and len(iterates) == 10
    assert all(np.min(x) >= 0.0 for x in iterates)
    # two charged products per inner step; no fallback certificates
    assert res.total_inner > 0 and A.matvec_count == 2 * res.total_inner
    assert res.fallback_count == 0
    values = [objective(A, b, shape, tvp, x)
              for x in [np.zeros(shape.n), iterates[0], res.x]]
    assert values[2] < values[1] < values[0]


def test_moreau_envelope_gradient_identity():
    # (x - P_ag(x))/a equals the finite-difference gradient of the envelope
    A, b, x = make_instance(seed=17)
    alpha = 0.7

    def g(v):
        r = A.apply_nocount(v) - b
        return 0.5 * float(r @ r)

    def envelope(v):
        z, _ = prox_ls_exact(A, b, alpha, v)
        d = z - v
        return g(z) + float(d @ d) / (2 * alpha)

    z, _ = prox_ls_exact(A, b, alpha, x)
    grad = (x - z) / alpha
    h = 1e-5
    rng = np.random.default_rng(18)
    for i in rng.choice(10, size=4, replace=False):
        e = np.zeros(10)
        e[i] = h
        fd = (envelope(x + e) - envelope(x - e)) / (2 * h)
        assert grad[i] == pytest.approx(fd, abs=1e-4)


def test_inexact_pd_inner_run_terminates():
    A, b, shape = _tiny_tomo()
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    cfg = AFBSConfig(accelerated=True, inner="PDNoInv", max_outer=10,
                     term_tol=0.0, max_inner=5000)
    res = afbs_run(Splitting("NaturalLS"), cfg, A, b, shape, tvp)
    assert res.total_inner > 0
    assert all(np.isfinite(r.residual_scaled) for r in res.records)


@pytest.mark.parametrize("accelerated", [False, True])
def test_exact_fbs_matvec_count_closed_form(accelerated):
    # A^T b is charged once, then each exact prox charges its two products
    A, b, shape = _tiny_tomo()
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    cfg = AFBSConfig(accelerated=accelerated, inner="ExactSMW",
                     max_outer=12, term_tol=0.0)
    res = afbs_run(Splitting("NaturalLS"), cfg, A, b, shape, tvp)
    assert [r.cumulative_matvecs for r in res.records] == \
        [0] + [1 + 2 * k for k in range(1, 13)]


def test_exact_afbs_spends_two_uncounted_products_per_outer():
    # one A x - b serves both the record and the gradient stopping rule,
    # which adds A^T r; the exact prox's products are all charged
    A, b, shape = _tiny_tomo()
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    calls = _count_uncounted_products(A)
    cfg = AFBSConfig(inner="ExactSMW", max_outer=12, term_tol=0.0)
    res = afbs_run(Splitting("NaturalLS"), cfg, A, b, shape, tvp)
    assert res.iterations == 12
    assert len(calls) == 2 * len(res.records)


def test_prox_ls_exact_reuses_given_atb():
    A, b, x = make_instance(seed=19)
    z, steps = prox_ls_exact(A, b, 0.8, x)
    assert steps == 0 and A.matvec_count == 3
    A.reset_matvec_count()
    z_hoisted, _ = prox_ls_exact(A, b, 0.8, x, atb=A.applyT_nocount(b))
    assert A.matvec_count == 2
    assert np.array_equal(z_hoisted, z)


@pytest.mark.parametrize("seed,alpha", [(3, 0.6), (4, 0.7), (10, 0.7),
                                        (15, 0.7)])
def test_prox_ls_exact_constrained_reaches_gap(seed, alpha):
    A, b, x = make_instance(seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        z, steps = prox_ls_exact(A, b, alpha, x, nonneg=True)
    assert np.min(z) >= 0.0
    assert dual_gap(A, alpha, x / alpha + A.applyT_nocount(b), z) <= 1e-12
    # two counted products per projected-gradient step
    assert steps > 0 and A.matvec_count == 2 * steps


def test_prox_ls_exact_constrained_warns_on_budget():
    A, b, x = make_instance(seed=3)
    with pytest.warns(RuntimeWarning, match="duality gap"):
        z, steps = prox_ls_exact(A, b, 0.6, x, nonneg=True, max_iter=5)
    assert np.min(z) >= 0.0
    assert steps == 5 and A.matvec_count == 10


def test_prox_ls_exact_constrained_tests_the_iterate_it_returns(
        monkeypatch):
    # a budget that is no multiple of the 10-step test interval: the gap
    # is still taken at the last iterate before the prox warns
    A, b, x = make_instance(seed=3)
    tested = []

    def spy(A, alpha, c, z):
        tested.append(z.copy())
        return dual_gap(A, alpha, c, z)

    monkeypatch.setattr(fbs, "dual_gap", spy)
    with pytest.warns(RuntimeWarning, match="duality gap"):
        z, _ = prox_ls_exact(A, b, 0.6, x, nonneg=True, max_iter=3)
    assert len(tested) == 2
    assert np.array_equal(tested[-1], z)


def test_prox_ls_exact_constrained_stops_at_rounding_floor():
    # scaling x and b by s scales the prox by s and the gap's rounding
    # floor 2 alpha ||delta||^2, delta_i = n * eps * |c_i|, by s^2
    from supopt import tomo
    A, b, _ = _tiny_tomo()
    rng = np.random.default_rng(0)
    x = tomo.shepp_logan(16) + 0.1 * rng.standard_normal(A.n_cols)
    alpha = 0.5

    def floor(c):
        return 2.0 * alpha * (c.size * np.finfo(np.float64).eps) ** 2 \
            * float(c @ c)

    z_unit, _ = prox_ls_exact(A, b, alpha, x, nonneg=True)
    c_unit = x / alpha + A.applyT_nocount(b)
    assert dual_gap(A, alpha, c_unit, z_unit) <= floor(c_unit)
    s = 100.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        z, _ = prox_ls_exact(A, s * b, alpha, s * x, nonneg=True)
    c = s * x / alpha + A.applyT_nocount(s * b)
    assert floor(c) == pytest.approx(s * s * floor(c_unit), rel=1e-12)
    assert np.min(z) >= 0.0
    assert dual_gap(A, alpha, c, z) <= floor(c)
    assert np.max(np.abs(z / s - z_unit)) <= 1e-8 * np.max(z_unit)


def test_prox_ls_exact_constrained_builds_no_factor():
    A, b, _ = _tiny_tomo()
    x = np.random.default_rng(2).standard_normal(A.n_cols)
    z, _ = prox_ls_exact(A, b, 0.5, x, nonneg=True)
    assert np.min(z) >= 0.0 and A._factor_cache is None


def test_exact_constrained_afbs_stops_each_prox_at_max_inner():
    # 3 projected steps of 2 charged products each per outer; the gap
    # after step 3 is still above its floor, so each prox warns
    A, b, shape = _tiny_tomo()
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    cfg = AFBSConfig(inner="ExactSMW", max_outer=4, max_inner=3,
                     term_tol=0.0)
    with pytest.warns(RuntimeWarning, match="duality gap") as caught:
        res = afbs_run(Splitting("NaturalLS", nonneg=True), cfg, A, b,
                       shape, tvp)
    assert len([w for w in caught if "duality gap" in str(w.message)]) == 4
    assert [r.inner_iters for r in res.records] == [0, 3, 3, 3, 3]
    assert [r.cumulative_matvecs for r in res.records] == \
        [6 * k for k in range(5)]


def test_tv_prox_afbs_stops_each_prox_at_max_inner():
    A, b, shape = _tiny_tomo()
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    cfg = AFBSConfig(inner="TVProx", max_outer=4, max_inner=1, term_tol=0.0)
    with pytest.warns(RuntimeWarning, match="TV prox"):
        res = afbs_run(Splitting("ReversedTV"), cfg, A, b, shape, tvp)
    assert res.iterations == 4
    assert all(r.inner_iters <= 1 for r in res.records)
    assert res.total_inner >= 1


def test_inexact_inner_runs_warn_when_budget_runs_out():
    A, b, x = make_instance(seed=16)
    x = x - 1.0
    alpha = 0.7
    for nonneg in (False, True):
        with pytest.warns(RuntimeWarning, match="max_inner = 1 steps"):
            cert, _ = fbs._run_pd_noinv_inexact(A, b, alpha, x, 1e-9,
                                                nonneg, 1)
        assert not cert.accepted and cert.inner_iters == 1
    with pytest.warns(RuntimeWarning, match="max_inner = 1 steps"):
        cert, _ = fbs._run_pd_basic(A, b, alpha, x, 1e-9, True, 1)
    assert not cert.accepted and cert.inner_iters == 1
    assert cert.gap_value == dual_gap(
        A, alpha, x / alpha + A.applyT_nocount(b), cert.z) > 1e-14
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cert, _ = fbs._run_pd_basic(A, b, alpha, x, 0.1, True, 100000)
    assert cert.accepted and cert.gap_value <= 1e-2
