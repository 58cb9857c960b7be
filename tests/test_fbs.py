import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import oracles
from oracles import (count_uncounted_products, dense_prox_ls_oracle,
                     nnls_prox_ls_oracle, relative_error)
from supopt import fbs, opslin
from supopt.fbs import (AFBSConfig, LSProx, afbs_run, cert_constrained,
                        cert_unconstrained, dual_gap, grad_h_u, objective,
                        pd_basic_init, pd_basic_step, pd_noinv_init,
                        pd_noinv_step, prox_ls_exact)
from supopt.metrics import ProblemInstance
from supopt.opslin import SparseOperator, spectral_norm_sq
from supopt.regtv import GridShape, SmoothedTVParams


def make_instance(seed=0, m=4, n=10):
    rng = np.random.default_rng(seed)
    A = SparseOperator(rng.standard_normal((m, n)))
    b = rng.standard_normal(m)
    x = rng.standard_normal(n)
    return A, b, x


def test_splitting_validation():
    with pytest.raises(ValueError):
        AFBSConfig("NoSuch")
    with pytest.raises(ValueError):
        AFBSConfig("NaturalLS", inner="NoSuch")
    with pytest.raises(ValueError):
        AFBSConfig("NaturalLS", nonneg=True, max_inner=0)
    with pytest.raises(ValueError):
        AFBSConfig("NaturalLS", max_outer=-1)
    # NaN fails every range check; PDNoInv reads every field checked here
    for bad in ({"alpha": 0.0}, {"alpha": -1.0}, {"alpha": np.nan},
                {"inexact_q": 0.0}, {"inexact_q": np.nan},
                {"term_tol": -1.0}, {"term_tol": np.nan}):
        with pytest.raises(ValueError, match="need|alpha"):
            AFBSConfig("NaturalLS", inner="PDNoInv", **bad)


def test_splitting_config_defaults_its_inner_solver():
    assert AFBSConfig("NaturalLS").inner == "ExactSMW"
    assert AFBSConfig("NaturalLS", nonneg=True).inner == "ExactSMW"
    # the reversed splitting's prox is the TV prox: it takes no solver
    assert AFBSConfig("ReversedTV").inner is None
    with pytest.raises(ValueError, match="ReversedTV does not read inner"):
        AFBSConfig("ReversedTV", inner="TVProx")
    assert AFBSConfig("NaturalLS", inner="PDNoInv").inner == "PDNoInv"


def test_lipschitz_constants():
    # alpha = None is 1/L_f: lam * 8/tau for lam R_tau, ||A||^2 for the
    # least squares
    A, b, shape = _tiny_tomo(side=12)
    tvp = SmoothedTVParams(tau=0.01, lam=0.02)
    for kind, L in (("NaturalLS", tvp.lam * (8.0 / tvp.tau)),
                    ("ReversedTV", spectral_norm_sq(A))):
        runs = [afbs_run(AFBSConfig(kind, alpha=alpha, max_outer=4,
                                    term_tol=0.0),
                         ProblemInstance(A, b, shape, tvp))
                for alpha in (None, 1.0 / L)]
        assert [len(res.records) for res in runs] == [5, 5]
        assert np.array_equal(runs[0].x, runs[1].x)
        assert [replace(rec, wall_time=0.0) for rec in runs[0].records] == \
            [replace(rec, wall_time=0.0) for rec in runs[1].records]


@pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan, np.inf])
def test_ls_prox_rejects_alpha_outside_the_positive_reals(alpha):
    A, b, x = make_instance()
    with pytest.raises(ValueError, match="^alpha "):
        LSProx(A, A.applyT_nocount(b), alpha, x)


@pytest.mark.parametrize("name", ["x", "atb"])
@pytest.mark.parametrize("shape", [(9,), (), (10, 1)])
def test_ls_prox_rejects_vectors_of_the_wrong_shape(name, shape):
    A, b, x = make_instance()
    parts = {"atb": A.applyT_nocount(b), "x": x, name: np.ones(shape)}
    with pytest.raises(ValueError, match=f"^{name} has shape"):
        LSProx(A, alpha=0.7, **parts)


def test_prox_ls_exact_zero_operator_is_identity():
    A = SparseOperator(np.zeros((3, 5)))
    x = np.arange(5.0)
    z, _ = prox_ls_exact(LSProx(A, np.zeros(5), 0.7, x))
    assert np.allclose(z, x)


def test_prox_ls_exact_stationary_point():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((4, 10))
    A = SparseOperator(M)
    x = rng.standard_normal(10)
    b = M @ x  # A^T(Ax - b) = 0
    z, _ = prox_ls_exact(LSProx(A, A.applyT_nocount(b), 0.5, x))
    assert np.allclose(z, x, atol=1e-10)


def test_prox_ls_exact_residual():
    A, b, x = make_instance(seed=2)
    alpha = 0.8
    atb = A.applyT_nocount(b)
    z, _ = prox_ls_exact(LSProx(A, atb, alpha, x))
    c = x / alpha + atb
    Bz = A.applyT_nocount(A.apply_nocount(z)) + z / alpha
    assert np.linalg.norm(Bz - c) <= 1e-9


def test_prox_ls_exact_constrained_kkt():
    A, b, x = make_instance(seed=3)
    alpha = 0.6
    z, _ = prox_ls_exact(LSProx(A, A.applyT_nocount(b), alpha, x,
                                nonneg=True))
    g = A.applyT_nocount(A.apply_nocount(z) - b) + (z - x) / alpha
    assert np.min(z) >= 0.0
    # complementarity: gradient nonnegative where z = 0, ~zero elsewhere
    assert np.min(g) > -1e-6
    assert np.max(np.abs(g[z > 1e-8])) < 1e-6


def test_prox_ls_exact_constrained_never_aliases_caller_arrays(
        monkeypatch):
    pairs = []
    nesterov = fbs._projected_nesterov

    def watched(name, forward, z, lip, mu, nonneg, max_iter, stop):
        def watched_stop(k, z_new, y):
            pairs.append(not np.shares_memory(z_new, y))
            return stop(k, z_new, y)
        return nesterov(name, forward, z, lip, mu, nonneg, max_iter,
                        watched_stop)

    monkeypatch.setattr(fbs, "_projected_nesterov", watched)
    A, b, x = make_instance(seed=3)
    x_bytes = x.tobytes()
    prob = LSProx(A, A.applyT_nocount(b), 0.6, x, nonneg=True)
    z1, steps = prox_ls_exact(prob)
    z2, _ = prox_ls_exact(prob)
    assert x.tobytes() == x_bytes
    assert steps >= 2 and len(pairs) == 2 * steps and all(pairs)
    for z in (z1, z2):
        assert not np.shares_memory(z, x)
    assert not np.shares_memory(z1, z2)
    assert z1.tobytes() == z2.tobytes()


def test_dual_gap_zero_at_exact_prox_and_nonneg_elsewhere():
    A, b, x = make_instance(seed=4)
    alpha = 0.7
    prob = LSProx(A, A.applyT_nocount(b), alpha, x, nonneg=True)
    z_star, _ = prox_ls_exact(prob)
    assert dual_gap(prob, z_star) <= 1e-10
    rng = np.random.default_rng(5)
    for _ in range(25):
        z = np.abs(rng.standard_normal(10))
        assert dual_gap(prob, z) >= 0.0
    with pytest.raises(ValueError):
        dual_gap(prob, -np.ones(10))


def test_dual_gap_equals_primal_minus_dual_objective():
    # Fenchel gap P(z) - D(Az) of min P(z) = 0.5 z^T B z - <c, z> over
    # z >= 0, with D(q) = -0.5||q||^2 - (alpha/2)||(c - A^T q)_+||^2
    A, b, x = make_instance(seed=6)
    alpha = 0.9
    M = A.tocsr().toarray()
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
        assert dual_gap(LSProx(A, M.T @ b, alpha, x, nonneg=True), z) == \
            pytest.approx(primal - dual, rel=1e-10)


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
        prob = LSProx(A, A.applyT_nocount(b), alpha, x, nonneg=True)
        for _ in range(20):
            z = np.maximum(z_star + rng.standard_normal(10)
                           * rng.uniform(1e-4, 1.0), 0.0)
            dist = float(np.sum((z - z_star) ** 2)) / (2.0 * alpha)
            assert dual_gap(prob, z) >= dist * (1.0 - 1e-9)


def test_dual_gap_takes_two_uncounted_products_and_no_factor():
    A, b, x = make_instance(seed=21)
    prob = LSProx(A, A.applyT_nocount(b), 0.7, x, nonneg=True)
    calls = count_uncounted_products(A)
    assert dual_gap(prob, np.abs(x)) > 0.0
    assert len(calls) == 2
    assert A.matvec_count == 0 and A._factor_cache is None


def test_pd_step_size_invariant_and_theta():
    A, b, x = make_instance(seed=8)
    alpha = 0.5
    prob = LSProx(A, A.applyT_nocount(b), alpha, x, nonneg=True)
    st = pd_basic_init(prob)
    prod = st.tau * st.sigma
    for _ in range(20):
        tau_old = st.tau
        st = pd_basic_step(prob, st)
        assert st.tau < tau_old
        assert st.tau * st.sigma == pytest.approx(prod, rel=1e-12)
    st2 = pd_noinv_init(prob)
    prod2 = st2.tau * st2.sigma
    for _ in range(20):
        st2 = pd_noinv_step(prob, st2)
        assert st2.tau * st2.sigma == pytest.approx(prod2, rel=1e-12)


def test_pd_dual_clipping():
    A, b, x = make_instance(seed=9)
    prob = LSProx(A, A.applyT_nocount(b), 0.5, x, nonneg=True)
    st = pd_basic_step(prob, pd_basic_init(prob))
    assert np.max(st.p) <= 0.0


def test_pd_basic_converges_to_constrained_prox():
    A, b, x = make_instance(seed=10)
    alpha = 0.7
    prob = LSProx(A, A.applyT_nocount(b), alpha, x, nonneg=True)
    z_star, _ = prox_ls_exact(prob)
    st = pd_basic_init(prob)
    for _ in range(1000):
        st = pd_basic_step(prob, st)
    gap_1k = dual_gap(prob, np.maximum(st.z, 0.0))
    assert np.max(np.abs(np.maximum(st.z, 0.0) - z_star)) <= 1e-4
    for _ in range(3000):
        st = pd_basic_step(prob, st)
    # the raw iterate converges at rate O(1/l): the gap keeps shrinking
    gap_4k = dual_gap(prob, np.maximum(st.z, 0.0))
    assert gap_4k < gap_1k
    assert np.max(np.abs(np.maximum(st.z, 0.0) - z_star)) <= 4e-5


def test_pd_noinv_zero_operator_fixed_point():
    A = SparseOperator(np.zeros((3, 5)))
    A._norm_sq = 1.0  # zero operator has no spectral norm; fix the step
    x = np.arange(5.0)
    alpha = 0.5
    prob = LSProx(A, np.zeros(5), alpha, x)
    st = pd_noinv_init(prob)
    for _ in range(500):
        st = pd_noinv_step(prob, st)
    # fixed point z* = alpha * c = x
    assert np.allclose(st.z, x, atol=1e-8)


def test_pd_noinv_unconstrained_matches_smw():
    A, b, x = make_instance(seed=11)
    alpha = 0.7
    z_star = dense_prox_ls_oracle(A, b, alpha, x)
    prob = LSProx(A, A.applyT_nocount(b), alpha, x)
    st = pd_noinv_init(prob)
    for _ in range(3000):
        zp, tp = st.z, st.tau
        st = pd_noinv_step(prob, st)
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
        q = az = A.apply_nocount(z_star)
        ataz = A.applyT_nocount(q)
        tau = 0.5

    prob = LSProx(A, A.applyT_nocount(b), alpha, x)
    cert = cert_unconstrained(prob, 1e-8, FakeState(), FakeState())
    assert cert.accepted
    assert cert.gap_value <= 1e-18


def test_cert_unconstrained_eps_subdifferential():
    # accepted z satisfies g(y) >= g(z) + <p, y-z> - eps at probe points,
    # with p = (x - z)/alpha and g the least-squares term
    A, b, x = make_instance(seed=13)
    alpha = 0.7
    eps_k = 1e-3
    prob = LSProx(A, A.applyT_nocount(b), alpha, x)
    st = pd_noinv_init(prob)
    cert = None
    for _ in range(100000):
        prev, st = st, pd_noinv_step(prob, st)
        cert = cert_unconstrained(prob, eps_k, prev, st)
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
    prob = LSProx(A, A.applyT_nocount(b), alpha, x, nonneg=True)
    z_star, _ = prox_ls_exact(prob)

    class FakeState:
        z = z_star
        q = az = A.apply_nocount(z_star)
        atq = ataz = A.applyT_nocount(q)
        tau = 0.5

    cert = cert_constrained(prob, 1e-6, FakeState(), FakeState())
    assert cert.accepted


def _state_at_constrained_prox(A, b, alpha, x):
    # the constrained prox subproblem and its optimal pair: z* and q* = A z*
    z_star = nnls_prox_ls_oracle(A, b, alpha, x)
    q = A.apply_nocount(z_star)
    atq = A.applyT_nocount(q)
    return (LSProx(A, A.applyT_nocount(b), alpha, x, nonneg=True),
            fbs.PDNoInvState(z=z_star, q=q, tau=0.5, sigma=0.5, az=q,
                             atq=atq, ataz=atq, azbar=q, atazbar=atq))


def test_cert_constrained_fallback_accepts_at_exact_prox():
    A, b, x = make_instance(seed=16)
    x = x - 1.0  # make the constraint active
    alpha = 0.7
    prob, st = _state_at_constrained_prox(A, b, alpha, x)
    # a previous iterate above z* where z* = 0 extrapolates out of the
    # orthant, so the certificate takes its fallback path
    z_prev = st.z + (st.z == 0)
    assert np.any(st.z == 0)
    cert = cert_constrained(prob, 1e-6, replace(st, z=z_prev), st)
    assert cert.fallback and cert.accepted
    assert np.array_equal(cert.z, st.z)
    assert math.sqrt(2.0 * alpha * cert.gap_value) <= 1e-6


def test_cert_constrained_path_stable_under_last_bit_change():
    # at the exact constrained prox of a tomography instance the
    # extrapolated candidate is z* itself, and its zero entries are
    # alpha * (A^T q - A^T A z*) = 0; moving A^T q down by one unit in the
    # last place makes them negative by rounding only
    A, b, _ = _tiny_tomo(side=8)
    rng = np.random.default_rng(1)
    x = 0.5 * rng.standard_normal(A.n_cols)
    alpha = 0.5
    prob, st = _state_at_constrained_prox(A, b, alpha, x)
    assert np.count_nonzero(st.z == 0) >= 10
    nudged = fbs.PDNoInvState(**{**st.__dict__,
                                 "atq": np.nextafter(st.atq, -np.inf)})
    for eps_k in (1e-4, 1e-6):
        cert = cert_constrained(prob, eps_k, st, st)
        cert_nudged = cert_constrained(prob, eps_k, st, nudged)
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
    prob = LSProx(A, A.applyT_nocount(b), alpha, x, nonneg=True)
    st = pd_noinv_init(prob)
    checked = 0
    for _ in range(2000):
        prev, st = st, pd_noinv_step(prob, st)
        cert = cert_constrained(prob, 0.0, prev, st)
        if cert.fallback:
            err = np.linalg.norm(st.z - z_star)
            assert err <= math.sqrt(2.0 * alpha * cert.gap_value) + 1e-9
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


def _constrained_certificates(shift, eps_k, steps=300):
    # the subproblem, and (certificate, reference, uncounted products,
    # state) per PDNoInv step
    A, b, x = make_instance(seed=20)
    x = x + shift
    alpha = 0.7
    calls = count_uncounted_products(A)
    prob = LSProx(A, A.applyT_nocount(b), alpha, x, nonneg=True)
    st = pd_noinv_init(prob)
    out = []
    for _ in range(steps):
        prev, st = st, pd_noinv_step(prob, st)
        del calls[:]
        cert = cert_constrained(prob, eps_k, prev, st)
        products = len(calls)
        ref = _cert_constrained_reference(A, b, alpha, eps_k, x, prev.z,
                                          prev.tau, st)
        out.append((cert, ref, products, st))
    return prob, out


@pytest.mark.parametrize("shift,fallback,eps_k", [(3.0, False, 1.7e-3),
                                                  (-1.0, True, 6e-3)])
def test_cert_constrained_matches_four_product_reference(shift, fallback,
                                                         eps_k):
    # eps_k puts the acceptance switch inside the run on the path tested
    alpha = 0.7
    decisions = set()
    prob, certs = _constrained_certificates(shift, eps_k)
    for cert, (z, _, gap, accepted, floor), _, st in certs:
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
            mag = np.max(np.abs(prob.c)) + np.max(np.abs(st.atq))
            assert np.max(np.abs(cert.z - z)) <= \
                1e-12 * max(np.max(np.abs(z)), alpha * mag)
            assert abs(cert.gap_value - gap) <= \
                1e-12 * (abs(gap) + mag * np.sum(np.abs(z)))
    assert decisions == {False, True}


@pytest.mark.parametrize("shift,fallback,products", [(3.0, False, 1),
                                                     (-1.0, True, 0)])
def test_cert_constrained_uncounted_products(shift, fallback, products):
    certs = _constrained_certificates(shift, eps_k=0.0, steps=50)[1]
    seen = [n for cert, _, n, _ in certs if cert.fallback == fallback]
    assert seen and set(seen) == {products}


@pytest.mark.parametrize("shift,fallback,eps_k", [(3.0, False, 1.7e-3),
                                                  (-1.0, True, 6e-3)])
def test_cert_constrained_keeps_a_z_on_either_path(shift, fallback, eps_k):
    A, _, _ = make_instance(seed=20)  # the operator of the certificates
    certs = [cert for cert, *_ in _constrained_certificates(shift, eps_k)[1]
             if cert.fallback == fallback]
    assert certs
    for cert in certs:
        assert relative_error(cert.az, A.apply_nocount(cert.z)) <= 1e-10


def test_cert_unconstrained_keeps_a_z():
    A, b, x = make_instance(seed=13)
    prob = LSProx(A, A.applyT_nocount(b), 0.7, x)
    st = pd_noinv_init(prob)
    calls = count_uncounted_products(A)
    for _ in range(20):
        prev, st = st, pd_noinv_step(prob, st)
        del calls[:]
        cert = cert_unconstrained(prob, 1e-3, prev, st)
        assert not calls  # A z by linearity from the two states' A z
        assert relative_error(cert.az, A.apply_nocount(cert.z)) <= 1e-12


def _tiny_tomo(side=16, seed=0):
    from supopt import tomo
    geom = tomo.Geometry(side, 6, side)
    A = tomo.build_parallel_system(geom)
    x_true = tomo.shepp_logan(side)
    b = A.apply_nocount(x_true)
    return A, b, GridShape(side, side)


@pytest.mark.parametrize("side", [16, 32])
@pytest.mark.parametrize("nonneg", [False, True])
def test_pd_noinv_held_products_match_direct_products(side, nonneg):
    # two proxes at NaturalLS's alpha, the second warm-started from the
    # first one's last state: A z and A^T A z are the step's own products,
    # A^T q comes by linearity and must not drift from A^T applied to q
    from supopt import tomo
    A, b, _ = _tiny_tomo(side=side)
    rng = np.random.default_rng(side)
    alpha = 0.125
    atb = A.applyT_nocount(b)
    st = None
    for _ in range(2):
        x = tomo.shepp_logan(side) + 0.2 * rng.standard_normal(A.n_cols)
        prob = LSProx(A, atb, alpha, x, nonneg)
        st = pd_noinv_init(prob, warm=st)
        for _ in range(150):
            st = pd_noinv_step(prob, st)
            assert relative_error(st.az, A.apply_nocount(st.z)) <= 1e-12
            assert relative_error(st.ataz,
                                  A.applyT_nocount(st.az)) <= 1e-12
            assert relative_error(st.atq, A.applyT_nocount(st.q)) <= 1e-12


def _assert_same_fields(new, ref):
    # every field equal: arrays by np.array_equal, scalars and None by ==
    for name, value in vars(ref).items():
        other = getattr(new, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(other, value), name
        else:
            assert other == value, name


@pytest.mark.parametrize("nonneg", [False, True])
def test_pd_noinv_in_place_matches_allocating_expressions(nonneg):
    # the in-place step and certificates against their plain expressions
    # (tests/oracles.py), side by side from one start, bit for bit
    from supopt import tomo
    A = tomo.build_parallel_system(tomo.Geometry(16, 4, 16))
    x_true = tomo.shepp_logan(16)
    b = A.apply_nocount(x_true)
    x = x_true + 0.2 * np.random.default_rng(4).standard_normal(A.n_cols)
    alpha, eps_k = 0.125, 1e-3
    certify, certify_ref = (
        (cert_constrained, oracles.cert_constrained_allocating) if nonneg
        else (cert_unconstrained, oracles.cert_unconstrained_allocating))
    prob = LSProx(A, A.applyT_nocount(b), alpha, x, nonneg)
    new = ref = pd_noinv_init(prob)
    paths = set()
    for _ in range(60):
        prev, new = new, pd_noinv_step(prob, new)
        prev_ref, ref = ref, oracles.pd_noinv_step_allocating(prob, ref)
        _assert_same_fields(new, ref)
        cert = certify(prob, eps_k, prev, new)
        _assert_same_fields(cert, certify_ref(prob, eps_k, prev_ref, ref))
        paths.add(cert.fallback)
        if nonneg:
            assert dual_gap(prob, new.z) == \
                oracles.dual_gap_allocating(prob, new.z)
    if nonneg:
        # the primary path, at the exact prox and with A^T q one unit in
        # the last place lower, as in the path-stability test
        prob, st = _state_at_constrained_prox(A, b, alpha, x)
        nudged = replace(st, atq=np.nextafter(st.atq, -np.inf))
        for state in (st, nudged):
            cert = cert_constrained(prob, eps_k, st, state)
            _assert_same_fields(cert, oracles.cert_constrained_allocating(
                prob, eps_k, st, state))
            paths.add(cert.fallback)
    assert paths == ({False, True} if nonneg else {False})


def test_pd_noinv_products_per_start_and_step():
    # a cold start forms A z0 and A^T A z0 uncounted; a warm start and
    # every step run none, and a step charges exactly its two products
    A, b, shape = _tiny_tomo()
    x = np.random.default_rng(3).standard_normal(A.n_cols)
    atb = A.applyT_nocount(b)
    A.norm_sq  # the power iteration runs before the wrapping
    calls = count_uncounted_products(A)
    prob = LSProx(A, atb, 0.5, x, True)
    st = pd_noinv_init(prob)
    assert len(calls) == 2 and A.matvec_count == 0
    assert not np.any(st.q) and not np.any(st.atq)
    st = pd_noinv_step(prob, st)
    assert len(calls) == 2 and A.matvec_count == 2
    pd_noinv_init(prob, warm=st)
    assert len(calls) == 2 and A.matvec_count == 2


@pytest.mark.parametrize("inner,nonneg", [("PDNoInv", False),
                                          ("PDNoInv", True),
                                          ("PDBasic", True),
                                          ("ExactSMW", True)])
def test_least_squares_proxes_take_atb_once_per_run(inner, nonneg):
    A, b, shape = _tiny_tomo(side=12)
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    taken = []
    applyT = A.applyT_nocount

    def spy(y):
        taken.append(y is b)
        return applyT(y)

    A.applyT_nocount = spy
    res = afbs_run(AFBSConfig("NaturalLS", nonneg=nonneg, inner=inner,
                              max_outer=4, term_tol=0.0),
                   ProblemInstance(A, b, shape, tvp))
    assert res.iterations == 4
    assert taken.count(True) == 1


def test_each_exact_run_factors_its_own_reduced_system(monkeypatch):
    # the operator's cached factor does not carry over into the next run
    A, b, shape = _tiny_tomo(side=12)
    problem = ProblemInstance(A, b, shape, SmoothedTVParams(tau=0.01,
                                                            lam=0.01))
    factored = []
    factor = opslin._woodbury_factor

    def counting(*args):
        factored.append(1)
        return factor(*args)

    monkeypatch.setattr(opslin, "_woodbury_factor", counting)
    config = AFBSConfig("NaturalLS", max_outer=3, term_tol=0.0)
    runs = [afbs_run(config, problem) for _ in range(2)]
    assert len(factored) == 2
    assert np.array_equal(runs[0].x, runs[1].x)


def test_afbs_t_update_arithmetic():
    # with constant schedules and t_k = 1 the next value is the golden ratio
    t = 1.0
    t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
    assert t_next == pytest.approx((1 + np.sqrt(5)) / 2)


def test_plain_fbs_monotone_descent():
    A, b, shape = _tiny_tomo()
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    cfg = AFBSConfig("NaturalLS", accelerated=False, inner="ExactSMW",
                     max_outer=40, term_tol=0.0)
    objs = []
    res = afbs_run(cfg, ProblemInstance(A, b, shape, tvp),
                   iterate_callback=lambda x: objs.append(
                       objective(A, b, shape, tvp, x)))
    assert all(b2 <= a2 + 1e-10 for a2, b2 in zip(objs, objs[1:]))


def test_accelerated_beats_plain_in_objective():
    A, b, shape = _tiny_tomo()
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    runs = {}
    for acc in (False, True):
        cfg = AFBSConfig("NaturalLS", accelerated=acc, inner="ExactSMW",
                         max_outer=60, term_tol=0.0)
        res = afbs_run(cfg, ProblemInstance(A, b, shape, tvp))
        runs[acc] = objective(A, b, shape, tvp, res.x)
    assert runs[True] < runs[False]


def test_acceleration_rate_log_slope():
    # h(x_k) - h* decays roughly like 1/k^2 with exact prox
    A, b, shape = _tiny_tomo(side=32)
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    ref = afbs_run(AFBSConfig("NaturalLS", accelerated=True, inner="ExactSMW",
                              max_outer=3000, term_tol=0.0),
                   ProblemInstance(A, b, shape, tvp))
    h_star = objective(A, b, shape, tvp, ref.x)
    objs = []
    afbs_run(AFBSConfig("NaturalLS", accelerated=True, inner="ExactSMW",
                        max_outer=100, term_tol=0.0),
             ProblemInstance(A, b, shape, tvp),
             iterate_callback=lambda x: objs.append(
                 objective(A, b, shape, tvp, x)))
    ks = np.arange(10, 101)
    gaps = np.array(objs[9:100]) - h_star
    slope = np.polyfit(np.log(ks), np.log(np.maximum(gaps, 1e-300)), 1)[0]
    assert slope <= -1.9


def test_reversed_splitting_runs_and_descends():
    A, b, shape = _tiny_tomo()
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    cfg = AFBSConfig("ReversedTV", accelerated=True, max_outer=30,
                     term_tol=0.0)
    res = afbs_run(cfg, ProblemInstance(A, b, shape, tvp))
    assert objective(A, b, shape, tvp, res.x) < \
        objective(A, b, shape, tvp, np.zeros(shape.n))


def test_inner_solver_splitting_consistency():
    A, b, shape = _tiny_tomo()
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    with pytest.raises(ValueError):
        afbs_run(AFBSConfig("ReversedTV", inner="ExactSMW"),
                 ProblemInstance(A, b, shape, tvp))
    with pytest.raises(ValueError):
        afbs_run(AFBSConfig("NaturalLS", inner="TVProx"),
                 ProblemInstance(A, b, shape, tvp))
    # its dual is clipped to <= 0: PDBasic solves only the constrained prox
    with pytest.raises(ValueError, match="PDBasic"):
        afbs_run(AFBSConfig("NaturalLS", inner="PDBasic"),
                 ProblemInstance(A, b, shape, tvp))


def test_afbs_pd_basic_nonneg_end_to_end():
    A, b, shape = _tiny_tomo(side=12)
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    cfg = AFBSConfig("NaturalLS", nonneg=True, inner="PDBasic",
                     max_outer=10, term_tol=0.0)
    iterates = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = afbs_run(cfg, ProblemInstance(A, b, shape, tvp),
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
        z, _ = prox_ls_exact(LSProx(A, A.applyT_nocount(b), alpha, v))
        d = z - v
        return g(z) + float(d @ d) / (2 * alpha)

    z, _ = prox_ls_exact(LSProx(A, A.applyT_nocount(b), alpha, x))
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
    cfg = AFBSConfig("NaturalLS", accelerated=True, inner="PDNoInv",
                     max_outer=10, term_tol=0.0, max_inner=5000)
    res = afbs_run(cfg, ProblemInstance(A, b, shape, tvp))
    assert res.total_inner > 0
    assert all(np.isfinite(r.residual_scaled) for r in res.records)


@pytest.mark.parametrize("accelerated", [False, True])
def test_exact_fbs_matvec_count_closed_form(accelerated):
    # each exact prox charges its two products; A^T b is not charged
    A, b, shape = _tiny_tomo()
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    cfg = AFBSConfig("NaturalLS", accelerated=accelerated, inner="ExactSMW",
                     max_outer=12, term_tol=0.0)
    res = afbs_run(cfg, ProblemInstance(A, b, shape, tvp))
    assert [r.cumulative_matvecs for r in res.records] == \
        [2 * k for k in range(13)]


def test_exact_afbs_spends_one_uncounted_product_in_the_whole_run():
    # A^T b, which also gives the k = 0 record its A^T r; every later
    # record takes both from the exact prox, whose products are all charged
    A, b, shape = _tiny_tomo()
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    calls = count_uncounted_products(A)
    cfg = AFBSConfig("NaturalLS", inner="ExactSMW", max_outer=12,
                     term_tol=0.0)
    res = afbs_run(cfg, ProblemInstance(A, b, shape, tvp))
    assert res.iterations == 12
    assert len(calls) == 1


@pytest.mark.parametrize("seed,alpha", [(3, 0.6), (4, 0.7), (10, 0.7),
                                        (15, 0.7)])
def test_prox_ls_exact_constrained_reaches_gap(seed, alpha):
    A, b, x = make_instance(seed=seed)
    prob = LSProx(A, A.applyT_nocount(b), alpha, x, nonneg=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        z, steps = prox_ls_exact(prob)
    assert np.min(z) >= 0.0
    assert dual_gap(prob, z) <= 1e-12
    # two counted products per projected-gradient step
    assert steps > 0 and A.matvec_count == 2 * steps


def test_prox_ls_exact_constrained_returns_a_start_at_its_gap_floor():
    # b = 0 and x <= 0: the clipped start z = 0 is the prox, and the gap
    # test before the first step returns it
    A, _, x = make_instance(seed=5)
    z, steps = prox_ls_exact(LSProx(A, np.zeros(A.n_cols), 0.6, -np.abs(x),
                                    nonneg=True))
    assert np.array_equal(z, np.zeros_like(x))
    assert steps == 0 and A.matvec_count == 0


def test_afbs_run_needs_lam():
    # NaturalLS divides by L_f = 8 lam / tau, ReversedTV's prox steps by
    # alpha * lam: both splittings reject lam = 0 before the first step
    A, b, _ = make_instance(seed=6)
    tvp = SmoothedTVParams(tau=0.01, lam=0.0)
    for kind in ("NaturalLS", "ReversedTV"):
        with pytest.raises(ValueError, match="lam > 0"):
            afbs_run(AFBSConfig(kind, max_outer=1),
                     ProblemInstance(A, b, GridShape(2, 5), tvp))


def test_prox_ls_exact_constrained_warns_on_budget():
    A, b, x = make_instance(seed=3)
    with pytest.warns(RuntimeWarning, match="duality gap"):
        z, steps = prox_ls_exact(
            LSProx(A, A.applyT_nocount(b), 0.6, x, nonneg=True), max_inner=5)
    assert np.min(z) >= 0.0
    assert steps == 5 and A.matvec_count == 10


def test_prox_ls_exact_constrained_tests_the_iterate_it_returns(
        monkeypatch):
    # a budget that is no multiple of the 10-step test interval: the gap
    # is still taken at the last iterate before the prox warns
    A, b, x = make_instance(seed=3)
    tested = []

    def spy(prob, z):
        tested.append(z.copy())
        return dual_gap(prob, z)

    monkeypatch.setattr(fbs, "dual_gap", spy)
    with pytest.warns(RuntimeWarning, match="duality gap"):
        z, _ = prox_ls_exact(
            LSProx(A, A.applyT_nocount(b), 0.6, x, nonneg=True), max_inner=3)
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

    atb = A.applyT_nocount(b)
    unit = LSProx(A, atb, alpha, x, nonneg=True)
    z_unit, _ = prox_ls_exact(unit)
    c_unit = x / alpha + atb
    assert dual_gap(unit, z_unit) <= floor(c_unit)
    s = 100.0
    scaled = LSProx(A, A.applyT_nocount(s * b), alpha, s * x, nonneg=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        z, _ = prox_ls_exact(scaled)
    c = s * x / alpha + A.applyT_nocount(s * b)
    assert floor(c) == pytest.approx(s * s * floor(c_unit), rel=1e-12)
    assert np.min(z) >= 0.0
    assert dual_gap(scaled, z) <= floor(c)
    assert np.max(np.abs(z / s - z_unit)) <= 1e-8 * np.max(z_unit)


def test_prox_ls_exact_constrained_builds_no_factor():
    A, b, _ = _tiny_tomo()
    x = np.random.default_rng(2).standard_normal(A.n_cols)
    z, _ = prox_ls_exact(LSProx(A, A.applyT_nocount(b), 0.5, x, nonneg=True))
    assert np.min(z) >= 0.0 and A._factor_cache is None


def test_exact_constrained_afbs_stops_each_prox_at_max_inner():
    # 3 projected steps of 2 charged products each per outer; the gap
    # after step 3 is still above its floor, so each prox warns
    A, b, shape = _tiny_tomo()
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    cfg = AFBSConfig("NaturalLS", nonneg=True, inner="ExactSMW",
                     max_outer=4, max_inner=3, term_tol=0.0)
    with pytest.warns(RuntimeWarning, match="duality gap") as caught:
        res = afbs_run(cfg, ProblemInstance(A, b, shape, tvp))
    assert len([w for w in caught if "duality gap" in str(w.message)]) == 4
    assert [r.inner_iters for r in res.records] == [0, 3, 3, 3, 3]
    assert [r.cumulative_matvecs for r in res.records] == \
        [6 * k for k in range(5)]


def test_tv_prox_afbs_stops_each_prox_at_max_inner():
    A, b, shape = _tiny_tomo()
    tvp = SmoothedTVParams(tau=0.01, lam=0.01)
    cfg = AFBSConfig("ReversedTV", max_outer=4, max_inner=1, term_tol=0.0)
    with pytest.warns(RuntimeWarning, match="TV prox"):
        res = afbs_run(cfg, ProblemInstance(A, b, shape, tvp))
    assert res.iterations == 4
    assert all(r.inner_iters <= 1 for r in res.records)
    assert res.total_inner >= 1


def test_inexact_inner_runs_warn_when_budget_runs_out():
    A, b, x = make_instance(seed=16)
    x = x - 1.0
    alpha = 0.7
    atb = A.applyT_nocount(b)
    for inner, nonneg in (("PDNoInv", False), ("PDNoInv", True),
                          ("PDBasic", True)):
        prob = LSProx(A, atb, alpha, x, nonneg)
        with pytest.warns(RuntimeWarning, match=f"{inner}: .*max_inner = 1 "
                          "steps"):
            cert, steps, _ = fbs._run_pd(inner, prob, 1e-9, 1)
        assert not cert.accepted and steps == 1
    assert cert.gap_value == dual_gap(prob, cert.z) > 1e-14
    for inner in ("PDNoInv", "PDBasic"):
        charged = A.matvec_count
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cert, steps, _ = fbs._run_pd(inner, prob, 0.1, 100000)
        assert cert.accepted and cert.gap_value <= 1e-2
        # the returned count is the steps run, 2 charged products each
        assert 1 <= steps == (A.matvec_count - charged) // 2 < 100000
