import importlib.util
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import count_uncounted_products, relative_error
from supopt import fbs, harness, metrics, regtv, tomo
from supopt.basic import g_u
from supopt.fbs import AFBSConfig, afbs_run, grad_h_u
from supopt.harness import (ConfigError, ExperimentConfig, _parse_fbs_spec,
                            build_problem, emit_csv, load_config, main,
                            parse_config_text, run_algorithm, run_experiment)
from supopt.metrics import (FIELD_NAMES, MetricsRecord, ProblemInstance,
                            make_record)
from supopt.opslin import (DimensionMismatchError, SparseOperator,
                           shifted_gram_solve)
from supopt.regtv import GridShape, SmoothedTVParams
from supopt.superior import VARIANTS, SupConfig, superiorize_run

_SPEC = importlib.util.spec_from_file_location(
    "csv_identity",
    Path(__file__).resolve().parents[1] / "scripts" / "csv_identity.py")
csv_identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(csv_identity)


def small_config(**kw):
    base = dict(image_side=16, n_angles=4, n_rays=16, max_outer=3,
                algorithms=["ProxSupLW"])
    base.update(kw)
    return ExperimentConfig(**base)


def make_records(n):
    rng = np.random.default_rng(0)
    recs = []
    for k in range(n):
        recs.append(MetricsRecord(
            k=k, residual_scaled=float(rng.uniform(1e-8, 1.0)),
            tv_scaled=float(rng.uniform()), err_scaled=float(rng.uniform()),
            inner_iters=int(rng.integers(0, 50)),
            cumulative_matvecs=2 * k, wall_time=0.0))
    return recs


def test_csv_roundtrip_twelve_digits(tmp_path):
    recs = make_records(5)
    path = tmp_path / "m.csv"
    emit_csv(recs, path)
    header, *rows = path.read_text().splitlines()
    assert header.split(",") == list(FIELD_NAMES)
    assert len(rows) == 5
    for a, row in zip(recs, rows):
        for name, cell in zip(FIELD_NAMES, row.split(","), strict=True):
            va = getattr(a, name)
            if name in ("k", "inner_iters", "cumulative_matvecs"):
                assert int(cell) == va
            else:
                vb = float(cell)
                assert vb == pytest.approx(va, rel=1e-11, abs=0.0) or va == vb


def test_csv_line_counts(tmp_path):
    path = tmp_path / "e.csv"
    emit_csv([], path)
    assert path.read_text() == ",".join(FIELD_NAMES) + "\n"
    emit_csv(make_records(3), path)
    assert len(path.read_text().strip().split("\n")) == 4


def test_config_defaults_resolve_by_noise():
    cfg = ExperimentConfig()
    assert cfg.resolved_lam() == 0.01
    assert cfg.resolved_eps() == 0.001
    noisy = ExperimentConfig(noise_level=0.02)
    assert noisy.resolved_lam() == 1.6529
    assert noisy.resolved_eps() == pytest.approx(0.047 * 20 * 120)
    pinned = ExperimentConfig(noise_level=0.02, lam=0.5, eps=2.0)
    assert pinned.resolved_lam() == 0.5 and pinned.resolved_eps() == 2.0


def test_parse_config_text_values_and_overrides():
    cfg = parse_config_text("""
        image_side = 16     # comment
        noise_level = 0.05
        algorithms = GradSupCG, FBS:ReversedTV
        override.GradSupCG.gamma0 = 0.002
        override.GradSupCG.kappa = 5
        output_dir = foo
    """)
    assert cfg.image_side == 16 and cfg.noise_level == 0.05
    assert cfg.output_dir == "foo"
    assert cfg.algorithms == ["GradSupCG", "FBS:ReversedTV"]
    assert cfg.overrides["GradSupCG"] == {"gamma0": 0.002, "kappa": 5}
    assert isinstance(cfg.overrides["GradSupCG"]["kappa"], int)


def test_parse_config_text_errors():
    with pytest.raises(ConfigError):
        parse_config_text("no_such_key = 1")
    with pytest.raises(ConfigError):
        parse_config_text("image_side 16")
    # a boolean has one spelling each: true and false
    for raw in ("maybe", "yes", "1", "no", "0", "True"):
        with pytest.raises(ConfigError, match="bad boolean"):
            parse_config_text(f"record_wall_time = {raw}")
    with pytest.raises(ConfigError):
        parse_config_text("override.bad = 1")
    # override values are typed by the algorithm's config class
    for text in ("override.AFBS:NaturalLS.bogus = 1",
                 "override.GradSupCG.kappa = 2.5",
                 "override.GradSupCG.max_inner = 5",
                 "override.AFBS:NaturalLS.inner = PDNoInv",
                 "override.NoSuchAlgorithm.kappa = 1",
                 "override.AFBS:Diagonal.alpha = 1",
                 "overrides = 1"):
        with pytest.raises(ConfigError):
            parse_config_text(text)
    # `none` selects the variant's own gamma0
    assert parse_config_text("override.GradSupCG.gamma0 = none").overrides \
        == {"GradSupCG": {"gamma0": None}}


def test_parse_config_text_override_none_picks_run_time_default():
    cfg = parse_config_text("override.AFBS:NaturalLS.alpha = none\n"
                            "override.AFBS:NaturalLS.max_inner = 7")
    assert cfg.overrides["AFBS:NaturalLS"] == {"alpha": None,
                                               "max_inner": 7}


def test_parse_fbs_spec():
    assert _parse_fbs_spec("AFBS:NaturalLS") == {
        "kind": "NaturalLS", "nonneg": False, "inner": None,
        "accelerated": True}
    assert _parse_fbs_spec("FBS:ReversedTV:nonneg") == {
        "kind": "ReversedTV", "nonneg": True, "inner": None,
        "accelerated": False}
    assert _parse_fbs_spec("AFBS:NaturalLS:PDNoInv:nonneg") == {
        "kind": "NaturalLS", "nonneg": True, "inner": "PDNoInv",
        "accelerated": True}
    with pytest.raises(ConfigError):
        _parse_fbs_spec("GFBS:NaturalLS")
    with pytest.raises(ConfigError):
        _parse_fbs_spec("FBS")
    # at most one inner solver, and nonneg only last
    for name in ("AFBS:NaturalLS:PDNoInv:bogus",
                 "AFBS:NaturalLS:nonneg:PDNoInv"):
        with pytest.raises(ConfigError):
            _parse_fbs_spec(name)


@pytest.mark.parametrize("name", csv_identity.ALGORITHMS)
def test_library_defaults_equal_the_cli_runs(name):
    # a config built from the name by hand, with every other field left
    # at its library default, runs exactly what the CLI runs; wall_time
    # is a clock reading on both sides
    config = small_config(max_outer=20)
    problem = build_problem(config)
    _, records, _ = run_algorithm(name, problem, config)
    if name in VARIANTS:
        run = superiorize_run
        cfg = SupConfig(variant=name, eps=config.resolved_eps(),
                        max_outer=config.max_outer)
    else:
        head, kind, *rest = name.split(":")
        nonneg = rest[-1:] == ["nonneg"]
        run = afbs_run
        cfg = AFBSConfig(kind, nonneg=nonneg,
                         inner=rest[0] if len(rest) > nonneg else None,
                         accelerated=head == "AFBS",
                         max_outer=config.max_outer)
    problem.A.start_run()
    res = run(cfg, problem)
    assert [replace(r, wall_time=0.0) for r in res.records] == \
        [replace(r, wall_time=0.0) for r in records]


def _prox_steps_per_record(monkeypatch):
    """Prox steps of each outer step, counted from outside the runs.

    Every step of the projected Nesterov kernel, the TV prox's and the
    constrained exact least-squares prox's, takes one gradient, and
    every primal-dual step is one call of its step function; the
    wrappers count those calls wherever the runs look the functions up,
    and each `metrics.make_record` call closes the count of the outer
    step whose iterate it records. Returns the list that the records
    fill.
    """
    count, per_record = [0], []

    def counted(fn):
        def wrapper(*args, **kwargs):
            count[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    nesterov, record = regtv._projected_nesterov, metrics.make_record

    def nesterov_counting_gradients(name, grad, *args):
        return nesterov(name, counted(grad), *args)

    def closing_record(*args, **kwargs):
        per_record.append(count[0])
        count[0] = 0
        return record(*args, **kwargs)

    for module in (regtv, fbs):
        monkeypatch.setattr(module, "_projected_nesterov",
                            nesterov_counting_gradients)
    for name in ("pd_noinv_step", "pd_basic_step"):
        monkeypatch.setattr(fbs, name, counted(getattr(fbs, name)))
    monkeypatch.setattr(metrics, "make_record", closing_record)
    return per_record


@pytest.mark.parametrize("name", csv_identity.ALGORITHMS)
def test_inner_iters_are_the_prox_steps_counted_from_outside(name,
                                                             monkeypatch):
    # one unit in both families: the steps of the prox the outer step
    # ran; the gradient reductions and the unconstrained exact prox run
    # no prox steps and record 0
    config = ExperimentConfig(image_side=12, n_angles=4, n_rays=12,
                              max_outer=20, algorithms=[name])
    problem = build_problem(config)
    counted = _prox_steps_per_record(monkeypatch)
    _, records, info = run_algorithm(name, problem, config)
    assert [r.inner_iters for r in records] == counted
    assert info["total_inner"] == sum(counted)
    runs_a_prox = not (name.startswith("Grad") or name.endswith("NaturalLS"))
    assert (sum(counted) > 0) == runs_a_prox


def test_problem_instance_checks_its_parts_against_the_operator():
    A = SparseOperator(np.ones((3, 4)))
    shape, tvp = GridShape(2, 2), SmoothedTVParams()
    problem = ProblemInstance(A, [1, 2, 3], shape, tvp, x_ref=[0, 1, 2, 3])
    assert problem.b.dtype == problem.x_ref.dtype == np.float64
    assert harness.ProblemInstance is ProblemInstance
    for b, grid, x_ref in [(np.ones(4), shape, None),
                           (np.array([1.0]), shape, None),
                           (np.ones(3), GridShape(2, 3), None),
                           (np.ones(3), shape, 0.0),
                           (np.ones(3), shape, np.array([0.5]))]:
        with pytest.raises(ValueError):
            ProblemInstance(A, b, grid, tvp, x_ref)
    # dataclasses.replace makes a new instance and checks it again
    with pytest.raises(ValueError, match="x_ref"):
        replace(problem, x_ref=np.ones(5))


def test_make_record_stopping_rules():
    problem = build_problem(small_config())
    x = problem.x_ref

    def stopped(x, rule, tol):
        return make_record(0, problem, x, rule, tol)[1]

    assert stopped(x, "sup_u", 1e-12)
    assert stopped(x, "sup_c", 1e-12)
    assert not stopped(np.zeros_like(x), "sup_u", 1e-12)
    assert not stopped(x - 1.0, "sup_c", 1e6)
    big = 1e9
    assert stopped(x, "opt_u", big)
    assert stopped(x, "opt_c", big)
    with pytest.raises(ValueError, match="unknown stopping rule"):
        stopped(x, "nope", 0.1)


def _rule_holds(name, tol, problem, x):
    # each family's stopping rule, evaluated on its own
    if name.startswith("AFBS"):
        g = grad_h_u(problem.A, problem.b, problem.shape, problem.tvparams, x)
        if name.endswith("nonneg"):
            g = np.minimum(x, g)
        return float(np.max(np.abs(g))) <= tol
    feasible = name == "GradSupCG" or float(np.min(x)) > -1e-8
    return g_u(problem.A, problem.b, x) <= tol and feasible


@pytest.mark.parametrize("name,param,tol", [
    ("AFBS:NaturalLS", "term_tol", 1e-3),
    ("AFBS:NaturalLS:nonneg", "term_tol", 1e-3),
    ("GradSupCG", "eps", 7e-3),
    ("ProxSupProjLW", "eps", 5e-2)])
def test_run_outer_stops_at_first_iterate_meeting_its_rule(monkeypatch,
                                                           name, param, tol):
    problem = build_problem(small_config())
    seen = []

    def spy(k, problem, x, *args, **kwargs):
        record, stopped = make_record(k, problem, x, *args, **kwargs)
        seen.append((x.copy(), stopped))
        return record, stopped

    monkeypatch.setattr(metrics, "make_record", spy)
    config = small_config(max_outer=200, overrides={name: {param: tol}})
    _, records, info = run_algorithm(name, problem, config)
    decisions = [stopped for _, stopped in seen]
    assert decisions == [_rule_holds(name, tol, problem, x) for x, _ in seen]
    assert decisions == [False] * (len(seen) - 1) + [True]
    assert info["converged"]
    assert info["iterations"] == len(records) - 1 == len(seen) - 1 > 10


@pytest.mark.parametrize("side", [16, 32])
@pytest.mark.parametrize("name,first,with_atr", [
    ("AFBS:NaturalLS", 0, True),                  # ExactSMW
    ("AFBS:NaturalLS:PDNoInv", 0, True),          # cert_unconstrained
    ("AFBS:NaturalLS:PDNoInv:nonneg", 0, False),  # cert_constrained
    ("AFBS:ReversedTV", 0, True),
    ("FBS:ReversedTV", 0, True),
    ("AFBS:ReversedTV:nonneg", 0, True),
    ("GradSupCG", 1, False),
    ("ProxCSupCG", 1, False),
])
def test_steps_hand_over_what_fresh_products_give(monkeypatch, side, name,
                                                  first, with_atr):
    # records first, first + 1, ... get r = A x - b from the step, and
    # A^T r where the step holds it; a splitting run hands the record of
    # x_0 = 0 both, -b and -A^T b
    held = []

    def spy(k, problem, x, *args, r=None, atr=None, **kwargs):
        if r is not None:
            held.append((k, x.copy(), r, atr))
        return make_record(k, problem, x, *args, r=r, atr=atr, **kwargs)

    monkeypatch.setattr(metrics, "make_record", spy)
    config = small_config(image_side=side, n_rays=side, max_outer=30,
                          algorithms=[name])
    problem = build_problem(config)
    _, records, info = run_algorithm(name, problem, config)
    assert [k for k, *_ in held] == list(range(first, len(records)))
    for k, x, r, atr in held:
        fresh = problem.A.apply_nocount(x) - problem.b
        assert relative_error(r, fresh) <= 1e-10
        if atr is not None:
            assert relative_error(atr,
                                  problem.A.applyT_nocount(fresh)) <= 1e-10
    handed = [k for k, _, _, atr in held if atr is not None]
    if name == "AFBS:NaturalLS:PDNoInv:nonneg":
        # A^T r at x_0 and after each fallback certificate, which keeps
        # the step's A^T A z
        assert handed[0] == 0
        assert len(handed) == 1 + info["fallback_count"]
        if side == 16:
            # both certificate paths ran
            assert 0 < info["fallback_count"] < info["iterations"]
    else:
        assert handed == [k for k, *_ in held if with_atr or k == 0]


@pytest.mark.parametrize("name,tol_key,diagnostic", [
    # A^T b once per run, which also gives the k = 0 record its A^T r;
    # every later record takes both from the exact prox
    ("AFBS:NaturalLS", "term_tol", 1),
    # A^T b, which also gives step 1 its gradient; after that each step's
    # two charged products serve its record and the next gradient, so the
    # run executes its charged products plus this one
    ("AFBS:ReversedTV", "term_tol", 1),
    # A^T b and the first prox's cold start A z0 and A^T A z0: the
    # unconstrained certificate extrapolates A z and A^T A z from the
    # steps' products
    ("AFBS:NaturalLS:PDNoInv", "term_tol", 1 + 2),
    ("GradSupCG", "eps", 1),    # the k = 0 record's A x - b
    ("GradSupLW", "eps", 13),   # one A x - b per record
])
def test_records_take_products_only_where_no_step_holds_them(name, tol_key,
                                                            diagnostic):
    config = small_config(max_outer=12, algorithms=[name],
                          overrides={name: {tol_key: 0.0}})
    problem = build_problem(config)
    problem.A.norm_sq  # the power iteration runs before the wrapping
    calls = count_uncounted_products(problem.A)
    _, records, _ = run_algorithm(name, problem, config)
    assert len(records) == 13
    assert len(calls) == diagnostic


def test_constrained_pd_records_take_no_product_after_fallbacks():
    # at tau = 0.3 every certificate of this run takes the fallback path,
    # which keeps A z1 and A^T A z1: the run's only diagnostic products
    # are A^T b and the first prox's cold start A z0 and A^T A z0
    name = "AFBS:NaturalLS:PDNoInv:nonneg"
    config = small_config(max_outer=12, tau=0.3, algorithms=[name],
                          overrides={name: {"term_tol": 0.0}})
    problem = build_problem(config)
    problem.A.norm_sq  # the power iteration runs before the wrapping
    calls = count_uncounted_products(problem.A)
    _, records, info = run_algorithm(name, problem, config)
    assert len(records) == 13
    assert info["fallback_count"] == 12
    assert len(calls) == 3


def test_exact_constrained_afbs_records_its_inner_steps():
    # each projected Nesterov step of ExactSMW:nonneg's prox is charged two
    # products, the closed form acceptance 10 checks for PDNoInv
    config = small_config(max_outer=20)
    _, records, info = run_algorithm("AFBS:NaturalLS:nonneg",
                                     build_problem(config), config)
    inner = [r.inner_iters for r in records]
    assert info["total_inner"] == sum(inner) > 0
    assert [r.cumulative_matvecs for r in records] == \
        np.cumsum([2 * i for i in inner]).tolist()


def test_run_experiment_outputs_and_determinism(tmp_path):
    cfg = small_config(output_dir=str(tmp_path / "a"),
                       algorithms=["ProxSupLW", "FBS:ReversedTV"])
    res1 = run_experiment(cfg)
    cfg2 = small_config(output_dir=str(tmp_path / "b"),
                        algorithms=["ProxSupLW", "FBS:ReversedTV"])
    run_experiment(cfg2)
    for stem in ("ProxSupLW", "FBS_ReversedTV"):
        a = (tmp_path / "a" / f"{stem}.csv").read_bytes()
        b = (tmp_path / "b" / f"{stem}.csv").read_bytes()
        assert a == b
    assert (tmp_path / "a" / "summary.csv").read_bytes() == \
        (tmp_path / "b" / "summary.csv").read_bytes()
    # metric consistency: recompute the scaled residual from the final x
    problem = build_problem(cfg)
    for name, (x, records, _) in res1.items():
        r = problem.A.apply_nocount(x) - problem.b
        want = float(r @ r) / (2.0 * problem.A.n_rows)
        assert records[-1].residual_scaled == pytest.approx(want, rel=1e-10)


def test_record_wall_time_changes_only_its_column(tmp_path):
    # the records hold seconds either way; the option decides the CSVs
    algorithms = ["ProxSupLW", "AFBS:NaturalLS"]
    wall = FIELD_NAMES.index("wall_time")
    columns = {}
    for on in (False, True):
        out = tmp_path / str(on)
        results = run_experiment(small_config(
            output_dir=str(out), max_outer=10, algorithms=algorithms,
            record_wall_time=on))
        for _, records, _ in results.values():
            seconds = [rec.wall_time for rec in records[1:]]
            assert len(seconds) == 10 and min(seconds) > 0.0
            assert seconds == sorted(seconds)
        for stem in ("ProxSupLW", "AFBS_NaturalLS"):
            rows = [line.split(",") for line in
                    (out / f"{stem}.csv").read_text().splitlines()]
            times = [float(row[wall]) for row in rows[1:]]
            assert min(times) >= 0.0
            assert times == sorted(times)
            assert any(times) == on
            columns[on, stem] = [row[:wall] + row[wall + 1:] for row in rows]
    for stem in ("ProxSupLW", "AFBS_NaturalLS"):
        assert columns[True, stem] == columns[False, stem]
    assert (tmp_path / "True" / "summary.csv").read_bytes() == \
        (tmp_path / "False" / "summary.csv").read_bytes()


def test_run_algorithm_zero_outer_budget():
    cfg = small_config(max_outer=0)
    problem = build_problem(cfg)
    x, records, info = run_algorithm("ProxSupLW", problem, cfg)
    assert len(records) == 1 and records[0].k == 0
    assert np.array_equal(x, np.zeros(problem.shape.n))


def test_run_algorithm_rejects_unknown_name():
    cfg = small_config()
    problem = build_problem(cfg)
    with pytest.raises(ConfigError):
        run_algorithm("NoSuchAlgorithm", problem, cfg)


def test_matvec_counts_logged_per_step():
    cfg = small_config(max_outer=4, algorithms=["ProxSupLW"])
    problem = build_problem(cfg)
    _, records, _ = run_algorithm("ProxSupLW", problem, cfg)
    # Landweber charges 2 products per outer step
    assert [r.cumulative_matvecs for r in records] == [0, 2, 4, 6, 8]
    _, records, _ = run_algorithm("ProxSupCG", problem, cfg)
    assert [r.cumulative_matvecs for r in records] == [0, 4, 8, 12, 16]


def test_each_run_counts_its_own_products_from_zero():
    # back-to-back runs on one operator: each run's records start at 0
    # and end at the charged products that run executed
    problem = build_problem(small_config())
    A = problem.A
    calls = []
    for name in ("matvec", "rmatvec"):
        def counting(v, product=getattr(A, name)):
            calls.append(1)
            return product(v)
        setattr(A, name, counting)
    runs = [(afbs_run, AFBSConfig("NaturalLS", inner="PDNoInv",
                                  max_outer=5)),
            (afbs_run, AFBSConfig("ReversedTV", max_outer=5)),
            (superiorize_run, SupConfig("GradSupCG", max_outer=5))]
    for run, cfg in runs:
        before = len(calls)
        res = run(cfg, problem)
        assert res.records[0].cumulative_matvecs == 0
        assert res.records[-1].cumulative_matvecs == len(calls) - before > 0


def test_cli_run(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "image_side = 16\nn_angles = 4\nn_rays = 16\nmax_outer = 2\n"
        "algorithms = ProxSupLW\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    csv = out / "ProxSupLW.csv"
    assert csv.exists() and (out / "summary.csv").exists()
    assert "ProxSupLW: iterations=2 " in capsys.readouterr().out


def test_cli_bad_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("image_side = not_a_number\n")
    assert main(["run", "--config", str(cfg_path)]) == 2
    cfg_path.write_text("bogus_key = 1\n")
    assert main(["run", "--config", str(cfg_path)]) == 2
    # an output directory that cannot be made: a file, or a path under one
    sets = ["--set", "image_side=8", "--set", "n_angles=2", "--set",
            "n_rays=8", "--set", "max_outer=1"]
    capsys.readouterr()
    for out in (cfg_path, cfg_path / "out"):
        assert main(["run", *sets, "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err


def _tiny_run(out, *sets):
    """`supopt run` argv on the 8^2, 2-angle, 8-ray instance."""
    argv = ["run", "--out", str(out), "--set", "image_side=8", "--set",
            "n_angles=2", "--set", "n_rays=8"]
    for item in sets:
        argv += ["--set", item]
    return argv


@pytest.mark.parametrize("assignment", [
    "override.AFBS:NaturalLS.bogus=1",
    "override.AFBS:NaturalLS.max_inner=0",
    "override.GradSupCG.kappa=0",
    "override.GradSupCG.kappa=2.5",
    "algorithms=AFBS:ReversedTV:ExactSMW",
    "algorithms=FBS:NaturalLS:PDBasic",
    "override.AFBS:NaturalLS.a_relax=1",
    "override.AFBS:NaturalLS.t0=1.01",
    "override.AFBS:NaturalLS.inexact_C=1",
    "max_outer=-1",
    "n_angles=0",
    "n_rays=0",
    "image_side=1",
    "tau=0",
    "tau=1e-320",
    "lam=nan",
    "lam=inf",
    "lam=inf algorithms=FBS:ReversedTV",
    "noise_level=-1",
    "noise_level=inf",
    "noisy=true",
    "eps=nan",
    "eps=inf",
    "algorithms=",
    "algorithms=GradSupCG,GradSupCG",
    "algorithms=FBS:ReversedTV:TVProx",
    "override.AFBS:NaturalLS.alpha=0",
    "override.AFBS:NaturalLS.alpha=inf",
    "override.AFBS:NaturalLS.term_tol=nan",
    "override.AFBS:NaturalLS.term_tol=inf",
    "override.AFBS:NaturalLS.inexact_q=nan",
    "algorithms=AFBS:NaturalLS:PDNoInv "
    "override.AFBS:NaturalLS:PDNoInv.inexact_q=inf",
    "override.AFBS:NaturalLS.warm_start=0",
    "override.GradSupCG.gamma0=nan",
    "override.GradSupCG.gamma0=inf",
    "svg=true",
    "lam=0",
    "lam=0 algorithms=AFBS:ReversedTV",
    "lam=0 algorithms=ProxCSupLW",
])
def test_cli_invalid_algorithm_config_exits_2(assignment, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(_tiny_run(out, "max_outer=1",
                          "algorithms=GradSupCG, AFBS:NaturalLS",
                          *assignment.split())) == 2
    assert "configuration error:" in capsys.readouterr().err
    # every config is checked before the output directory is made
    assert not out.exists()


def test_cli_tau_with_a_nonzero_square_runs(tmp_path):
    # 1e-160 ** 2 is a normal double; 1e-320 ** 2 underflows and exits 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(_tiny_run(tmp_path, "max_outer=3", "tau=1e-160",
                              "algorithms=GradSupCG, AFBS:NaturalLS, "
                              "FBS:ReversedTV")) == 0
    rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [
        "GradSupCG", "AFBS:NaturalLS", "FBS:ReversedTV"]


def test_cli_lam_zero_runs_a_variant_with_a_fixed_gamma0(tmp_path):
    assert main(_tiny_run(tmp_path, "max_outer=3", "algorithms=GradSupCG",
                          "lam=0")) == 0
    assert (tmp_path / "GradSupCG.csv").exists()


def test_cli_diverging_run_exits_3(tmp_path, capsys):
    # the iterate stays finite, but ||Ax - b||^2 overflows; no numpy
    # warning precedes the failure line, the records before the failure
    # and a "diverged" summary row are written, and the next run goes on
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(_tiny_run(tmp_path, "max_outer=50",
                              "algorithms=FBS:ReversedTV, GradSupCG",
                              "override.FBS:ReversedTV.alpha=1e6"))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: FBS:ReversedTV: non-finite "
                          "metric residual_scaled, k=")
    assert err.count("\n") == 1
    k = int(err.rsplit("k=", 1)[1])
    rows = (tmp_path / "FBS_ReversedTV.csv").read_text().splitlines()
    assert [int(row.split(",")[0]) for row in rows[1:]] == list(range(k))
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    last = rows[-1].split(",")
    assert summary[1].split(",") == ["FBS:ReversedTV", str(k - 1),
                                     "diverged", *last[1:4], last[5]]
    assert summary[2].startswith("GradSupCG,")
    assert (tmp_path / "GradSupCG.csv").exists()


def test_cli_overflowing_reduced_system_exits_3(tmp_path, capsys):
    # alpha A A^T overflows in the first ExactSMW step: the run fails as a
    # diverging one does, with x_0's record kept, and the next run goes on
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow
        code = main(_tiny_run(tmp_path, "algorithms=AFBS:NaturalLS, GradSupCG",
                              "override.AFBS:NaturalLS.alpha=1e308"))
    assert code == 3
    assert capsys.readouterr().err == (
        "numerical failure: AFBS:NaturalLS: non-finite reduced system, "
        "k=1\n")
    rows = (tmp_path / "AFBS_NaturalLS.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["0"]
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    last = rows[1].split(",")
    assert summary[1].split(",") == ["AFBS:NaturalLS", "0", "diverged",
                                     *last[1:4], last[5]]
    assert summary[2].startswith("GradSupCG,")
    assert (tmp_path / "GradSupCG.csv").exists()


def test_run_outer_passes_on_a_step_dimension_mismatch():
    # only a non-finite reduced system becomes a numerical failure
    A = SparseOperator(np.eye(4))

    def step(k, x):
        return shifted_gram_solve(A, 1.0, 1.0, np.ones(5)), 0, None, None

    with pytest.raises(DimensionMismatchError):
        metrics.run_outer(step, np.zeros(4), ProblemInstance(
            A, np.ones(4), GridShape(2, 2), SmoothedTVParams()),
            "opt_u", 0.0, 2)


def test_cli_run_diverging_at_its_first_record_exits_3(tmp_path, capsys):
    # ||b||^2 overflows, so already the x_0 record is non-finite: a
    # header-only CSV and a "diverged" row without metrics, then exit 3
    code = main(_tiny_run(tmp_path, "noise_level=1e300",
                          "algorithms=GradSupLW"))
    assert code == 3
    assert capsys.readouterr().err == (
        "numerical failure: GradSupLW: non-finite metric residual_scaled, "
        "k=0\n")
    assert (tmp_path / "GradSupLW.csv").read_text() == \
        ",".join(FIELD_NAMES) + "\n"
    assert (tmp_path / "summary.csv").read_text().splitlines()[1] == \
        "GradSupLW,0,diverged,,,,"


def _python(*args):
    """A fresh interpreter with this checkout's `src` on the import path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_package_import_loads_every_submodule_but_harness():
    # bench/spans.py wraps functions in the submodules that `import
    # supopt` loads; the experiment runner loads where it is imported
    proc = _python("-c", "import sys, supopt; print(*sorted(m for m in "
                   "sys.modules if m.startswith('supopt.')), "
                   "'scipy.io' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    *loaded, io_loaded = proc.stdout.split()
    assert io_loaded == "False"
    assert loaded == [
        f"supopt.{name}" for name in ("basic", "fbs", "metrics", "opslin",
                                      "regtv", "superior", "tomo")]


def test_runs_that_never_factor_leave_lapack_unloaded():
    # scipy.linalg costs about 8 MB resident; only the reduced-system
    # factorization (ExactSMW, PDBasic) loads it. A fresh interpreter,
    # since this suite's other modules import scipy.linalg themselves
    script = """
import sys
import supopt
from supopt.harness import ExperimentConfig, build_problem, run_algorithm
print("scipy.linalg" in sys.modules)
config = ExperimentConfig(image_side=8, n_angles=2, n_rays=8, max_outer=2)
problem = build_problem(config)
for name in ("GradSupCG", "ProxCSupLW", "AFBS:NaturalLS:PDNoInv:nonneg",
             "FBS:ReversedTV"):
    run_algorithm(name, problem, config)
print("scipy.linalg" in sys.modules)
run_algorithm("AFBS:NaturalLS", problem, config)
print("scipy.linalg" in sys.modules)
"""
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True"]


def test_package_entry_point_runs_cli(tmp_path):
    proc = _python("-m", "supopt", "run", "--config",
                   str(tmp_path / "missing.cfg"))
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_load_config_set_overrides_file(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("image_side = 16\nmax_outer = 7\n")
    cfg = load_config(cfg_path, ["max_outer=9"])
    assert cfg.image_side == 16 and cfg.max_outer == 9


def test_cli_noise_level_alone_selects_noisy_data_and_defaults(tmp_path):
    # noise_level > 0 is the whole noisy setting: the data, lam = 1.6529
    # (here through ProxCSupLW's step-coupled gamma0) and eps = 0.047 m
    cfg = load_config(None, ["noise_level=0.05", "n_angles=2", "n_rays=8"])
    assert cfg.resolved_lam() == 1.6529
    assert cfg.resolved_eps() == pytest.approx(0.047 * 16)
    assert main(_tiny_run(tmp_path, "noise_level=0.05", "max_outer=3",
                          "algorithms=ProxCSupLW")) == 0
    A = tomo.build_parallel_system(tomo.Geometry(8, 2, 8))
    x_ref = tomo.shepp_logan(8)
    b = tomo.add_noise(A.apply_nocount(x_ref), tomo.NoiseModel(0.05))
    res = superiorize_run(
        SupConfig("ProxCSupLW", eps=0.047 * 16, max_outer=3),
        ProblemInstance(A, b, GridShape(8, 8),
                        SmoothedTVParams(tau=0.01, lam=1.6529), x_ref))
    emit_csv([replace(rec, wall_time=0.0) for rec in res.records],
             tmp_path / "noisy.csv")
    assert (tmp_path / "ProxCSupLW.csv").read_bytes() == \
        (tmp_path / "noisy.csv").read_bytes()


@pytest.mark.parametrize("setting", ["exact", "noisy"])
def test_paper_configs_run_every_algorithm(setting, tmp_path):
    path = Path(__file__).resolve().parents[1] / "configs" / \
        f"paper_{setting}.cfg"
    config = load_config(path)
    assert tuple(config.algorithms) == csv_identity.ALGORITHMS
    assert (config.noise_level > 0) == (setting == "noisy")
    assert main(["run", "--config", str(path), "--out", str(tmp_path),
                 "--set", "image_side=12", "--set", "n_angles=4", "--set",
                 "n_rays=12", "--set", "max_outer=3"]) == 0
    written = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert written == sorted([f"{name.replace(':', '_')}.csv"
                              for name in csv_identity.ALGORITHMS]
                             + ["summary.csv"])


def test_noisy_problem_residual_at_truth():
    cfg = small_config(noise_level=0.02, noise_seed=1)
    problem = build_problem(cfg)
    # the ground truth no longer fits the noisy data exactly
    assert g_u(problem.A, problem.b, problem.x_ref) > 0.0
