import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from supopt import metrics
from supopt.basic import g_u
from supopt.fbs import grad_h_u
from supopt.harness import (ConfigError, ExperimentConfig, _parse_fbs_spec,
                            build_problem, emit_csv, load_config, load_csv,
                            main, parse_config_text, run_algorithm,
                            run_experiment)
from supopt.metrics import FIELD_NAMES, MetricsRecord, make_record


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
    back = load_csv(path)
    assert len(back) == 5
    for a, b in zip(recs, back):
        for name in FIELD_NAMES:
            va, vb = getattr(a, name), getattr(b, name)
            if name in ("k", "inner_iters", "cumulative_matvecs"):
                assert va == vb
            else:
                assert vb == pytest.approx(va, rel=1e-11, abs=0.0) or va == vb


def test_csv_line_counts(tmp_path):
    path = tmp_path / "e.csv"
    emit_csv([], path)
    assert path.read_text() == ",".join(FIELD_NAMES) + "\n"
    emit_csv(make_records(3), path)
    assert len(path.read_text().strip().split("\n")) == 4


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        load_csv(path)


def test_config_defaults_resolve_by_noise():
    cfg = ExperimentConfig()
    assert cfg.resolved_lam() == 0.01
    assert cfg.resolved_eps() == 0.001
    noisy = ExperimentConfig(noisy=True)
    assert noisy.resolved_lam() == 1.6529
    assert noisy.resolved_eps() == pytest.approx(0.047 * 20 * 120)
    pinned = ExperimentConfig(noisy=True, lam=0.5, eps=2.0)
    assert pinned.resolved_lam() == 0.5 and pinned.resolved_eps() == 2.0


def test_parse_config_text_values_and_overrides():
    cfg = parse_config_text("""
        image_side = 16     # comment
        noisy = true
        algorithms = GradSupCG, FBS:ReversedTV
        override.GradSupCG.gamma0 = 0.002
        override.GradSupCG.kappa = 5
    """)
    assert cfg.image_side == 16 and cfg.noisy
    assert cfg.algorithms == ["GradSupCG", "FBS:ReversedTV"]
    assert cfg.overrides["GradSupCG"] == {"gamma0": 0.002, "kappa": 5}
    assert isinstance(cfg.overrides["GradSupCG"]["kappa"], int)


def test_parse_config_text_errors():
    with pytest.raises(ConfigError):
        parse_config_text("no_such_key = 1")
    with pytest.raises(ConfigError):
        parse_config_text("image_side 16")
    with pytest.raises(ConfigError):
        parse_config_text("noisy = maybe")
    with pytest.raises(ConfigError):
        parse_config_text("override.bad = 1")
    # override values are typed by the algorithm's config class
    for text in ("override.AFBS:NaturalLS.bogus = 1",
                 "override.GradSupCG.kappa = 2.5",
                 "override.GradSupCG.gamma0 = none",
                 "override.GradSupCG.max_inner = 5",
                 "override.AFBS:NaturalLS.inner = PDNoInv",
                 "override.NoSuchAlgorithm.kappa = 1",
                 "override.AFBS:Diagonal.alpha = 1",
                 "overrides = 1"):
        with pytest.raises(ConfigError):
            parse_config_text(text)


def test_parse_config_text_override_none_picks_run_time_default():
    cfg = parse_config_text("override.AFBS:NaturalLS.alpha = none\n"
                            "override.AFBS:NaturalLS.warm_start = no")
    assert cfg.overrides["AFBS:NaturalLS"] == {"alpha": None,
                                               "warm_start": False}


def test_parse_fbs_spec():
    acc, sp, inner = _parse_fbs_spec("AFBS:NaturalLS")
    assert acc and sp.kind == "NaturalLS" and not sp.nonneg
    assert inner == "ExactSMW"
    acc, sp, inner = _parse_fbs_spec("FBS:ReversedTV:nonneg")
    assert not acc and sp.nonneg and inner == "TVProx"
    acc, sp, inner = _parse_fbs_spec("AFBS:NaturalLS:PDNoInv:nonneg")
    assert inner == "PDNoInv" and sp.nonneg
    with pytest.raises(ConfigError):
        _parse_fbs_spec("GFBS:NaturalLS")
    with pytest.raises(ConfigError):
        _parse_fbs_spec("FBS")
    # at most one inner solver, and nonneg only last
    for name in ("AFBS:NaturalLS:PDNoInv:bogus",
                 "AFBS:NaturalLS:nonneg:PDNoInv"):
        with pytest.raises(ConfigError):
            _parse_fbs_spec(name)


def test_make_record_stopping_rules():
    problem = build_problem(small_config())
    x = problem.x_ref

    def stopped(x, rule, tol):
        return make_record(0, problem.A, problem.b, x, problem.shape,
                           problem.tvparams, rule, tol)[1]

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

    def spy(k, A, b, x, *args, **kwargs):
        record, stopped = make_record(k, A, b, x, *args, **kwargs)
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
    cfg = small_config(output_dir=str(tmp_path / "a"), svg=True,
                       algorithms=["ProxSupLW", "FBS:ReversedTV"])
    res1 = run_experiment(cfg)
    cfg2 = small_config(output_dir=str(tmp_path / "b"), svg=True,
                        algorithms=["ProxSupLW", "FBS:ReversedTV"])
    run_experiment(cfg2)
    for stem in ("ProxSupLW", "FBS_ReversedTV"):
        a = (tmp_path / "a" / f"{stem}.csv").read_bytes()
        b = (tmp_path / "b" / f"{stem}.csv").read_bytes()
        assert a == b
        assert (tmp_path / "a" / f"{stem}.svg").exists()
    assert (tmp_path / "a" / "summary.csv").read_bytes() == \
        (tmp_path / "b" / "summary.csv").read_bytes()
    # metric consistency: recompute the scaled residual from the final x
    problem = build_problem(cfg)
    for name, (x, records, _) in res1.items():
        r = problem.A.apply_nocount(x) - problem.b
        want = float(r @ r) / (2.0 * problem.A.n_rows)
        assert records[-1].residual_scaled == pytest.approx(want, rel=1e-10)


def test_record_wall_time_changes_only_its_column(tmp_path):
    algorithms = ["ProxSupLW", "AFBS:NaturalLS"]
    wall = FIELD_NAMES.index("wall_time")
    columns = {}
    for on in (False, True):
        out = tmp_path / str(on)
        run_experiment(small_config(output_dir=str(out), max_outer=10,
                                    algorithms=algorithms,
                                    record_wall_time=on))
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


def test_cli_run_and_compare(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "image_side = 16\nn_angles = 4\nn_rays = 16\nmax_outer = 2\n"
        "algorithms = ProxSupLW\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    csv = out / "ProxSupLW.csv"
    assert csv.exists() and (out / "summary.csv").exists()
    assert main(["compare", str(csv)]) == 0
    captured = capsys.readouterr().out
    assert "ProxSupLW.csv" in captured


def test_cli_generate(tmp_path):
    out = tmp_path / "gen"
    rc = main(["generate", "--set", "image_side=16", "--set", "n_angles=4",
               "--set", "n_rays=16", "--out", str(out)])
    assert rc == 0
    for name in ("phantom.bin", "phantom.pgm", "sinogram.bin"):
        assert (out / name).exists()


def test_cli_sweep(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "image_side = 16\nn_angles = 4\nn_rays = 16\nmax_outer = 2\n"
        "algorithms = ProxSupLW\n")
    out = tmp_path / "sw"
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(out),
               "--key", "max_outer", "--values", "1,2"])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 3  # header + one row per value


def test_cli_bad_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("image_side = not_a_number\n")
    assert main(["run", "--config", str(cfg_path)]) == 2
    cfg_path.write_text("bogus_key = 1\n")
    assert main(["run", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize("assignment", [
    "override.AFBS:NaturalLS.bogus=1",
    "override.AFBS:NaturalLS.max_inner=0",
    "override.GradSupCG.kappa=0",
    "override.GradSupCG.kappa=2.5",
    "algorithms=AFBS:ReversedTV:ExactSMW",
    "algorithms=FBS:NaturalLS:PDBasic",
])
def test_cli_invalid_algorithm_config_exits_2(assignment, tmp_path, capsys):
    sets = ["image_side=8", "n_angles=2", "n_rays=8", "max_outer=1",
            "algorithms=GradSupCG, AFBS:NaturalLS", assignment]
    argv = ["run", "--out", str(tmp_path)]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == 2
    assert "configuration error:" in capsys.readouterr().err
    # every config is checked before the first run writes its CSV
    assert not list(tmp_path.glob("*.csv"))


def _python(*args):
    """A fresh interpreter with this checkout's `src` on the import path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _run_module(module, tmp_path):
    return _python("-m", module, "run", "--config",
                   str(tmp_path / "missing.cfg"))


def test_package_import_loads_every_submodule_but_harness():
    # bench/spans.py wraps functions in the submodules that `import
    # supopt` loads; `python -m supopt.harness` needs harness unloaded
    proc = _python("-c", "import sys, supopt; print(*sorted(m for m in "
                   "sys.modules if m.startswith('supopt.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        f"supopt.{name}" for name in ("basic", "fbs", "metrics", "opslin",
                                      "regtv", "superior", "tomo")]


def test_module_entry_point_runs_cli(tmp_path):
    # `python -m supopt.harness` must run the CLI, not import and exit 0,
    # and the package import must not load the module before runpy does
    proc = _run_module("supopt.harness", tmp_path)
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_package_entry_point_runs_cli(tmp_path):
    proc = _run_module("supopt", tmp_path)
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_load_config_set_overrides_file(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("image_side = 16\nmax_outer = 7\n")
    cfg = load_config(cfg_path, ["max_outer=9"])
    assert cfg.image_side == 16 and cfg.max_outer == 9


def test_noisy_problem_residual_at_truth():
    cfg = small_config(noisy=True, noise_level=0.02, noise_seed=1)
    problem = build_problem(cfg)
    # the ground truth no longer fits the noisy data exactly
    assert g_u(problem.A, problem.b, problem.x_ref) > 0.0
