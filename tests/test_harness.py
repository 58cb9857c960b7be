import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from supopt.basic import g_u
from supopt.harness import (ConfigError, ExperimentConfig, _parse_fbs_spec,
                            build_problem, check_termination, emit_csv,
                            load_config, load_csv, main, parse_config_text,
                            run_algorithm, run_experiment)
from supopt.metrics import FIELD_NAMES, MetricsRecord


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


def test_check_termination_modes():
    cfg = small_config()
    problem = build_problem(cfg)
    x = problem.x_ref
    assert check_termination(x, problem, "sup_u", 1e-12)
    assert check_termination(x, problem, "sup_c", 1e-12)
    assert not check_termination(np.zeros_like(x), problem, "sup_u", 1e-12)
    assert not check_termination(x - 1.0, problem, "sup_c", 1e6)
    big = 1e9
    assert check_termination(x, problem, "opt_u", big)
    assert check_termination(x, problem, "opt_c", big)
    with pytest.raises(ConfigError):
        check_termination(x, problem, "nope", 0.1)


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


def _run_module(module, tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, "-m", module, "run", "--config",
         str(tmp_path / "missing.cfg")],
        env=env, capture_output=True, text=True, timeout=120)


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
