"""Experiment runner: configuration, metrics output, and the CLI.

Configuration files are flat `key = value` text; `#` starts a comment.
An algorithm name fixes fields of its config class (`SupConfig` or
`AFBSConfig`), which holds the defaults and range checks; overrides
set the other fields through dotted keys,
e.g. `override.GradSupCG.gamma0 = 0.002`. The config class also knows
which fields each name reads, and refuses a set field that its run
would ignore, such as `kappa` on a prox variant; like every config it
rejects, that exits 2 before anything is written. A run writes one
metric CSV per algorithm and `summary.csv`, its only output.
"""

import argparse
import dataclasses
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import fbs, superior, tomo
from .metrics import (FIELD_NAMES, MetricsRecord, NumericalDivergenceError,
                      ProblemInstance)
from .regtv import GridShape, SmoothedTVParams


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    image_side: int = 128
    n_angles: int = 20
    n_rays: int = 120
    noise_level: float = 0.0  # the data are noisy exactly when it is > 0
    noise_seed: int = 0
    lam: float = None      # default 0.01 exact data, 1.6529 noisy
    tau: float = 0.01
    eps: float = None      # default 0.001 exact data, 0.047*m noisy
    algorithms: list = field(default_factory=lambda: ["GradSupCG"])
    overrides: dict = field(default_factory=dict)
    max_outer: int = 2000
    output_dir: str = "out"
    record_wall_time: bool = False

    def resolved_lam(self):
        if self.lam is not None:
            return self.lam
        return 1.6529 if self.noise_level > 0 else 0.01

    def resolved_eps(self):
        if self.eps is not None:
            return self.eps
        m = self.n_angles * self.n_rays
        return 0.047 * m if self.noise_level > 0 else 0.001


def build_problem(config):
    """Operator, data (noisy when noise_level > 0) and ground truth."""
    geom = tomo.Geometry(config.image_side, config.n_angles, config.n_rays)
    A = tomo.build_parallel_system(geom)
    x_ref = tomo.shepp_logan(config.image_side)
    # at noise level 0, add_noise returns a copy of b
    b = tomo.add_noise(A.apply_nocount(x_ref), config.noise_level,
                       config.noise_seed)
    shape = GridShape(config.image_side, config.image_side)
    tvparams = SmoothedTVParams(tau=config.tau, lam=config.resolved_lam())
    return ProblemInstance(A=A, b=b, shape=shape, tvparams=tvparams,
                           x_ref=x_ref)


# -- CSV output --------------------------------------------------------------

_INT_FIELDS = {f.name for f in dataclasses.fields(MetricsRecord)
               if f.type is int}


def _fmt(name, value):
    if name in _INT_FIELDS:
        return str(int(value))
    return np.format_float_scientific(float(value), precision=11)


def emit_csv(records, path):
    """Write metric records as CSV, floats with 12 significant digits."""
    lines = [",".join(FIELD_NAMES)]
    for rec in records:
        lines.append(",".join(_fmt(n, getattr(rec, n)) for n in FIELD_NAMES))
    Path(path).write_text("\n".join(lines) + "\n")


# -- algorithm dispatch ------------------------------------------------------


def _parse_fbs_spec(name):
    """`AFBSConfig` fields fixed by '[A]FBS:<kind>[:<inner>][:nonneg]'."""
    head, *parts = name.split(":")
    nonneg = parts[-1:] == ["nonneg"]
    parts = parts[:len(parts) - nonneg]
    if head not in ("FBS", "AFBS") or not 1 <= len(parts) <= 2:
        raise ConfigError(f"unknown algorithm {name!r}")
    return {"kind": parts[0], "nonneg": nonneg,
            "inner": parts[1] if len(parts) == 2 else None,
            "accelerated": head == "AFBS"}


def _override_fields(name):
    """{name: field} of algorithm `name`'s config class, less those fixed."""
    if name in superior.VARIANTS:
        cls, fixed = superior.SupConfig, ("variant",)
    else:
        cls, fixed = fbs.AFBSConfig, _parse_fbs_spec(name)
        cls(**fixed)  # ValueError for an unknown splitting or inner solver
    return {f.name: f for f in dataclasses.fields(cls) if f.name not in fixed}


def _configured_run(name, config):
    """Algorithm `name`'s runner with its config bound, or ConfigError."""
    params = {"max_outer": config.max_outer,
              **config.overrides.get(name, {})}
    try:
        if name in superior.VARIANTS:
            run, algo = superior.superiorize_run, superior.SupConfig(
                variant=name, **{"eps": config.resolved_eps(), **params})
        else:
            run, algo = fbs.afbs_run, fbs.AFBSConfig(**_parse_fbs_spec(name),
                                                     **params)
        algo.check_lam(config.resolved_lam())
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    return partial(run, algo)


def run_algorithm(name, problem, config):
    """Run one named algorithm on the problem; returns (x, records, info).

    A config that the algorithm rejects raises ConfigError before the run.
    """
    res = _configured_run(name, config)(problem)
    info = {"converged": res.converged, "iterations": res.iterations,
            "fallback_count": res.fallback_count,
            "total_inner": res.total_inner}
    return res.x, res.records, info


def run_experiment(config):
    """Run every configured algorithm; write per-algorithm and summary CSVs.

    Every config is checked before anything is written. A run that
    diverges writes the records it made before the failure, and its
    summary row says "diverged"; if already its x_0 record diverged, the
    CSV has only its header and the row has iterations 0 and empty metric
    cells. The other runs go on, and then the first
    NumericalDivergenceError is raised again, prefixed with the run's
    configured name. Every record holds its seconds since the run's
    start; the CSVs' wall_time column is 0 unless `record_wall_time` is
    set, so by default the outputs are byte-deterministic. Returns
    {algorithm name: (x_final, records, info)}.
    """
    try:
        problem = build_problem(config)
    except ValueError as exc:
        raise ConfigError(f"problem: {exc}") from exc
    if not config.algorithms:
        raise ConfigError("algorithms: need at least one")
    if len(set(config.algorithms)) < len(config.algorithms):
        raise ConfigError("algorithms: each name may appear only once")
    for name in config.overrides:
        if name not in config.algorithms:
            raise ConfigError(f"override.{name}: not in algorithms")
    for name in config.algorithms:
        _configured_run(name, config)
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    results = {}
    failure = None
    summary = ["algorithm,iterations,converged,final_residual_scaled,"
               "final_tv_scaled,final_err_scaled,cumulative_matvecs"]
    for name in config.algorithms:
        try:
            x, records, info = run_algorithm(name, problem, config)
        except NumericalDivergenceError as exc:
            records = exc.records
            failure = failure or NumericalDivergenceError(f"{name}: {exc}",
                                                          records)
            # a run whose x_0 record diverged has no record at all
            info = {"iterations": records[-1].k if records else 0,
                    "converged": "diverged"}
        else:
            results[name] = (x, records, info)
        stem = name.replace(":", "_")
        emit_csv(records if config.record_wall_time else
                 [dataclasses.replace(rec, wall_time=0.0) for rec in records],
                 out / f"{stem}.csv")
        last = records[-1] if records else None
        summary.append(",".join([
            name, str(info["iterations"]), str(info["converged"]),
            *("" if last is None else _fmt(n, getattr(last, n))
              for n in ("residual_scaled", "tv_scaled", "err_scaled",
                        "cumulative_matvecs"))]))
    (out / "summary.csv").write_text("\n".join(summary) + "\n")
    if failure is not None:
        raise failure
    return results


# -- configuration parsing ---------------------------------------------------

_BOOL = {"true": True, "false": False}


def _coerce(field_obj, raw):
    # "none" picks the default resolved at run time, where there is one
    if raw.lower() == "none" and field_obj.default is None:
        return None
    t = field_obj.type
    if t is bool:
        if raw not in _BOOL:
            raise ConfigError(f"bad boolean {raw!r} for {field_obj.name}: "
                              "use true or false")
        return _BOOL[raw]
    if t is int:
        return int(raw)
    if t is float:
        return float(raw)
    if t is list:
        return [s.strip() for s in raw.split(",") if s.strip()]
    return raw


def parse_config_text(text, config=None):
    """Parse flat key=value configuration text into an ExperimentConfig."""
    config = config or ExperimentConfig()
    # overrides are set through override.<algorithm>.<param> keys only
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)
              if f.name != "overrides"}
    for lineno, raw_line in enumerate(text.split("\n"), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, raw = (s.strip() for s in line.split("=", 1))
        algo, name, known = None, key, fields
        if key.startswith("override."):
            algo, _, name = key[len("override."):].rpartition(".")
            try:
                known = _override_fields(algo)
            except ValueError as exc:  # ConfigError too
                raise ConfigError(f"line {lineno}: {key!r} is not "
                                  "override.<algorithm>.<param> with a known "
                                  f"algorithm: {exc}") from None
        if name not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            value = _coerce(known[name], raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
        if algo is None:
            setattr(config, name, value)
        else:
            config.overrides.setdefault(algo, {})[name] = value
    return config


def load_config(path, assignments=()):
    config = ExperimentConfig()
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        parse_config_text(text, config)
    if assignments:
        parse_config_text("\n".join(assignments), config)
    return config


# -- CLI ---------------------------------------------------------------------


def _cmd_run(args):
    config = load_config(args.config, args.set or [])
    if args.out:
        config.output_dir = args.out
    results = run_experiment(config)
    for name, (_, records, info) in results.items():
        last = records[-1]
        print(f"{name}: iterations={info['iterations']} "
              f"converged={info['converged']} "
              f"residual_scaled={last.residual_scaled:.6e}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="supopt",
        description="Superiorization and forward-backward splitting "
                    "benchmark harness for TV-regularized tomographic "
                    "reconstruction.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run the configured algorithms")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=_cmd_run)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalDivergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def cli_main():
    sys.exit(main())
