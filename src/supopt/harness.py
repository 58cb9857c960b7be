"""Experiment runner: configuration, metrics output, and the CLI.

Configuration files are flat `key = value` text; `#` starts a comment.
Per-algorithm parameter overrides use dotted keys,
e.g. `override.GradSupCG.gamma0 = 0.002`. CSV files are the
authoritative output; SVG plots are optional and self-contained.
"""

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import fbs, superior, tomo
from .metrics import FIELD_NAMES, MetricsRecord, NumericalDivergenceError
from .opslin import save_matrix_market
from .regtv import GridShape, SmoothedTVParams, tv_smooth

# per-variant defaults: (a, gamma0, kappa); gamma0 = None means the
# step-coupled value 1.9 * lambda / ||A||_2^2 resolved at run time
TUNED_PARAMS = {
    "GradSupCG": (1.0 - 1e-4, 0.001, 20),
    "GradSupLW": (1.0 - 1e-4, 0.0025, 20),
    "GradSupProjLW": (1.0 - 1e-4, 0.0025, 20),
    "ProxSupCG": (1.0 - 1e-6, 0.001, 1),
    "ProxSupLW": (1.0 - 1e-6, 0.001, 1),
    "ProxCSupCG": (1.0 - 1e-6, None, 1),
    "ProxCSupLW": (1.0 - 1e-6, None, 1),
    "ProxSupProjLW": (1.0 - 1e-6, None, 1),
}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ProblemInstance:
    A: object
    b: np.ndarray
    shape: GridShape
    tvparams: SmoothedTVParams
    x_ref: np.ndarray = None


@dataclass
class ExperimentConfig:
    image_side: int = 128
    n_angles: int = 20
    n_rays: int = 120
    noisy: bool = False
    noise_level: float = 0.02
    noise_seed: int = 0
    lam: float = None      # default 0.01 exact data, 1.6529 noisy
    tau: float = 0.01
    eps: float = None      # default 0.001 exact data, 0.047*m noisy
    algorithms: list = field(default_factory=lambda: ["GradSupCG"])
    overrides: dict = field(default_factory=dict)
    max_outer: int = 2000
    output_dir: str = "out"
    svg: bool = False
    record_wall_time: bool = False

    def resolved_lam(self):
        if self.lam is not None:
            return self.lam
        return 1.6529 if self.noisy else 0.01

    def resolved_eps(self):
        if self.eps is not None:
            return self.eps
        m = self.n_angles * self.n_rays
        return 0.047 * m if self.noisy else 0.001


def build_problem(config):
    """Assemble operator, data (with optional noise) and ground truth."""
    geom = tomo.Geometry(config.image_side, config.n_angles, config.n_rays)
    A = tomo.build_parallel_system(geom)
    x_ref = tomo.shepp_logan(config.image_side)
    b = A.apply_nocount(x_ref)
    if config.noisy:
        b = tomo.add_noise(b, tomo.NoiseModel(config.noise_level,
                                              config.noise_seed))
    shape = GridShape(config.image_side, config.image_side)
    tvparams = SmoothedTVParams(tau=config.tau, lam=config.resolved_lam())
    return ProblemInstance(A=A, b=b, shape=shape, tvparams=tvparams,
                           x_ref=x_ref)


# -- CSV / SVG output --------------------------------------------------------

_INT_FIELDS = ("k", "inner_iters", "cumulative_matvecs")


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


def load_csv(path):
    """Read back a CSV written by emit_csv."""
    lines = Path(path).read_text().strip().split("\n")
    names = lines[0].split(",")
    if tuple(names) != FIELD_NAMES:
        raise ConfigError(f"unexpected CSV header in {path}")
    records = []
    for line in lines[1:]:
        vals = line.split(",")
        kwargs = {n: (int(v) if n in _INT_FIELDS else float(v))
                  for n, v in zip(names, vals)}
        records.append(MetricsRecord(**kwargs))
    return records


def emit_svg(records, path, refs=None):
    """Self-contained SVG line plot of the three scaled metric curves.

    The y axis is log10 of each value, floored at 1e-16. refs maps a
    metric name to a horizontal dashed reference value.
    """
    width, height, mg = 640, 480, 50
    series = {"residual_scaled": "#1f6fb4", "tv_scaled": "#c23b22",
              "err_scaled": "#2a8a2a"}
    refs = refs or {}
    floor = 1e-16

    def ty(v):
        return math.log10(max(v, floor))

    ks = [r.k for r in records] or [0]
    vals = []
    for name in series:
        vals.extend(ty(getattr(r, name)) for r in records)
    vals.extend(ty(v) for v in refs.values())
    lo = min(vals) if vals else 0.0
    hi = max(vals) if vals else 1.0
    if hi <= lo:
        hi = lo + 1.0
    kmax = max(max(ks), 1)

    def px(k):
        return mg + (width - 2 * mg) * k / kmax

    def py(v):
        return height - mg - (height - 2 * mg) * (ty(v) - lo) / (hi - lo)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">',
             f'<rect x="{mg}" y="{mg}" width="{width - 2 * mg}" '
             f'height="{height - 2 * mg}" fill="none" stroke="black"/>']
    for name, color in series.items():
        pts = " ".join(f"{px(r.k):.2f},{py(getattr(r, name)):.2f}"
                       for r in records)
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        if name in refs:
            y = py(refs[name])
            parts.append(f'<line x1="{mg}" y1="{y:.2f}" x2="{width - mg}" '
                         f'y2="{y:.2f}" stroke="{color}" '
                         f'stroke-dasharray="6,4"/>')
    legend_y = mg + 14
    for name, color in series.items():
        parts.append(f'<text x="{mg + 8}" y="{legend_y}" fill="{color}" '
                     f'font-size="12" font-family="sans-serif">{name}</text>')
        legend_y += 14
    parts.append(f'<text x="{width // 2}" y="{height - 12}" font-size="12" '
                 f'font-family="sans-serif">outer iteration k</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


# -- algorithm dispatch ------------------------------------------------------


def _sup_config(name, problem, config, overrides):
    a, gamma0, kappa = TUNED_PARAMS[name]
    if gamma0 is None:
        gamma0 = 1.9 * problem.tvparams.lam / problem.A.norm_sq
    params = {"a": a, "gamma0": gamma0, "kappa": kappa,
              "eps": config.resolved_eps(), "max_outer": config.max_outer}
    params.update(overrides)
    return superior.SupConfig(variant=name, **params)


def _parse_fbs_spec(name):
    """Parse '[A]FBS:<NaturalLS|ReversedTV>[:<inner>][:nonneg]'."""
    head, *parts = name.split(":")
    nonneg = parts[-1:] == ["nonneg"]
    parts = parts[:len(parts) - nonneg]
    if head not in ("FBS", "AFBS") or not 1 <= len(parts) <= 2:
        raise ConfigError(f"unknown algorithm {name!r}")
    kind = parts[0]
    default = "TVProx" if kind == "ReversedTV" else "ExactSMW"
    inner = parts[1] if len(parts) == 2 else default
    return head == "AFBS", fbs.Splitting(kind=kind, nonneg=nonneg), inner


def _override_fields(name):
    """{name: field} of algorithm `name`'s config class, less those fixed."""
    if name in superior.VARIANTS:
        cls, fixed = superior.SupConfig, ("variant",)
    else:
        _parse_fbs_spec(name)  # ConfigError for an unknown name
        cls, fixed = fbs.AFBSConfig, ("inner", "accelerated")
    return {f.name: f for f in dataclasses.fields(cls) if f.name not in fixed}


def _configured_run(name, problem, config):
    """Algorithm `name`'s runner with its config bound, or ConfigError."""
    overrides = config.overrides.get(name, {})
    try:
        if name in superior.VARIANTS:
            return partial(superior.superiorize_run,
                           _sup_config(name, problem, config, overrides))
        accelerated, splitting, inner = _parse_fbs_spec(name)
        fbs._check_inner(splitting, inner)
        return partial(fbs.afbs_run, splitting, fbs.AFBSConfig(**{
            "accelerated": accelerated, "inner": inner,
            "max_outer": config.max_outer, **overrides}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def run_algorithm(name, problem, config):
    """Run one named algorithm on the problem; returns (x, records, info).

    A config that the algorithm rejects raises ConfigError before the run.
    """
    run = _configured_run(name, problem, config)
    problem.A.reset_matvec_count()
    res = run(problem.A, problem.b, problem.shape, problem.tvparams,
              x_ref=problem.x_ref, record_wall_time=config.record_wall_time)
    info = {"converged": res.converged, "iterations": res.iterations,
            "fallback_count": res.fallback_count,
            "total_inner": res.total_inner}
    return res.x, res.records, info


def run_experiment(config):
    """Run every configured algorithm; write per-algorithm and summary CSVs.

    Every config is checked before anything is written. Returns
    {algorithm name: (x_final, records, info)}.
    """
    problem = build_problem(config)
    for name in config.algorithms:
        _configured_run(name, problem, config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = problem.shape.n
    m = problem.A.n_rows
    r_ref = problem.A.apply_nocount(problem.x_ref) - problem.b
    refs = {"residual_scaled": float(r_ref @ r_ref) / (2.0 * m),
            "tv_scaled": tv_smooth(problem.shape, problem.tvparams,
                                   problem.x_ref) / n}
    results = {}
    summary = ["algorithm,iterations,converged,final_residual_scaled,"
               "final_tv_scaled,final_err_scaled,cumulative_matvecs"]
    for name in config.algorithms:
        x, records, info = run_algorithm(name, problem, config)
        results[name] = (x, records, info)
        stem = name.replace(":", "_")
        emit_csv(records, out / f"{stem}.csv")
        if config.svg:
            emit_svg(records, out / f"{stem}.svg", refs=refs)
        last = records[-1]
        summary.append(",".join([
            name, str(info["iterations"]), str(info["converged"]),
            _fmt("residual_scaled", last.residual_scaled),
            _fmt("tv_scaled", last.tv_scaled),
            _fmt("err_scaled", last.err_scaled),
            str(last.cumulative_matvecs)]))
    (out / "summary.csv").write_text("\n".join(summary) + "\n")
    return results


# -- configuration parsing ---------------------------------------------------

_BOOL = {"true": True, "1": True, "yes": True,
         "false": False, "0": False, "no": False}


def _coerce(field_obj, raw):
    t = field_obj.type
    if t is bool:
        if raw.lower() not in _BOOL:
            raise ConfigError(f"bad boolean {raw!r} for {field_obj.name}")
        return _BOOL[raw.lower()]
    if t is int:
        return int(raw)
    if t is float:
        # "none" picks the default resolved at run time, where there is one
        none = raw.lower() == "none" and field_obj.default is None
        return None if none else float(raw)
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


def _cmd_generate(args):
    config = load_config(args.config, args.set or [])
    out = Path(args.out or config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem = build_problem(config)
    side = config.image_side
    tomo.save_flat_binary(out / "phantom.bin", problem.x_ref, (side, side))
    tomo.save_pgm(out / "phantom.pgm", problem.x_ref, (side, side))
    save_matrix_market(out / "system", problem.A)
    tomo.save_flat_binary(out / "sinogram.bin", problem.b,
                          (config.n_angles, config.n_rays))
    print(f"wrote phantom, system matrix and sinogram to {out}")
    return 0


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


def _cmd_sweep(args):
    config = load_config(args.config, args.set or [])
    base_out = Path(args.out or config.output_dir)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    summary = ["value,algorithm,iterations,final_residual_scaled,"
               "final_err_scaled"]
    for value in values:
        sub = load_config(args.config, list(args.set or []))
        parse_config_text(f"{args.key} = {value}", sub)
        sub.output_dir = str(base_out / f"{args.key.split('.')[-1]}_{value}")
        results = run_experiment(sub)
        for name, (_, records, info) in results.items():
            last = records[-1]
            summary.append(",".join([
                value, name, str(info["iterations"]),
                _fmt("residual_scaled", last.residual_scaled),
                _fmt("err_scaled", last.err_scaled)]))
    base_out.mkdir(parents=True, exist_ok=True)
    (base_out / "sweep.csv").write_text("\n".join(summary) + "\n")
    print(f"wrote {base_out / 'sweep.csv'}")
    return 0


def _cmd_compare(args):
    rows = ["file,k_final,residual_scaled,tv_scaled,err_scaled,"
            "cumulative_matvecs"]
    for path in args.csv:
        records = load_csv(path)
        last = records[-1]
        rows.append(",".join([
            Path(path).name, str(last.k),
            _fmt("residual_scaled", last.residual_scaled),
            _fmt("tv_scaled", last.tv_scaled),
            _fmt("err_scaled", last.err_scaled),
            str(last.cumulative_matvecs)]))
    table = "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).write_text(table)
    print(table, end="")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="supopt",
        description="Superiorization and forward-backward splitting "
                    "benchmark harness for TV-regularized tomographic "
                    "reconstruction.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("generate",
                       help="write phantom, system matrix and sinogram")
    common(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run the configured algorithms")
    common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="grid over one config key")
    common(p)
    p.add_argument("--key", required=True,
                   help="config key to sweep, e.g. "
                        "override.AFBS:NaturalLS:PDNoInv.inexact_q")
    p.add_argument("--values", required=True,
                   help="comma-separated values")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare", help="summarize metric CSVs")
    p.add_argument("csv", nargs="+", help="metric CSV files")
    p.add_argument("--out", help="write the table here as well")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalDivergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def cli_main():
    sys.exit(main())


if __name__ == "__main__":
    cli_main()
