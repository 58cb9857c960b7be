"""Measurement loops, metrics and the result record of the benchmark.

Imported by run.py after it has pinned BLAS to one thread.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import spans
import workloads as wl
from speed import Probe

MIN_SETUPS = 9      # set-ups per run; setup_s is their median
MIN_COVERAGE = 0.9  # share of run_algorithm that named spans must cover

# metric name -> unit; BENCHMARK.json gives each one's better direction
END_TO_END = {
    "setup_s": "s", "solve_s": "s", "solve_cpu_s": "s",
    "outer_iters": "count", "matvecs_charged": "count",
    "final_err_scaled": "scaled", "final_residual_scaled": "scaled",
    "peak_rss_mb": "MB",
}
PER_LAYER = {f"{name}.{field}": unit for name in spans.SPANS
             for field, unit in (("calls", "count"), ("self_s", "s"),
                                 ("total_s", "s"))}
PER_LAYER.update({
    "opslin.spmv.charged_ratio": "ratio",
    "opslin.spmv.flops_computed": "flop",
    "opslin.spmv.bytes_computed": "B",
    "opslin.gram_solve.first_ms": "ms",
    "regtv.prox.iters": "count", "regtv.prox.evals": "count",
    "regtv.prox.budget_hits": "count",
    "superior.s_grad.trials": "count", "superior.s_grad.accept_ratio": "ratio",
    "fbs.cert.accepted": "count", "fbs.cert.fallback": "count",
    "fbs.cert.accept_ratio": "ratio",
    "fbs.inner_per_outer": "ratio", "inner_iters": "count",
    "trace.overhead_ratio": "ratio", "trace.coverage": "ratio",
})


def _ratio(num, den):
    return num / den if den else 0.0


class Run:
    """Attempt/failure bookkeeping shared by both kinds of run."""

    def __init__(self, workload, size, config):
        self.workload, self.size, self.config = workload, size, config
        self.attempted = self.failed = 0
        self.setups = []     # one Probe per instance built
        self.figures = None  # kernel_figures of the first instance

    def build(self, offset):
        with Probe() as timing:
            problem = wl.build_instance(self.size, offset, self.config)
        self.setups.append(timing)
        if self.figures is None:
            self.figures = kernel_figures(problem.A)
        return problem

    def solve_checked(self, problem):
        """Solve and check; returns the result, or None if it failed."""
        self.attempted += 1
        try:
            result = wl.solve(self.workload, problem, self.config)
        except Exception as exc:  # a raising solve counts as failed
            self.fail(f"solve raised {type(exc).__name__}: {exc}")
            return None
        problems = wl.check(self.workload, problem, result)
        if problems:
            self.fail("; ".join(problems))
            return None
        return result

    def fail(self, message):
        self.failed += 1
        print(f"check failed: {message}", file=sys.stderr)


def measure(run, offsets, seconds):
    """Untraced closed loop: whole passes over the batch of instances.

    Every solve gets a freshly built instance, so each one pays what a
    user's first solve pays (the factorization cache lives on the
    operator). Passes repeat while another one fits in `seconds`.
    Returns the end-to-end metrics and the raw timings. A timing is
    taken at the reference speed of speed.Probe and is the median over
    the passes for each instance; every metric is then the mean over the
    instances, the stratified estimate of its average over rotations,
    which varies far less from seed to seed than their median.
    """
    per_instance = [[] for _ in offsets]
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for samples, offset in zip(per_instance, offsets):
            problem = None  # release the previous operator and its factor
            problem = run.build(offset)
            result = run.solve_checked(problem)
            if result is None:
                continue
            if samples and samples[-1].x.tobytes() != result.x.tobytes():
                run.fail("repeated solve of one instance is not bitwise equal")
            samples.append(result)
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - pass_start) > seconds:
            break
    while len(run.setups) < MIN_SETUPS:
        run.build(offsets[0])
    if not all(per_instance):
        return {}, {}
    last = [samples[-1] for samples in per_instance]
    mean, median = statistics.fmean, statistics.median

    def timing(field, probes):
        return median(getattr(p, field) for p in probes)

    solves = [[r.timing for r in samples] for samples in per_instance]
    raw = {"setup_s": timing("wall_s", run.setups),
           "solve_s": mean(timing("wall_s", p) for p in solves),
           "solve_cpu_s": mean(timing("cpu_s", p) for p in solves),
           "speed_factor": median(p.factor for p in run.setups
                                  + sum(solves, []))}
    return {
        "setup_s": timing("ref_wall_s", run.setups),
        "solve_s": mean(timing("ref_wall_s", p) for p in solves),
        "solve_cpu_s": mean(timing("ref_cpu_s", p) for p in solves),
        "outer_iters": mean(r.info["iterations"] for r in last),
        "matvecs_charged": mean(r.records[-1].cumulative_matvecs
                                for r in last),
        "final_err_scaled": mean(r.records[-1].err_scaled for r in last),
        "final_residual_scaled": mean(r.records[-1].residual_scaled
                                      for r in last),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }, raw


def traced(run, offset):
    """One untraced and one traced solve of the same instance.

    Returns the per-layer metrics of the traced solve after the tracer
    self-check: its charged products equal the program's own count, its
    iterate is bitwise equal to the untraced one, and named spans cover
    at least MIN_COVERAGE of run_algorithm.
    """
    plain = run.solve_checked(run.build(offset))
    tracer = spans.Tracer()
    run.attempted += 1
    try:
        with tracer.installed():
            problem = run.build(offset)
            result = wl.solve(run.workload, problem, run.config)
    except Exception as exc:  # a raising solve counts as failed
        run.fail(f"traced solve raised {type(exc).__name__}: {exc}")
        return {}
    problems = wl.check(run.workload, problem, result)
    if problems:
        run.fail("; ".join(problems))
    sp = tracer.spans
    charged = result.records[-1].cumulative_matvecs
    if sp["opslin.spmv"].calls != charged:
        run.fail(f"traced charged products {sp['opslin.spmv'].calls} != "
                 f"cumulative_matvecs {charged}")
    if plain is None or plain.x.tobytes() != result.x.tobytes():
        run.fail("traced iterate is not bitwise equal to the untraced one")
    if tracer.coverage() < MIN_COVERAGE:
        run.fail(f"named spans cover {tracer.coverage():.3f} of "
                 f"{spans.ROOT_SPAN}, below {MIN_COVERAGE}")

    metrics = {}
    for name, span in sp.items():
        metrics[f"{name}.calls"] = span.calls
        metrics[f"{name}.self_s"] = span.self_s
        metrics[f"{name}.total_s"] = span.total_s
    counts = tracer.counts
    products = sp["opslin.spmv"].calls
    outer = result.info["iterations"]
    inner = sum(r.inner_iters for r in result.records)
    metrics.update({
        "opslin.spmv.charged_ratio": _ratio(
            products, products + sp["opslin.spmv_diag"].calls),
        "opslin.spmv.flops_computed":
            run.figures["spmv_flops_per_product"] * products,
        "opslin.spmv.bytes_computed":
            run.figures["spmv_bytes_per_product"] * products,
        "opslin.gram_solve.first_ms":
            1e3 * tracer.first_s.get("opslin.gram_solve", 0.0),
        "regtv.prox.iters": counts["regtv.prox.iters"],
        "regtv.prox.evals": counts["regtv.prox.evals"],
        "regtv.prox.budget_hits": counts["regtv.prox.budget_hits"],
        "superior.s_grad.trials": counts["superior.s_grad.trials"],
        "superior.s_grad.accept_ratio": _ratio(
            counts["superior.s_grad.commits"],
            counts["superior.s_grad.trials"]),
        "fbs.cert.accepted": counts["fbs.cert.accepted"],
        "fbs.cert.fallback": counts["fbs.cert.fallback"],
        "fbs.cert.accept_ratio": _ratio(counts["fbs.cert.accepted"],
                                        sp["fbs.cert"].calls),
        "fbs.inner_per_outer": _ratio(inner, outer),
        "inner_iters": inner,
        "trace.overhead_ratio": _ratio(
            result.timing.ref_wall_s,
            plain.timing.ref_wall_s if plain else 0.0),
        "trace.coverage": tracer.coverage(),
    })
    return metrics


def _blas_threads():
    """Threads each bundled OpenBLAS reports, keyed by library file."""
    found = {}
    for package in (np, scipy):
        site = Path(package.__file__).parent.parent
        libs = site / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    found[path.name] = getattr(lib, symbol)()
                    break
    return found


def _llc_bytes():
    try:
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                            .glob("index*")):
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                return int(size.rstrip("K")) * 1024
    except (OSError, ValueError):
        pass
    return None


def environment(seed, workload, offsets, figures):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name, "algorithm": workload.algorithm,
        "seed": seed, "angle_offsets_deg": offsets,
        "m": figures["m"], "n": figures["n"], "nnz": figures["nnz"],
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: v for k, v in os.environ.items()
                            if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
    }


def kernel_figures(A):
    """SpMV figures computed from array sizes; none of them is measured."""
    csr = A.tocsr()
    csr_bytes = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
    factor_bytes = 8 * A.n_rows * A.n_rows
    llc = _llc_bytes()
    return {
        "label": "computed from array sizes, not measured",
        "m": A.n_rows, "n": A.n_cols, "nnz": A.nnz,
        "spmv_flops_per_product": 2 * A.nnz,
        # the CSR arrays, one vector read and one written
        "spmv_bytes_per_product": csr_bytes + 8 * (A.n_rows + A.n_cols),
        "csr_bytes": csr_bytes,
        "dense_reduced_factor_bytes": factor_bytes,
        "llc_bytes": llc,
        # both fit in the last-level cache: bytes over time is no
        # bandwidth figure
        "csr_share_of_llc": csr_bytes / llc if llc else None,
        "factor_share_of_llc": factor_bytes / llc if llc else None,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Time-to-tolerance benchmark of supopt. Prints the "
                    "environment record, then one JSON result line.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="repeat whole passes while one more fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--instance", choices=("paper", "tiny"),
                        default="paper",
                        help="tiny (16x16, 4 angles, 16 rays) is for the "
                             "self-test")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    size = wl.PAPER if args.instance == "paper" else wl.TINY
    run = Run(workload, size, wl.experiment_config(workload, size))
    offsets = wl.angle_offsets(args.seed, size, workload.batch)
    raw = {}
    if args.trace:
        metrics = traced(run, offsets[0])
        units = PER_LAYER
    else:
        metrics, raw = measure(run, offsets, args.seconds)
        units = END_TO_END
    record = {"environment": environment(args.seed, workload, offsets,
                                         run.figures),
              "kernel_figures": run.figures, "raw_timings": raw}
    print(json.dumps(record))
    result = {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1
