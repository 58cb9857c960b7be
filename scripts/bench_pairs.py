"""Paired parent/change runs of the benchmark, summarised into one JSON file.

Usage, with two checkouts of the repository:

    python3 scripts/bench_pairs.py PARENT CHANGE --name reduced_solve \\
        --change-text "what the change does" \\
        --workloads afbs_exact:10,sup_gradcg:2 --first-seed 1 \\
        [--trace-seeds 1]

Pair i of a workload runs `python3 bench/run.py --workload W --seed S`
(S = first seed + i) from PARENT and from CHANGE, one after the other,
and alternates which side runs first. `--trace-seeds` adds, for every
workload, one traced pair (`--trace 1`) per listed seed and records,
for each side, the median of each per-layer metric over the traced seeds
with its quartiles. The traced pairs are spread evenly among the
workload's untimed pairs (`run_order`), so that a few minutes of host
load do not decide all of them. One traced pair carries that pair's
noise: a layer claim needs at least 3 traced seeds, and a move larger
than the quartile spread.

Writes BENCH_<name>.json in the current directory: the change text, the
method, the environment record of the first run, then per workload the
pair count, for each timing the medians, quartiles and the number of
pairs the change won (lower wins, ties count for neither side), whether
counts and errors were identical, the largest relative difference of
each, the number of failed runs and every run's metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

TIMINGS = ("setup_s", "solve_s", "solve_cpu_s", "peak_rss_mb")
RESULTS = ("outer_iters", "matvecs_charged", "final_err_scaled",
           "final_residual_scaled")
# fields of run.py's environment record that describe one run, not the box
RUN_FIELDS = ("workload", "algorithm", "seed", "angle_offsets_deg")


def run_bench(checkout, workload, seed, trace):
    """One bench/run.py process; returns (environment, metrics, failed)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        print(proc.stderr, file=sys.stderr)
        return None, {}, True
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return (record["environment"], metrics,
            proc.returncode != 0 or not result["correct"])


def sides(checkouts, pair):
    """The two sides of pair `pair`, the parent first on even pairs."""
    order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
    return [(side, checkouts[side]) for side in order]


def run_order(n_pairs, n_traced):
    """The order of a workload's untimed and traced pairs.

    Returns a list of (traced, i), for untimed pair i or traced pair i.
    Untimed pair i sits at (i + 1/2) / n_pairs of the run and traced pair
    j at (j + 1/2) / n_traced; an untimed pair goes first on a tie.
    """
    untimed = [((2 * i + 1) * n_traced, False, i) for i in range(n_pairs)]
    traced = [((2 * j + 1) * n_pairs, True, j) for j in range(n_traced)]
    return [(is_traced, i) for _, is_traced, i in sorted(untimed + traced)]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarise(runs):
    summary = {}
    for name in TIMINGS:
        pairs = [(r["parent"][name], r["change"][name]) for r in runs
                 if name in r["parent"] and name in r["change"]]
        if not pairs:
            continue
        parent, change = [p for p, _ in pairs], [c for _, c in pairs]
        p1, p3 = quartiles(parent)
        c1, c3 = quartiles(change)
        summary[name] = {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_q1": p1, "parent_q3": p3, "parent_iqr": p3 - p1,
            "change_q1": c1, "change_q3": c3,
            "change_wins": sum(c < p for p, c in pairs),
        }
    identical, max_rel = True, {}
    for name in RESULTS:
        diffs = [abs(r["change"][name] - r["parent"][name])
                 / max(abs(r["parent"][name]), 1e-300) for r in runs
                 if name in r["parent"] and name in r["change"]]
        max_rel[name] = max(diffs, default=None)
        identical &= all(d == 0 for d in diffs)
    summary["counts_and_errors_identical_in_every_pair"] = identical
    summary["max_relative_difference"] = max_rel
    return summary


def traced_summary(traced):
    """Per side and per-layer metric: median and quartiles over the seeds."""
    out = {}
    for side in ("parent", "change"):
        out[side] = {}
        for name in sorted(set().union(*(t[side] for t in traced))):
            values = [t[side][name] for t in traced if name in t[side]]
            q1, q3 = quartiles(values)
            out[side][name] = {"median": statistics.median(values),
                               "q1": q1, "q3": q3}
    return out


def parse_workloads(text):
    out = {}
    for item in text.split(","):
        name, _, pairs = item.strip().partition(":")
        out[name] = int(pairs or 10)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Paired parent/change benchmark runs.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--name", required=True,
                        help="writes BENCH_<name>.json")
    parser.add_argument("--change-text", required=True,
                        help="one line: what the change does")
    parser.add_argument("--workloads", required=True, type=parse_workloads,
                        help="comma list of WORKLOAD[:PAIRS], 10 by default")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-seeds", default="",
                        help="comma list of seeds for traced pairs")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    trace_seeds = [int(s) for s in args.trace_seeds.split(",") if s]

    environment, workloads = None, {}
    for workload, n_pairs in args.workloads.items():
        runs, traced, failed = [], [], 0
        for is_traced, pair in run_order(n_pairs, len(trace_seeds)):
            if is_traced:
                metrics = {}
                for side, checkout in sides(checkouts, pair):
                    _, metrics[side], bad = run_bench(
                        checkout, workload, trace_seeds[pair], 1)
                    failed += bad
                traced.append(metrics)
                continue
            seed = args.first_seed + pair
            run = {"pair": pair, "seed": seed,
                   "first": sides(checkouts, pair)[0][0]}
            for side, checkout in sides(checkouts, pair):
                env, metrics, bad = run_bench(checkout, workload, seed, 0)
                failed += bad
                run[side] = metrics
                if environment is None and env is not None:
                    environment = {k: v for k, v in env.items()
                                   if k not in RUN_FIELDS}
            runs.append(run)
            print(f"{workload} pair {pair}: parent "
                  f"{run['parent'].get('solve_s')} change "
                  f"{run['change'].get('solve_s')}", file=sys.stderr)
        entry = {"pairs": n_pairs, "summary": summarise(runs)}
        entry["summary"]["failed_runs"] = failed
        if trace_seeds:
            entry["traced"] = {"seeds": trace_seeds,
                               **traced_summary(traced)}
        entry["runs"] = runs
        workloads[workload] = entry

    out = {
        "change": args.change_text,
        "method": "python3 bench/run.py --workload W --seed S --trace 0, "
                  "run from a checkout of the parent commit and of the "
                  "change, alternating which side runs first; pair i uses "
                  f"seed {args.first_seed} + i on both sides. Timings are "
                  "at the benchmark's reference speed (bench/speed.py); "
                  "the traced per-layer seconds are raw. Written by "
                  "scripts/bench_pairs.py.",
        "environment": environment,
    }
    out["workloads"] = workloads
    path = Path(f"BENCH_{args.name}.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
