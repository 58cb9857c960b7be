"""Layer timings of the TV prox on the paper's instance.

Usage:

    python3 scripts/tv_prox_layers.py CHECKOUT

Imports `supopt` from CHECKOUT/src, builds the 128², 20-angle, 120-ray
exact-data instance with the default `tau` and `lam`, and records the
inputs of every TV prox call in two runs of that checkout:

- `sup_proxc`: the first OUTER outer steps of `ProxCSupLW`, the
  `sup_proxc` workload's algorithm (nonneg, beta = gamma0 * a^(k-1)
  with gamma0 = 1.9 lam / ||A||^2, about 8e-6);
- `reversed_tv`: the first OUTER outer steps of `AFBS:ReversedTV:nonneg`
  (nonneg, beta = lam / ||A||^2, about 4e-6).

It then replays each regime's calls REPEATS times and prints one JSON
object with, per regime, the median over the repeats of the
milliseconds per prox call (`<regime>_ms`), and the steps and TV
gradients per call (`<regime>_steps`, `<regime>_grads`) with the `beta`
of the first call. Seconds are raw wall time on one BLAS thread.
"""

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

OUTER = 50
REPEATS = 5
REGIMES = {"sup_proxc": "ProxCSupLW", "reversed_tv": "AFBS:ReversedTV:nonneg"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(args.checkout.resolve() / "src"))

    from supopt import fbs, harness, regtv

    config = harness.ExperimentConfig(max_outer=OUTER)
    problem = harness.build_problem(config)
    prox = regtv.prox_tv_with_info
    out = {}
    for regime, algorithm in REGIMES.items():
        calls = []

        def recorded(*a, **kw):
            calls.append((a, kw))
            return prox(*a, **kw)

        # superior reaches the prox through regtv, fbs through its own name
        regtv.prox_tv_with_info = fbs.prox_tv_with_info = recorded
        try:
            harness.run_algorithm(algorithm, problem, config)
        finally:
            regtv.prox_tv_with_info = fbs.prox_tv_with_info = prox
        per_call, steps, grads = [], 0, 0
        for _ in range(REPEATS):
            start = time.perf_counter()
            results = [prox(*a, **kw) for a, kw in calls]
            per_call.append((time.perf_counter() - start) / len(calls))
            steps = sum(r[1] for r in results)
            grads = sum(r[2] for r in results)
        out.update({
            f"{regime}_calls": len(calls),
            f"{regime}_beta": calls[0][0][3],  # both callers pass it 4th
            f"{regime}_ms": 1e3 * statistics.median(per_call),
            f"{regime}_steps": steps / len(calls),
            f"{regime}_grads": grads / len(calls),
        })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
