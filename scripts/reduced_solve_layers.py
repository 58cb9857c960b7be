"""Layer timings of the dense reduced solve on the paper's operator.

Usage:

    python3 scripts/reduced_solve_layers.py CHECKOUT

Imports `supopt` from CHECKOUT/src, builds the 128², 20-angle, 120-ray
operator (m = 2400) and prints one JSON object with the medians over
REPEATS runs of:

- `factor_s`: one `opslin._woodbury_factor` call;
- `potrf_s`: the `scipy.linalg.cho_factor` call inside it;
- `gram_fill_s`: the rest of it (filling, scaling and shifting M);
- `solve_ms`: one `shifted_gram_solve` call with the factor cached,
  averaged over a batch of calls; it includes the two operator
  products around the reduced solve;
- `spmv_pair_ms`: those two products alone, so that the reduced solve
  itself takes `solve_ms - spmv_pair_ms`.

Seconds are raw wall time on one BLAS thread.
"""

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

REPEATS = 5
SOLVES_PER_BATCH = 100


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    import numpy as np
    import scipy.linalg

    from supopt import opslin, tomo

    A = tomo.build_parallel_system(tomo.Geometry(128, 20, 120))
    rhs = np.random.default_rng(0).standard_normal(A.n_cols)
    ratio = 1.0

    cho_factor = scipy.linalg.cho_factor
    potrf = []

    def timed_cho_factor(*a, **kw):
        start = time.perf_counter()
        out = cho_factor(*a, **kw)
        potrf.append(time.perf_counter() - start)
        return out

    factor, solve, spmv = [], [], []
    scipy.linalg.cho_factor = timed_cho_factor
    try:
        for _ in range(REPEATS):
            start = time.perf_counter()
            opslin._woodbury_factor(A, ratio)
            factor.append(time.perf_counter() - start)
    finally:
        scipy.linalg.cho_factor = cho_factor
    opslin.shifted_gram_solve(A, 1.0, ratio, rhs)
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(SOLVES_PER_BATCH):
            opslin.shifted_gram_solve(A, 1.0, ratio, rhs)
        solve.append((time.perf_counter() - start) / SOLVES_PER_BATCH)
        start = time.perf_counter()
        for _ in range(SOLVES_PER_BATCH):
            A.applyT_nocount(A.apply_nocount(rhs))
        spmv.append((time.perf_counter() - start) / SOLVES_PER_BATCH)

    median = statistics.median
    print(json.dumps({
        "m": A.n_rows, "n": A.n_cols, "nnz": A.nnz,
        "repeats": REPEATS,
        "factor_s": median(factor),
        "potrf_s": median(potrf),
        "gram_fill_s": median(f - p for f, p in zip(factor, potrf)),
        "solve_ms": 1e3 * median(solve),
        "spmv_pair_ms": 1e3 * median(spmv),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
