"""Time-to-tolerance benchmark of supopt on the paper's instance.

Usage, from the root of a checkout:

    python3 bench/run.py --workload afbs_exact --seed 1 --seconds 15 --trace 0

Prints one JSON line with the environment record and the computed SpMV
figures, then the result line. See README.md in this directory.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# One BLAS thread in every workload process, set before numpy loads. On a
# 2-core box next to one other busy process, the default two OpenBLAS
# threads made a 1-D `x @ x` at n = 16384 take 8 ms instead of 6 us, one
# TV prox 904 ms instead of 11.5 ms and the first factorization 3.75 s
# instead of 0.40 s, and results differ in the last bits across thread
# counts: the benchmark would measure the scheduler.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def main(argv=None):
    if not (SRC / "supopt" / "__init__.py").is_file():
        print(f"error: no supopt sources at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import measure

    return measure.main(argv)


if __name__ == "__main__":
    sys.exit(main())
