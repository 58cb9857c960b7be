"""Byte comparison of `supopt run`'s CSVs between two checkouts.

Usage, with two checkouts of the repository:

    python3 scripts/csv_identity.py PARENT CHANGE [--set KEY=VALUE ...]

Runs `python -m supopt run` from each checkout, with its own `src` on
the import path and the BLAS libraries on one thread, on one fixed
config that spells all 22 algorithms: the 8 superiorized variants and
FBS and AFBS on each of the 7 splitting and inner-solver spellings.
`--set` options are passed to both runs after the fixed config, e.g.
`--set image_side=12 --set max_outer=3`. Prints "identical" or
"differs" for every CSV either side wrote and exits 1 on any
difference or failed run, 0 otherwise.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SUPERIORIZED = ("GradSupCG", "GradSupLW", "GradSupProjLW", "ProxSupCG",
                "ProxSupLW", "ProxCSupCG", "ProxCSupLW", "ProxSupProjLW")
SPLITTINGS = ("NaturalLS", "NaturalLS:PDNoInv", "NaturalLS:nonneg",
              "NaturalLS:PDNoInv:nonneg", "NaturalLS:PDBasic:nonneg",
              "ReversedTV", "ReversedTV:nonneg")
ALGORITHMS = SUPERIORIZED + tuple(f"{head}:{spec}" for head in ("FBS", "AFBS")
                                  for spec in SPLITTINGS)
CONFIG = ("image_side=24", "n_angles=6", "n_rays=24", "max_outer=60",
          "algorithms=" + ",".join(ALGORITHMS))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def run_checkout(checkout, out, assignments):
    """`supopt run` from `checkout` into `out`; returns the exit code."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    args = [sys.executable, "-m", "supopt", "run", "--out", str(out)]
    for assignment in CONFIG + tuple(assignments):
        args += ["--set", assignment]
    proc = subprocess.run(args, cwd=checkout, env=env, capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        print(f"{checkout}: exit {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
    return proc.returncode


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare supopt's metric CSVs between two checkouts.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="config assignment for both runs (repeatable)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "parent", Path(tmp) / "change"]
        codes = [run_checkout(checkout.resolve(), out, args.set)
                 for checkout, out in zip((args.parent, args.change), outs)]
        failed = any(codes)
        names = sorted({p.name for out in outs if out.is_dir()
                        for p in out.glob("*.csv")})
        differs = 0
        for name in names:
            paths = [out / name for out in outs]
            same = all(p.is_file() for p in paths) \
                and paths[0].read_bytes() == paths[1].read_bytes()
            differs += not same
            print(f"{name}: {'identical' if same else 'differs'}")
    print(f"{len(names)} CSVs, {differs} differ"
          + (", a run failed" if failed else ""))
    return 1 if failed or differs or not names else 0


if __name__ == "__main__":
    sys.exit(main())
