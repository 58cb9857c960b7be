"""Byte comparison of `supopt run`'s CSVs between two checkouts.

Usage, with two checkouts of the repository:

    python3 scripts/csv_identity.py PARENT CHANGE [--set KEY=VALUE ...]

Runs `python -m supopt run` from each checkout, with its own `src` on
the import path and the BLAS libraries on one thread, on one fixed
config that spells all 22 algorithms: the 8 superiorized variants and
FBS and AFBS on each of the 7 splitting and inner-solver spellings.
`--set` options are passed to both runs after the fixed config, e.g.
`--set image_side=12 --set max_outer=3`. Prints "identical" or
"differs" for every CSV either side wrote, and for a CSV that both sides
wrote and that differs, the header names of the differing columns and
the number of differing rows. Exits 1 on any difference or failed run,
0 otherwise.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
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


def csv_difference(parent, change):
    """Columns and rows in which two CSV files differ.

    Returns (names, rows): the parent's header names of the columns whose
    cells differ on some line, the header line included, and the number
    of data rows that differ. A missing line or cell counts as differing.
    """
    a = parent.read_text().splitlines()
    b = change.read_text().splitlines()
    header = a[0].split(",") if a else []
    columns, rows = set(), 0
    for i, (line_a, line_b) in enumerate(zip_longest(a, b, fillvalue="")):
        if line_a != line_b:
            rows += i > 0
            columns.update(j for j, (x, y) in enumerate(zip_longest(
                line_a.split(","), line_b.split(","))) if x != y)
    names = [header[j] if j < len(header) else f"column {j + 1}"
             for j in sorted(columns)]
    return names, rows


def describe(parent, change):
    """'identical', or 'differs' with what csv_difference finds."""
    if not (parent.is_file() and change.is_file()):
        return "differs (written by one side only)"
    if parent.read_bytes() == change.read_bytes():
        return "identical"
    names, rows = csv_difference(parent, change)
    return f"differs in {', '.join(names) or 'no cell'}; {rows} rows differ"


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
            verdict = describe(*(out / name for out in outs))
            differs += verdict != "identical"
            print(f"{name}: {verdict}")
    print(f"{len(names)} CSVs, {differs} differ"
          + (", a run failed" if failed else ""))
    return 1 if failed or differs or not names else 0


if __name__ == "__main__":
    sys.exit(main())
