"""Byte comparison of `supopt run`'s CSVs between two checkouts.

Usage, with two checkouts of the repository:

    python3 scripts/csv_identity.py PARENT CHANGE [--set KEY=VALUE ...]

Runs `python -m supopt run` from each checkout, with its own `src` on
the import path and the BLAS libraries on one thread, on one fixed
config that spells all 22 algorithms: the 8 superiorized variants and
FBS and AFBS on each of the 7 splitting and inner-solver spellings. The
config runs twice, on exact data and with `noise_level=0.02`, into one
directory each. `--set` options are passed to every run after the fixed
config and its noise level, e.g. `--set image_side=12 --set
max_outer=3`. Prints "identical" or "differs" for every CSV either side
wrote, named `exact/...` or `noisy/...`, and for a CSV that both sides
wrote and that differs, the header names of the differing columns and
the number of differing rows, and on the next line the largest relative
change of each differing numeric column; for a differing column whose
cells are integers on both sides, a further line gives the distinct
differences change - parent. Exits 1 on any difference or failed run,
0 otherwise.
"""

import argparse
import math
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
SETTINGS = {"exact": (), "noisy": ("noise_level=0.02",)}
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


def differing_cells(parent, change):
    """The parent's header names and the cells in which two CSVs differ.

    Returns (header, cells), cells being (column, parent cell, change
    cell) for each differing cell of the data rows present in both files
    and in a column the parent's header names.
    """
    a = parent.read_text().splitlines()
    b = change.read_text().splitlines()
    header = a[0].split(",") if a else []
    cells = [(j, x, y) for line_a, line_b in zip(a[1:], b[1:])
             for j, (x, y) in enumerate(zip(line_a.split(","),
                                            line_b.split(",")))
             if x != y and j < len(header)]
    return header, cells


def relative_changes(parent, change):
    """Largest relative change |c - p| / |p| of each differing numeric column.

    Returns {name: change}, in column order, for the columns of
    `differing_cells` whose cells all parse as numbers on both sides; a
    change from 0 is inf. A cell written differently but equal in value,
    as 0.5 and 0.50, changes by 0.
    """
    header, cells = differing_cells(parent, change)
    worst, text = {}, set()
    for j, x, y in cells:
        try:
            p, c = float(x), float(y)
        except ValueError:
            text.add(j)
            continue
        rel = abs(c - p) / abs(p) if p else math.inf
        worst[j] = max(worst.get(j, 0.0), rel)
    return {header[j]: worst[j] for j in sorted(worst) if j not in text}


def integer_changes(parent, change):
    """Distinct differences c - p of each differing integer column.

    Returns {name: sorted differences}, in column order, for the columns
    of `differing_cells` whose cells are all integers on both sides.
    """
    header, cells = differing_cells(parent, change)
    steps, other = {}, set()
    for j, x, y in cells:
        try:
            steps.setdefault(j, set()).add(int(y) - int(x))
        except ValueError:
            other.add(j)
    return {header[j]: sorted(steps[j]) for j in sorted(steps)
            if j not in other}


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
        failed = False
        for setting, noise in SETTINGS.items():
            for checkout, out in zip((args.parent, args.change), outs):
                failed |= run_checkout(checkout.resolve(), out / setting,
                                       noise + tuple(args.set)) != 0
        names = sorted({str(p.relative_to(out)) for out in outs
                        if out.is_dir() for p in out.glob("*/*.csv")})
        differs = 0
        for name in names:
            paths = [out / name for out in outs]
            verdict = describe(*paths)
            differs += verdict != "identical"
            print(f"{name}: {verdict}")
            if not verdict.startswith("differs in"):
                continue
            changes = relative_changes(*paths)
            if changes:
                print("  largest relative change: " + ", ".join(
                    f"{column} {rel:.2e}" for column, rel in changes.items()))
            steps = integer_changes(*paths)
            if steps:
                print("  integer change - parent: " + ", ".join(
                    f"{column} {' '.join(f'{d:+d}' for d in diffs)}"
                    for column, diffs in steps.items()))
    print(f"{len(names)} CSVs, {differs} differ"
          + (", a run failed" if failed else ""))
    return 1 if failed or differs or not names else 0


if __name__ == "__main__":
    sys.exit(main())
