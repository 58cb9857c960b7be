"""scripts/csv_identity.py: a checkout is identical to itself, and a
differing CSV is reported by column and row."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "csv_identity", ROOT / "scripts" / "csv_identity.py")
csv_identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(csv_identity)


def test_csv_identity_of_the_checkout_with_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "csv_identity.py"),
         str(ROOT), str(ROOT), "--set", "image_side=12", "--set",
         "n_angles=4", "--set", "n_rays=12", "--set", "max_outer=3"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "23 CSVs, 0 differ"
    assert sum(line.endswith(": identical") for line in lines) == 23


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def test_csv_difference_names_columns_and_counts_rows(tmp_path):
    parent = _write(tmp_path / "parent.csv",
                    ["k,inner_iters,err", "0,0,1.0", "1,0,0.5", "2,0,0.25"])
    change = _write(tmp_path / "change.csv",
                    ["k,inner_iters,err", "0,0,1.0", "1,7,0.5", "2,9,0.25"])
    assert csv_identity.csv_difference(parent, change) == (["inner_iters"], 2)
    assert csv_identity.describe(parent, change) == \
        "differs in inner_iters; 2 rows differ"
    assert csv_identity.describe(parent, parent) == "identical"
    assert csv_identity.describe(parent, tmp_path / "none.csv") == \
        "differs (written by one side only)"


def test_csv_difference_counts_missing_rows_and_cells(tmp_path):
    parent = _write(tmp_path / "parent.csv", ["a,b", "1,2", "3,4"])
    change = _write(tmp_path / "change.csv", ["a,b,c", "1,2", "3,5"])
    # the header gains column 3, row 2 changes b; no row is missing
    assert csv_identity.csv_difference(parent, change) == \
        (["b", "column 3"], 1)
    shorter = _write(tmp_path / "shorter.csv", ["a,b", "1,2"])
    assert csv_identity.csv_difference(parent, shorter) == (["a", "b"], 1)
