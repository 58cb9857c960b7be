"""scripts/csv_identity.py: a checkout is identical to itself, and a
differing CSV is reported by column and row, with the largest relative
change of each differing numeric column and the distinct differences of
each differing integer column."""

import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import pytest

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
    assert lines[-1] == "46 CSVs, 0 differ"
    assert sum(line.endswith(": identical") for line in lines) == 46


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


def test_relative_changes_of_the_differing_numeric_columns(tmp_path):
    parent = _write(tmp_path / "parent.csv",
                    ["k,res,err,tv,status", "0,1.0,2.0,0.0,ok",
                     "1,0.5,0.25,0.0,ok", "2,0.25,4.0,1.0,ok"])
    change = _write(tmp_path / "change.csv",
                    ["k,res,err,tv,status", "0,1.0,2.00,1e-9,ok",
                     "1,0.5000005,0.25,0.0,diverged", "2,0.25,4.4,1.0,ok"])
    changes = csv_identity.relative_changes(parent, change)
    # res, err and tv in column order; a change from 0 is inf, a change of
    # writing only is 0, and the text column is left out
    assert list(changes) == ["res", "err", "tv"]
    assert changes["res"] == pytest.approx(1e-6, rel=1e-9)
    assert changes["err"] == pytest.approx(0.1, rel=1e-9)
    assert changes["tv"] == math.inf
    assert csv_identity.relative_changes(parent, parent) == {}
    shorter = _write(tmp_path / "shorter.csv", ["k,res,err,tv,status",
                                                "0,1.0,2.0,0.0,ok"])
    assert csv_identity.relative_changes(parent, shorter) == {}


def test_integer_changes_of_the_differing_integer_columns(tmp_path):
    parent = _write(tmp_path / "parent.csv",
                    ["k,matvecs,inner,err", "0,0,0,1.0", "1,3,2,0.5",
                     "2,5,4,0.25", "3,7,6,0.125"])
    change = _write(tmp_path / "change.csv",
                    ["k,matvecs,inner,err", "0,0,0,1.0", "1,2,2.5,0.5",
                     "2,4,4,0.3", "3,9,6,0.125"])
    # matvecs moves by -1, -1 and +2; inner has a non-integer cell and
    # err is a float column, so only matvecs is listed
    assert csv_identity.integer_changes(parent, change) == {"matvecs": [-1, 2]}
    assert csv_identity.integer_changes(parent, parent) == {}
