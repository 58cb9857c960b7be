"""Smoke test: scripts/csv_identity.py finds a checkout identical to itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
