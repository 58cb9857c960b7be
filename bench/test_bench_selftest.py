"""Self-test of the benchmark on a tiny instance (16x16, 4 angles, 16 rays).

Runs the benchmark command for every workload, untraced and traced, and
checks that every metric BENCHMARK.json names is emitted with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                "0", "--trace", str(trace), "--instance", "tiny")
    *head, last = proc.stdout.strip().split("\n")
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    assert result["attempted"] >= 1
    record = json.loads(head[-1])
    assert record["environment"]["nnz"] > 0
    assert set(record["environment"]["blas_threads"].values()) == {1}
    # on the tiny grid the loop overhead outside named spans is a larger
    # share than on the paper's instance, so only span coverage may miss
    failures = [line for line in proc.stderr.splitlines()
                if line.startswith("check failed:")
                and "named spans cover" not in line]
    assert failures == []


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "afbs_exact", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
