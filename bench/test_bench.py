"""Tests of the benchmark itself: every workload shape and the traced path on
tiny meshes (--smoke), and refusal to run outside a vicontrol checkout.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_runs_every_workload(trace, kind):
    proc = run_bench(ROOT, "--workload", "all", "--smoke", "--seed", "3",
                     "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert len(results) == len(WORKLOADS)
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in WORKLOADS:
        assert f"{name} failed_frac 0.000" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "psor-32", "--seed", "0", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
