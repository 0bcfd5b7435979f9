"""Tiny-length runs of every workload through the benchmark command.

Each run is one pass (``--seconds 1``), so this takes a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = SPEC["command"][1:] + ["--workload", workload, "--seed", "0",
                                  "--seconds", "1", "--trace", str(trace)]
    return subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_prints_every_metric_with_its_unit(workload, trace):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
