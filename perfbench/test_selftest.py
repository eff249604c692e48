"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest -q perfbench

It is not part of the package's own test suite (``testpaths`` points at
``tests``), because each case starts several Python processes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1", *args],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def result(lines: list[str]) -> dict:
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    code, lines = bench("--workload", workload, "--tiny", "--trace", "0")
    assert code == 0
    out = result(lines)
    assert out["correct"] and out["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())
    text = "\n".join(lines[:-1])
    for name, unit in expected.items():
        assert f"{name} " in text and f" {unit}" in text
    assert "fail_frac" in text and "BLAS threads 1" in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload):
    code, lines = bench("--workload", workload, "--tiny", "--trace", "1")
    assert code == 0
    out = result(lines)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert out["metrics"]["verify.nonfinite_points"]["value"] == 0
    # root spans cover the timed passes, up to the loop's own bookkeeping
    assert out["metrics"]["trace.covered_frac"]["value"] > 0.95


@pytest.mark.parametrize("workload", ["check-default", "report-stream"])
def test_injected_fault_is_caught(workload):
    code, lines = bench("--workload", workload, "--tiny", "--inject-fault")
    assert code == 1
    out = result(lines)
    assert not out["correct"]
    assert out["failed"] > 0


def test_exits_without_result_when_source_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
