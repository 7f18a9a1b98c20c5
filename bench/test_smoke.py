"""Smoke test of the benchmark at tiny sizes (about half a minute).

    python3 -m pytest -q bench/test_smoke.py
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
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return lines[:-1], result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_prints_with_its_unit(workload):
    text, result = result_of(workload, 0)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    names = ["setup_s", "error_rate", "peak_rss_mb"]
    names += (["evals_per_s", "eval_us_p50", "eval_us_p99"] if workload == "closed_form"
              else ["trials_per_s"])
    for name in names:
        assert any(line.startswith(f"{workload}  {name} ") for line in text), name
    assert any(line.startswith("context {") for line in text)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_sum_to_traced_wall(workload):
    _, result = result_of(workload, 1)
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    self_times = sum(v["value"] for k, v in metrics.items() if k.endswith(("self_s", ".s")))
    assert self_times == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9)
    if workload == "approx_async":
        assert metrics["fde.lambda_spectrum.calls"]["value"] == 0
    if workload == "closed_form":
        assert metrics["mc.trials"]["value"] == 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("approx_async", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
