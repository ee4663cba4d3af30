"""Tests of the benchmark itself (tiny sizes): python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    meta_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(meta_line)["meta"], json.loads(result_line)


def child_counters(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
         "--spawned-at", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)["counters"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_every_check(workload):
    meta, res = result("--workload", workload, "--tiny", "--seconds", "0", "--seed", "11")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, meta["failures"]
    assert meta["counters_repeat"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_traced_run_reports_every_layer(workload):
    _, res = result("--workload", workload, "--tiny", "--seconds", "0", "--trace", "1")
    assert res["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_work_counters_repeat_at_one_seed(workload):
    first = child_counters(workload, 5)
    assert first and first == child_counters(workload, 5)


def test_per_layer_list_matches_the_benchmark():
    names = [m["name"] for m in SPEC["per_layer"]]
    assert names == list(layers.PER_LAYER) + ["trace.overhead_s", "trace.overhead_share"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "maps", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_pool_cells_leaves_no_small_cell():
    obs, exp = workloads.SPARSE_POOL_PROBE
    obs = obs | {"outside": 3}
    pooled_obs, pooled_exp = workloads.pool_cells(obs, exp)
    n = sum(obs.values())
    assert all(n * p >= workloads.MIN_EXPECTED for p in pooled_exp.values())
    assert abs(sum(pooled_exp.values()) - 1) < 1e-12
    assert sum(pooled_obs.values()) == n and pooled_obs["outside"] == 3
