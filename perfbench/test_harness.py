"""Smoke test of the benchmark harness at tiny sizes.

Every workload runs once untraced and once traced with ``--smoke`` (one
epoch, small n). Run it from the root of a checkout:

    python3 -m pytest perfbench/test_harness.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )


@pytest.fixture(scope="module")
def results():
    out = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = bench(name, trace)
            assert proc.returncode == 0, proc.stderr
            out[name, trace] = (proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def layer(results, name, metric):
    return results[name, 1][1]["metrics"][metric]["value"]


def test_every_metric_is_reported_and_printed(results):
    expected = {0: run.END_TO_END, 1: run.per_layer_units()}
    for (name, trace), (stdout, result) in results.items():
        assert result["correct"] and result["failed"] == 0, (name, trace, stdout)
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == set(expected[trace]), (name, trace)
        for metric, (unit, _) in expected[trace].items():
            assert result["metrics"][metric]["unit"] == unit
            assert f"  {metric} " in stdout, (name, trace, metric)
        # the traced run prints the end-to-end table too
        for metric in run.END_TO_END:
            assert f"  {metric} " in stdout


def test_block_cg_runs_only_on_the_clustered_workload(results):
    for name in ("ricker-m128", "wide-m512", "sgpr-ricker"):
        assert layer(results, name, "linalg.block_cg.calls") == 0, name
    assert layer(results, "clustered-f32", "linalg.block_cg.calls") > 0


def test_sgpr_never_calls_interp(results):
    for fn in ("softmax_weights", "softmax_weights_backward"):
        assert layer(results, "sgpr-ricker", f"interp.{fn}.calls") == 0
        assert layer(results, "ricker-m128", f"interp.{fn}.calls") > 0


def test_fallback_ratio_is_one_only_on_the_clustered_workload(results):
    assert layer(results, "clustered-f32", "objective.fallback_ratio") == 1
    assert layer(results, "clustered-f32", "objective.exact_mll.useful_ratio") == 0
    for name in ("ricker-m128", "wide-m512", "sgpr-ricker"):
        assert layer(results, name, "objective.fallback_ratio") == 0, name


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.per_layer_units()



def test_criterion1_above_its_level_fails_the_run():
    w = workloads.WORKLOADS["ricker-m128"]
    check = {"seeds": [0, 1, 2], "rmses": [0.006, 0.007, 0.02], "mean": 0.011}
    attempted, failures = run.outcome(w, [], [], check)
    assert attempted == 1
    assert failures == ["check criterion1_rmse: mean 0.011 > 0.01 on seeds [0, 1, 2]"]
    check["mean"] = 0.009
    assert run.outcome(w, [], [], check) == (1, [])
