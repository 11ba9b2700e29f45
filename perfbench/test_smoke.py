"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is printed with its unit, that
a wrong answer from the program counts as a failure, and that the benchmark
refuses to run without the program's sources.
"""
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from certunlearn import calibrate, harness, pngd  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    if name == "calibrate":
        return workloads.Calibrate(0, presets=("mnist38",), eps=(1.0,), k_hats=(1,),
                                   group_sizes=(1,))
    if name == "stream":
        return workloads.Stream(0, batches=(20,))
    if name == "unlearn-synthetic":
        return workloads.Unlearn(0, name, ("langevin", "retrain", "d2d_thm9"), trials=2,
                                 n_iter=20, acc_floor=0.0, gap_floor=1.0)
    return workloads.Unlearn(0, name, ("langevin", "retrain"), trials=1, n_iter=3,
                             acc_floor=0.0, gap_floor=1.0, shape_preset="mnist38")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(name, trace, capsys):
    result = run.report(worker.measure(tiny(name), 0.0, trace), [0.1], trace)
    out = capsys.readouterr().out
    assert result["failed"] == 0 and result["correct"], out
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert any(line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
                   for line in out.splitlines()), metric["name"]
    assert "fail_rate = 0 " in out


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


def test_same_seed_same_inputs():
    assert workloads.Calibrate(3).cells == workloads.Calibrate(3).cells
    assert workloads.Stream(3).batches == workloads.Stream(3).batches


def test_perturbed_stream_total_raises_fail_rate(monkeypatch, capsys):
    real = calibrate.sequential_k_schedule

    def off_by_one(*args, **kwargs):
        schedule = real(*args, **kwargs)
        return [schedule[0] + 1] + schedule[1:]

    monkeypatch.setattr(calibrate, "sequential_k_schedule", off_by_one)
    result = run.report(worker.measure(tiny("stream"), 0.0, 0), [0.1], 0)
    out = capsys.readouterr().out
    assert result["failed"] == result["attempted"] == 1
    assert not result["correct"]
    assert "fail_rate = 1 " in out and "!= frozen 6858" in out


def test_unchecked_weights_raise_fail_rate(monkeypatch, capsys):
    # the harness reaches the PNGD engine by a route the weight checks do not wrap
    monkeypatch.setattr(harness, "_pngd", types.SimpleNamespace(**vars(pngd)))
    result = run.report(worker.measure(tiny("unlearn-mnist-shape"), 0.0, 0), [0.1], 0)
    out = capsys.readouterr().out
    assert result["failed"] == result["attempted"] == 2
    assert "0 weight vectors checked, expected at least 2" in out
    assert "0 weight vectors checked, expected at least 1" in out


def test_cli_prints_result_as_last_line():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stream",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["setup_s"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stream",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
