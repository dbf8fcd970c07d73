"""Smoke test of the benchmark harness at toy sizes; finishes in seconds.

    python3 -m pytest -q coverbench/test_smoke.py

It drives every workload through the same measurement, tracing and checking
code as the real benchmark, and makes sure the checks reject broken artifacts.
"""
import csv
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from coverkit import geometry, runner  # noqa: E402

ORIGINAL_CLIP = geometry.clip


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_end_to_end_metrics(workload):
    runs, metrics, samples = run.measure(workload, seed=1, seconds=0.1, trace=False,
                                         toy=True)
    assert runs.failures == []
    assert runs.attempted == 1 + len(samples["run_s"])
    assert len(samples["reference_s"]) == 1 + run.SETUP_REPEATS + len(samples["run_s"])
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_counts_repeat(workload):
    first = run.measure(workload, seed=2, seconds=0.1, trace=True, toy=True)
    second = run.measure(workload, seed=2, seconds=0.1, trace=True, toy=True)
    for runs, metrics, _ in (first, second):
        assert runs.failures == []
        assert set(metrics) == set(tracing.PER_LAYER_UNITS)
    counts = [{k: v for k, v in m.items() if tracing.PER_LAYER_UNITS[k] == "count"}
              for _, m, _ in (first, second)]
    assert counts[0] == counts[1]
    assert geometry.clip is ORIGINAL_CLIP  # the tracer put the original back


def _toy_run(workload, tmp_path):
    config = workloads.write_config(workload, 3, tmp_path, toy=True)
    out = tmp_path / "out"
    code = runner.run(config, out=out)
    workloads.check_run(workload, code, out)
    return out


def test_descent_check_rejects_rising_cost(tmp_path):
    out = _toy_run("descent", tmp_path)
    path = out / "metrics.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[-1]["cost"] = records[-2]["cost"] * 1.01
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(workloads.CheckFailed, match="rose"):
        workloads.check_run("descent", 0, out)


def test_poi_check_rejects_shared_site(tmp_path):
    out = _toy_run("poi", tmp_path)
    path = out / "assignment.csv"
    rows = list(csv.DictReader(path.open()))
    rows[1]["poi"] = rows[0]["poi"]
    path.write_text("agent,poi\n" + "".join(f"{r['agent']},{r['poi']}\n" for r in rows))
    with pytest.raises(workloads.CheckFailed, match="reuses"):
        workloads.check_run("poi", 0, out)


def test_swarm_check_rejects_escaped_agent(tmp_path):
    out = _toy_run("swarm", tmp_path)
    path = out / "final.csv"
    lines = path.read_text().splitlines()
    lines[1] = "0,1.5,0.5"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(workloads.CheckFailed, match="outside"):
        workloads.check_run("swarm", 0, out)


def test_failed_exit_code_is_a_failure(tmp_path):
    with pytest.raises(workloads.CheckFailed, match="exit code 3"):
        workloads.check_run("swarm", 3, tmp_path)


def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
