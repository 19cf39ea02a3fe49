"""Tests of the benchmark itself, at tiny sizes; not part of the Tier-1 suite.

Run from the repository root: python -m pytest qsbench/test_qsbench.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, "qsbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for m in declared:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        assert any(line.startswith(f"metric {workload} {m['name']} = ")
                   and line.split("  (")[0].endswith(f" {m['unit']}") for line in lines)
    assert any(line.startswith(f"error_rate {workload} = 0 ") for line in lines)


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        k: v[0] for k, v in run.PER_LAYER.items()}


def test_wrong_reference_value_counts_as_error(capsys):
    reference = run.load_reference()
    reference["wide"]["ghz-4"]["probability"][0] += 1e-3
    out = run.run_workload("wide-run", seed=1, seconds=0.0, trace=False, size="tiny",
                           reference=reference)
    result = out["result"]
    assert result["failed"] > 0 and not result["correct"]
    assert any(line.startswith("error_rate wide-run = ") and not line.startswith(
        "error_rate wide-run = 0 ") for line in out["lines"])
    assert "FAILED run ghz n=4: outcome +: probability" in capsys.readouterr().err


def test_absent_function_is_reported_not_fatal(monkeypatch, tmp_path):
    run.import_program()
    import qswitch.gates

    monkeypatch.delattr(qswitch.gates, "local_tensor")
    tracer = Tracer()
    assert "gates.local_tensor" in tracer.absent
    spec = workloads._write_json(str(tmp_path / "spec.json"), workloads.paper_spec("ghz", 3))
    tracer.install()
    try:
        assert workloads.call_cli(["run", "--spec", spec]).rc == 0
    finally:
        tracer.uninstall()
    spans = tracer.take_spans()
    assert summarize(spans)["gates.local_tensor_s"] == 0
    assert [s.name for s in spans if s.layer == "switch"].count("run") == 1


def test_tracer_counts_every_call_from_many_threads():
    run.import_program()
    import qswitch.sweep

    plan = qswitch.sweep.default_plan("bell", 2, lambda_steps=9, alpha_steps=9)
    tracer = Tracer()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    tracer.install()
    try:
        qswitch.sweep.run_sweep(plan, threads=8)
    finally:
        tracer.uninstall()
        sys.setswitchinterval(interval)
    spans = tracer.take_spans()
    metrics = summarize(spans)
    assert [s.name for s in spans if s.layer == "switch"].count("run") == 81
    assert metrics["sweep.points"] == 81
    assert metrics["metrics.concurrence_calls"] == sum(
        1 for s in spans if s.layer == "switch" for _ in range(s.info.get("reachable", 0)))
    run_sweep = next(s for s in spans if s.name == "run_sweep")
    assert 0 <= metrics["sweep.run_sweep_self_s"] < run_sweep.t1 - run_sweep.t0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "qsbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "network", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
