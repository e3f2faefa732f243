"""Fast self-test of the benchmark: every workload at two epochs.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(run.SPEC["workloads"])


@pytest.fixture(scope="module")
def g():
    return run.load_gnncl(run.ROOT)


def test_benchmark_json_names_what_run_reports():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        list(tracer.LAYER_METRICS)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == \
        {k: v["why"] for k, v in run.SPEC["workloads"].items()}
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    for entry in run.SPEC["layer_map"]:
        assert set(entry["on"]) <= set(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_reports_every_metric(g, name):
    res = run.measure_untraced(g, name, seed=0, seconds=0, epochs=2)
    assert [r["errors"] for r in res["runs"]] == [[]] * len(res["runs"])
    assert sorted(res["metrics"]) == sorted(k for k, _ in run.END_TO_END)
    assert all(v > 0 for v in res["metrics"].values())
    assert res["units"] == dict(run.END_TO_END)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_every_metric_and_cross_checks(g, name):
    res = run.measure_traced(g, name, seed=0, seconds=0, epochs=2)
    assert [r["errors"] for r in res["runs"]] == [[]] * len(res["runs"])
    assert sorted(res["metrics"]) == sorted(k for k, _ in
                                            tracer.LAYER_METRICS)
    check = res["cross_check"]
    for op in tracer.INDEXED_OPS:
        assert check["recorded_calls"][op] == check["tape_ops"][op] > 0
    assert check["recorded_calls"].get("segment_softmax", 0) == \
        check["segment_softmax_motifs"]
    assert res["metrics"]["harness.evaluate_calls"] == 6


def test_uninstall_restores_every_binding(g):
    before = {name: getattr(g.engine.ops, name)
              for name in ("gather_rows", "scatter_sum", "segment_softmax",
                           "backward")}
    layers_gather = sys.modules["gnncl.nn.layers"].gather_rows
    t = tracer.Tracer(g)
    t.install()
    assert getattr(g.engine.ops, "gather_rows") is not before["gather_rows"]
    assert tracer.leftover_wrappers()
    t.uninstall()
    assert tracer.leftover_wrappers() == []
    for name, fn in before.items():
        assert getattr(g.engine.ops, name) is fn
    assert sys.modules["gnncl.nn.layers"].gather_rows is layers_gather


def test_cross_check_catches_a_missed_binding(g):
    t = tracer.Tracer(g)
    layers = sys.modules["gnncl.nn.layers"]
    t.install()
    try:
        wrapped = layers.scatter_sum
        layers.scatter_sum = wrapped.__perfbench_original__
        t.begin()
        run.run_checked(g, run.workload_config("sbm-gat-twp", 0, epochs=1))
        trace = t.end()
        layers.scatter_sum = wrapped
    finally:
        t.uninstall()
    errors = tracer.cross_check(trace)
    assert any(e.startswith("scatter_sum") for e in errors)


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
