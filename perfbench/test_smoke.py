"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from kronnet import samplers  # noqa: E402


def _emit(name: str, trace: bool, workdir: Path) -> dict:
    load = workloads.Workload(name, seed=7, workdir=workdir, tiny=True)
    tally, _, units, values, _ = run.run_workload(load, trace, seconds=0.0)
    assert tally.failed == 0, tally.problems
    return run.result_line(tally, units, values)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_emitted_with_unit(name, tmp_path):
    line = _emit(name, False, tmp_path)
    assert line["correct"] and line["attempted"] >= 1
    assert set(line["metrics"]) == set(workloads.END_TO_END_UNITS)
    for metric in line["metrics"].values():
        assert metric["unit"] and metric["value"] > 0

    line = _emit(name, True, tmp_path)
    assert set(line["metrics"]) == set(layers.PER_LAYER_UNITS)
    assert all(metric["unit"] for metric in line["metrics"].values())
    assert line["metrics"]["trace.count_mismatches"]["value"] == 0
    assert line["metrics"]["samplers.run.calls"]["value"] > 0


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS


def test_dropped_edge_counts_as_failure(monkeypatch, tmp_path):
    original = samplers.ModelSampler.run

    def drop_one_edge(self, *args, **kwargs):
        net, trace = original(self, *args, **kwargs)
        edges = net.edges[:-1]
        return samplers.SampledNetwork(net.n_nodes, edges, net.directed), trace

    monkeypatch.setattr(samplers.ModelSampler, "run", drop_one_edge)
    load = workloads.Workload("tied-large", seed=7, workdir=tmp_path, tiny=True)
    tally, _ = workloads.measure(load, seconds=0.0)
    assert tally.failed / tally.attempted > 0
    assert any("final_active" in problem for problem in tally.problems)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tied-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
