"""The committed benchmark trajectory: one ``BENCH_<pr>.json`` per hot-path change.

Each point compares a change with its parent on the workloads of
``BENCHMARK.json``: end-to-end metrics from untraced runs under ``metrics``,
per-layer counts from a traced run under ``traced``. A point may name only
what ``BENCHMARK.json`` declares, each metric with its declared unit.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {workload["name"] for workload in DECLARED["workloads"]}
END_TO_END = {metric["name"]: metric["unit"] for metric in DECLARED["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in DECLARED["per_layer"]}
POINTS = sorted(ROOT.glob("BENCH_*.json"))


def test_the_trajectory_has_points():
    assert POINTS


def _check_metrics(metrics, declared, where):
    for name, entry in metrics.items():
        assert name in declared, f"{where}: {name} is not declared"
        assert entry["unit"] == declared[name], f"{where}: {name} is in {declared[name]}"
        assert {"parent", "change"} <= set(entry), f"{where}: {name} lacks a side"


@pytest.mark.parametrize("path", POINTS, ids=lambda path: path.name)
def test_point_names_only_declared_workloads_and_metrics(path):
    point = json.loads(path.read_text())
    assert path.name == f"BENCH_{point['pr']}.json"
    assert point["workloads"] and set(point["workloads"]) <= WORKLOADS
    for name, workload in point["workloads"].items():
        _check_metrics(workload["metrics"], END_TO_END, f"{path.name} {name}")
        _check_metrics(workload.get("traced", {}).get("metrics", {}), PER_LAYER,
                       f"{path.name} {name} traced")
    claim = point.get("claim")
    if claim is not None:
        assert claim["metric"] in point["workloads"][claim["workload"]]["metrics"]
