"""tools/bench_record.py folds paired parent and change benchmark runs:
runs pair by workload, seed and trace setting, each metric keeps every
value with its median and quartiles, and wins follow the metric's better
direction."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
SPEC = {"end_to_end": [
    {"name": "datasets_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
], "per_layer": [
    {"name": "refine.importance_weights.calls", "unit": "count", "better": "lower"},
]}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_run(directory: Path, workload, seed, commit, rate, p50, trace=0, failed=0):
    directory.mkdir(exist_ok=True)
    ops = [{"error": "boom" if i < failed else "", "result": {"problems": []}}
           for i in range(5)]
    metrics = ({"refine.importance_weights.calls": rate} if trace
               else {"datasets_per_s": rate, "op_p50_ms": p50})
    rec = {"workload": workload, "seconds": 25.0, "trace": trace, "ops": ops,
           "environment": {"nproc": 2, "python": "3.x", "git_commit": commit, "seed": seed},
           "metrics": metrics}
    (directory / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(rec))


def test_fold_pairs_runs_by_workload_and_seed(tool, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (rate, p50) in enumerate([(1.0, 30.0), (2.0, 20.0), (3.0, 10.0), (4.0, 40.0)]):
        _write_run(parent, "desk", seed, "aaa", rate, p50)
        _write_run(change, "desk", seed, "bbb", rate + 1.0, 20.0, failed=seed == 3)
    _write_run(parent, "desk", 9, "aaa", 100.0, 1.0)             # no partner
    _write_run(change, "desk", 0, "bbb", 0.0, 0.0, trace=1)      # traced, no partner
    record = tool.fold(tool.load_runs(parent), tool.load_runs(change), SPEC, "alternating")
    assert record["parent"] == {"git_commit": "aaa", "environment": {"nproc": 2, "python": "3.x"}}
    assert record["change"]["git_commit"] == "bbb"
    assert record["unpaired"] == ["desk-seed0-trace1", "desk-seed9"]
    assert record["note"] == "alternating"
    desk = record["workloads"]["desk"]
    assert "per_layer" not in desk
    assert desk["seeds"] == [0, 1, 2, 3] and desk["pairs"] == 4
    assert desk["failed"] == {"parent": [0, 0, 0, 0], "change": [0, 0, 0, 1]}
    rate = desk["metrics"]["datasets_per_s"]
    assert rate["parent"] == {"runs": [1.0, 2.0, 3.0, 4.0], "median": 2.5, "q1": 1.75, "q3": 3.25}
    assert rate["change"]["median"] == 3.5 and rate["change_wins"] == 4
    p50 = desk["metrics"]["op_p50_ms"]
    assert p50["change"]["runs"] == [20.0] * 4
    assert p50["change_wins"] == 2       # lower is better; the tie at 20 ms counts for neither


def test_fold_pairs_traced_runs_under_per_layer(tool, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (3, 4, 5):
        _write_run(parent, "desk", seed, "aaa", 12.0, 1.0)
        _write_run(change, "desk", seed, "bbb", 11.0, 1.0)
        _write_run(parent, "desk", seed, "aaa", 2.0 + seed, 0.0, trace=1)
        _write_run(change, "desk", seed, "bbb", 5.0, 0.0, trace=1, failed=seed == 5)
    _write_run(parent, "train", 1, "aaa", 1.0, 0.0, trace=1)     # traced pairs only
    _write_run(change, "train", 1, "bbb", 1.0, 0.0, trace=1)
    record = tool.fold(tool.load_runs(parent), tool.load_runs(change), SPEC)
    assert record["unpaired"] == []
    desk = record["workloads"]["desk"]
    assert desk["seeds"] == [3, 4, 5]
    assert desk["metrics"]["datasets_per_s"]["parent"]["runs"] == [12.0] * 3
    traced = desk["per_layer"]
    assert traced["seeds"] == [3, 4, 5] and traced["pairs"] == 3
    assert traced["failed"] == {"parent": [0, 0, 0], "change": [0, 0, 1]}
    calls = traced["metrics"]["refine.importance_weights.calls"]
    assert calls["unit"] == "count" and "bound" not in calls
    assert calls["parent"] == {"runs": [5.0, 6.0, 7.0], "median": 6.0, "q1": 5.5, "q3": 6.5}
    assert calls["change"]["runs"] == [5.0] * 3
    assert calls["change_wins"] == 2     # lower is better; the tie at 5 counts for neither
    train = record["workloads"]["train"]
    assert list(train) == ["per_layer"] and train["per_layer"]["pairs"] == 1


def test_fold_refuses_mixed_commits(tool, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, commit in enumerate(["aaa", "ccc"]):
        _write_run(parent, "desk", seed, commit, 1.0, 1.0)
        _write_run(change, "desk", seed, "bbb", 1.0, 1.0)
    with pytest.raises(SystemExit, match="parent runs differ"):
        tool.fold(tool.load_runs(parent), tool.load_runs(change), SPEC)
