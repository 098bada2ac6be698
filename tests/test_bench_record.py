"""tools/bench_record.py folds paired parent and change benchmark runs:
runs pair by workload and seed, each metric keeps every value with its
median and quartiles, and wins follow the metric's better direction."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
SPEC = {"end_to_end": [
    {"name": "datasets_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
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
    rec = {"workload": workload, "seconds": 25.0, "trace": trace, "ops": ops,
           "environment": {"nproc": 2, "python": "3.x", "git_commit": commit, "seed": seed},
           "metrics": {"datasets_per_s": rate, "op_p50_ms": p50}}
    (directory / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(rec))


def test_fold_pairs_runs_by_workload_and_seed(tool, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (rate, p50) in enumerate([(1.0, 30.0), (2.0, 20.0), (3.0, 10.0), (4.0, 40.0)]):
        _write_run(parent, "desk", seed, "aaa", rate, p50)
        _write_run(change, "desk", seed, "bbb", rate + 1.0, 20.0, failed=seed == 3)
    _write_run(parent, "desk", 9, "aaa", 100.0, 1.0)             # no partner
    _write_run(change, "desk", 0, "bbb", 0.0, 0.0, trace=1)      # traced: left out
    record = tool.fold(tool.load_runs(parent), tool.load_runs(change), SPEC, "alternating")
    assert record["parent"] == {"git_commit": "aaa", "environment": {"nproc": 2, "python": "3.x"}}
    assert record["change"]["git_commit"] == "bbb"
    assert record["unpaired"] == ["desk-seed9"] and record["note"] == "alternating"
    desk = record["workloads"]["desk"]
    assert desk["seeds"] == [0, 1, 2, 3] and desk["pairs"] == 4
    assert desk["failed"] == {"parent": [0, 0, 0, 0], "change": [0, 0, 0, 1]}
    rate = desk["metrics"]["datasets_per_s"]
    assert rate["parent"] == {"runs": [1.0, 2.0, 3.0, 4.0], "median": 2.5, "q1": 1.75, "q3": 3.25}
    assert rate["change"]["median"] == 3.5 and rate["change_wins"] == 4
    p50 = desk["metrics"]["op_p50_ms"]
    assert p50["change"]["runs"] == [20.0] * 4
    assert p50["change_wins"] == 2       # lower is better; the tie at 20 ms counts for neither


def test_fold_refuses_mixed_commits(tool, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, commit in enumerate(["aaa", "ccc"]):
        _write_run(parent, "desk", seed, commit, 1.0, 1.0)
        _write_run(change, "desk", seed, "bbb", 1.0, 1.0)
    with pytest.raises(SystemExit, match="parent runs differ"):
        tool.fold(tool.load_runs(parent), tool.load_runs(change), SPEC)
