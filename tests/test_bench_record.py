"""tools/bench_record.py on synthetic perfbench results."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

BENCHMARK = {
    "command": ["python3", "perfbench/run.py"],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "weights_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ],
    "per_layer": [
        {"name": "linalg.matmul_calls", "unit": "count", "better": "lower"},
        {"name": "trace.coverage", "unit": "ratio", "better": "higher"},
    ],
}


def write_run(directory, commit, seed, wall, rate, workload="levi-gl21"):
    directory.mkdir(parents=True, exist_ok=True)
    result = {
        "workload": workload, "seed": seed, "seconds": 40, "trace": 0,
        "correct": True, "attempted": 7, "failed": 0,
        "env": {"commit": commit, "seed": seed, "nproc": 2,
                "loadavg_before": [1, 1, 1], "python": "3.11"},
        "metrics": {"wall_s": {"value": wall, "unit": "s"},
                    "weights_per_s": {"value": rate, "unit": "1/s"}},
    }
    path = directory / f"{workload}-seed{seed}-trace0.json"
    path.write_text(json.dumps(result))


def write_traced(directory, commit, seed, metrics, workload="graded-gl21-ext"):
    directory.mkdir(parents=True, exist_ok=True)
    result = {
        "workload": workload, "seed": seed, "seconds": 40, "trace": 1,
        "correct": True, "attempted": 2, "failed": 0,
        "env": {"commit": commit, "seed": seed, "nproc": 2},
        "metrics": {k: {"value": v, "unit": "count"} for k, v in metrics.items()},
    }
    path = directory / f"{workload}-seed{seed}-trace1.json"
    path.write_text(json.dumps(result))


def test_pairs_medians_and_gain(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(1, 11):
        write_run(parent, "aaa", seed, 1.0 + seed / 100, 10.0)
        write_run(change, "bbb", seed, 0.7 + seed / 100, 10.0 - seed / 10)
    # a run without a partner is left out
    write_run(change, "bbb", 11, 0.1, 99.0)
    rec = bench_record.record(8, parent, change, BENCHMARK)
    assert rec["commits"] == {"parent": "aaa", "change": "bbb"}
    assert rec["environment"] == {"nproc": 2, "python": "3.11"}
    assert rec["command"][-2:] == ["--seconds", "40"]
    levi = rec["workloads"]["levi-gl21"]
    assert levi["seeds"] == list(range(1, 11))
    assert levi["runs"]["change"] == {"attempted": 70, "failed": 0,
                                      "all_correct": True}
    wall = levi["metrics"]["wall_s"]
    assert wall["parent"]["median"] == pytest.approx(1.055)
    assert wall["change"]["median"] == pytest.approx(0.755)
    assert wall["pairs_change_better"] == 10
    assert wall["within_bound"] and wall["gain"]
    rate = levi["metrics"]["weights_per_s"]
    # rates fall by up to 10%: within the 25% bound, and no gain
    assert rate["pairs_change_better"] == 0
    assert rate["within_bound"] and not rate["gain"]
    # no traced runs, no per-layer section
    assert "per_layer" not in rec


def test_traced_runs_add_per_layer_metrics(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2):
        write_run(parent, "aaa", seed, 1.0, 10.0)
        write_run(change, "bbb", seed, 0.8, 12.0)
    write_traced(parent, "aaa", 31, {"linalg.matmul_calls": 8775,
                                     "trace.coverage": 0.75})
    write_traced(parent, "aaa", 32, {"linalg.matmul_calls": 8777,
                                     "trace.coverage": 0.77})
    write_traced(change, "bbb", 31, {"linalg.matmul_calls": 3500,
                                     "trace.coverage": 0.74})
    # a metric missing from one run is left out; an unpaired run too
    write_traced(change, "bbb", 32, {"linalg.matmul_calls": 3502})
    write_traced(change, "bbb", 33, {"linalg.matmul_calls": 1})
    rec = bench_record.record(15, parent, change, BENCHMARK)
    assert rec["workloads"]["levi-gl21"]["seeds"] == [1, 2]
    graded = rec["per_layer"]["graded-gl21-ext"]
    assert graded["seeds"] == [31, 32]
    assert graded["commits"] == {"parent": "aaa", "change": "bbb"}
    assert graded["all_correct"] == {"parent": True, "change": True}
    assert list(graded["metrics"]) == ["linalg.matmul_calls"]
    calls = graded["metrics"]["linalg.matmul_calls"]
    assert calls["parent"] == 8776 and calls["change"] == 3501
    assert calls["change_over_parent"] == pytest.approx(3501 / 8776)
    assert calls["unit"] == "count" and calls["better"] == "lower"


def test_mixed_commits_are_refused(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_run(parent, "aaa", 1, 1.0, 10.0)
    write_run(parent, "ccc", 2, 1.0, 10.0)
    for seed in (1, 2):
        write_run(change, "bbb", seed, 0.9, 11.0)
    with pytest.raises(SystemExit, match="several commits"):
        bench_record.record(8, parent, change, BENCHMARK)
