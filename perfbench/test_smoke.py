"""Tests of the benchmark harness itself, on the few-second smoke workload
(gl(1|1), p = 5, chi = 0, all 25 weights).

They go through the same run.py, golden check and traced run as the real
workloads. They are not part of the repository's test suite; run them with

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import check_report, load_golden

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric():
    res = result_line(run_bench(0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: m["unit"] for k, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    res = result_line(run_bench(1))
    assert res["correct"] and res["failed"] == 0
    metrics = res["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert metrics["analysis.sampled_verdicts"]["value"] == 0
    assert metrics["verma.induced_builds"]["value"] == 25
    assert 0 < metrics["trace.coverage"]["value"] <= 1
    assert metrics["trace.overhead"]["value"] > 0


def _report_from_golden(golden):
    """A minimal report that carries exactly the golden verdicts."""
    tasks = []
    for task, gold in golden.items():
        rows = [dict(fields, **{"lambda": [[int(c) for c in coord.split(",")]
                                           for coord in lam.split(";")]})
                for lam, fields in gold["rows"].items()]
        record = {k: v for k, v in gold.items() if k != "rows"}
        tasks.append({"task": task, "record": dict(record, rows=rows)})
    return {"passed": True, "tasks": tasks}


def test_golden_check_flags_a_changed_verdict():
    golden = load_golden("smoke")
    report = _report_from_golden(golden)
    assert check_report("smoke", report, golden) == []
    row = report["tasks"][0]["record"]["rows"][0]
    row["oracle_simple"] = not row["oracle_simple"]
    assert check_report("smoke", report, golden)


def test_exits_without_result_when_glmn_sources_are_missing():
    bare = ROOT / ".perfbench_run" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench(0, cwd=bare, script=bare / HERE.name / "run.py")
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
