"""The benchmark's workloads, the slow-check script and the report
comparison, loaded from their files: neither perfbench/ nor tools/ is a
package on the path."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("perfbench_workloads", "perfbench/workloads.py")
slow_checks = _load("slow_checks", "tools/slow_checks.py")
report_diff = _load("report_diff", "tools/report_diff.py")
