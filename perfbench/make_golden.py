#!/usr/bin/env python3
"""Write golden/<workload>.json: the verdict fields the benchmark checks.

usage: python3 perfbench/make_golden.py [WORKLOAD ...]

Runs each workload's config once through ``glmn.cli.main`` at seed 0, in
this process, and keeps the fields ``workloads.verdicts`` extracts. A scan
covers every weight of the variety, so its golden holds at any seed.
levi-gl21 samples five weights by seed, so its golden is built from one run
per weight of the variety and holds every weight the benchmark can sample.
Regenerate only when the program's verdicts are meant to change.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from workloads import GOLDEN_DIR, WORKLOADS, make_config, verdicts

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import glmn.cli as cli  # noqa: E402


def run_config(cfg, work):
    path = work / "golden-config.json"
    path.write_text(json.dumps(cfg))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["run", "--config", str(path)])
    report = json.loads(out.getvalue())
    if code != 0 or not report["passed"]:
        raise SystemExit(f"config {cfg} does not pass (exit {code})")
    return verdicts(report)


def golden(name, work):
    cfg = make_config(name, seed=0)
    if cfg["tasks"] != ["levi-scan"]:
        return run_config(cfg, work)
    _, _, weights = cli.build_setting(cli.validate_config(cfg))
    merged = {"levi-scan": {"reports": {}}}
    for lam in weights:
        one = run_config(dict(cfg, **{"lambda": [int(c) for c in lam.coords]}),
                         work)
        merged["levi-scan"]["reports"].update(one["levi-scan"]["reports"])
    return merged


def main(names):
    GOLDEN_DIR.mkdir(exist_ok=True)
    work = ROOT / ".perfbench_run"
    work.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        data = golden(name, work)
        (GOLDEN_DIR / f"{name}.json").write_text(
            json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote golden/{name}.json", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
