"""The benchmark's workloads, the verdict fields it checks, and the checks.

Every workload is one glmn config run through ``glmn.cli.main(["run", ...])``.
Why each workload was chosen, and which layer it is expected to move, is
written in README.md beside this file.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# p = 5 and one worker process throughout; the seed is written in per run.
# nominal_s, the wall time of one full run on a 2-CPU x86-64 machine, sets
# how many full runs fit in --seconds.
WORKLOADS = {
    "scan-gl21-chi0": {
        "nominal_s": 10,
        "config": {"p": 5, "m": 2, "n": 1, "chi": {},
                   "lambda": "scan-all-X", "tasks": ["verma-scan"]},
        "simple_count": 20,
    },
    "verma-gl22-one": {
        "nominal_s": 24,
        "config": {"p": 5, "m": 2, "n": 2, "chi": {},
                   "lambda": [1, 2, 3, 4], "tasks": ["verma-scan"]},
        "simple_count": 0,
    },
    "levi-gl21": {
        "nominal_s": 8,
        "config": {"p": 5, "m": 2, "n": 1, "chi": {"E(2,1)": 1},
                   "lambda": "scan-all-X", "tasks": ["levi-scan"]},
        "levi_rank": 20,
    },
    "graded-gl21-ext": {
        "nominal_s": 11,
        "config": {"p": 5, "m": 2, "n": 1,
                   "chi": {"E(1,1)": 1, "E(2,2)": 1, "E(3,3)": 1},
                   "lambda": "scan-all-X", "tasks": ["graded-verma-scan"]},
        "simple_count": 125,
    },
    # A few-second exercise of the whole harness; not listed in
    # BENCHMARK.json and run by test_smoke.py only.
    "smoke": {
        "nominal_s": 1,
        "config": {"p": 5, "m": 1, "n": 1, "chi": {},
                   "lambda": "scan-all-X", "tasks": ["verma-scan"]},
        "simple_count": 20,
    },
}

ROW_FIELDS = ("f_direct", "f_formula", "f1_direct", "oracle_simple")
SCAN_FIELDS = ("simple_count", "c", "c_prime")


def make_config(name, seed):
    """The config file contents for one run of a workload."""
    return dict(WORKLOADS[name]["config"], seed=seed, jobs=1)


def lambda_key(lam):
    """A report's lambda (one coefficient list per coordinate) as a string."""
    return ";".join(",".join(str(c) for c in coord) for coord in lam)


def verdicts(report):
    """The scientifically meaningful fields of a report, keyed by lambda.

    Only these fields are compared, so a change of report layout or an added
    field does not count as a wrong answer.
    """
    out = {}
    for task in report["tasks"]:
        rec = task["record"]
        if "rows" in rec:
            entry = {k: rec[k] for k in SCAN_FIELDS if k in rec}
            entry["rows"] = {
                lambda_key(r["lambda"]): {k: r[k] for k in ROW_FIELDS if k in r}
                for r in rec["rows"]}
        else:
            entry = {"reports": {
                lambda_key(r["lambda"]): {
                    "radical_dim": r["radical_dim"],
                    "head_dim": r["head_dim"],
                    "alphas": [{"alpha": a["alpha"], "rank": a["rank"],
                                "heads_match": a["heads_match"]}
                               for a in r["alphas"]]}
                for r in rec["reports"]}}
        out[task["task"]] = entry
    return out


def load_golden(name):
    path = GOLDEN_DIR / f"{name}.json"
    with open(path) as fh:
        return json.load(fh)


def _compare(found, golden, where, problems):
    """Field-by-field comparison; a key missing from found is a mismatch."""
    if isinstance(golden, dict) and isinstance(found, dict):
        for key, value in golden.items():
            if key not in found:
                problems.append(f"{where}{key}: missing")
            else:
                _compare(found[key], value, f"{where}{key}.", problems)
    elif found != golden:
        problems.append(f"{where[:-1]}: {found!r} != golden {golden!r}")


def check_report(name, report, golden):
    """Every reason the report of one run is wrong; empty when it is right.

    The golden file of a scan holds every weight, and that of levi-gl21
    holds all 125 weights it samples from, so any seed is checked in full.
    """
    spec = WORKLOADS[name]
    problems = []
    if report.get("passed") is not True:
        problems.append("report has passed != true")
    found = verdicts(report)
    for task, gold in golden.items():
        got = found.get(task)
        if got is None:
            problems.append(f"task {task} missing from the report")
            continue
        if "rows" in gold:
            if set(got["rows"]) != set(gold["rows"]):
                problems.append(f"{task}: weights differ from the golden")
            _compare(got, gold, f"{task}.", problems)
        else:
            for lam, rep in got["reports"].items():
                if lam not in gold["reports"]:
                    problems.append(f"{task}: lambda {lam} not in the golden")
                else:
                    _compare(rep, gold["reports"][lam], f"{task}.{lam}.",
                             problems)
            if not got["reports"]:
                problems.append(f"{task}: no reports")
    for task, got in found.items():
        if "simple_count" in spec and got.get("simple_count") != spec["simple_count"]:
            problems.append(f"{task}: simple_count {got.get('simple_count')} "
                            f"!= {spec['simple_count']}")
        if "levi_rank" in spec:
            ranks = {a["rank"] for r in got.get("reports", {}).values()
                     for a in r["alphas"]}
            if ranks != {spec["levi_rank"]}:
                problems.append(f"{task}: levi ranks {sorted(ranks)} "
                                f"!= {{{spec['levi_rank']}}}")
    return problems


def weights_done(report):
    """Rows of a scan, or levi/kw reports: the units of work in a report."""
    total = 0
    for task in report["tasks"]:
        rec = task["record"]
        total += len(rec.get("rows", rec.get("reports", [])))
    return total
