#!/usr/bin/env python3
"""Record a parent/change benchmark comparison as BENCH_<pr>.json.

usage: python3 tools/bench_record.py --pr N --parent DIR --change DIR [--out FILE]

Each DIR is the .perfbench_run/results directory of a source tree on which
perfbench/run.py ran with --trace 0; every <workload>-seed<S>-trace0.json
file there is one run, whose metrics are medians over its children.  A
run of the parent tree and a run of the change tree with the same workload
and seed form a pair, and only paired runs are recorded.

For each workload and each end-to-end metric of BENCHMARK.json the record
holds each side's median and quartiles over its runs, the change median
over the parent median, the number of pairs in which the change is
better, whether the change's median stays within the metric's bound, and
whether a gain holds: the change better in at least nine tenths of the
pairs, and the medians further apart than the parent's quartile distance.
It also records the run environment, the commits, the seeds and the failed
and attempted counts.

When a directory also holds <workload>-seed<S>-trace1.json files, runs of
perfbench/run.py --trace 1, the traced runs of both sides with the same
workload and seed are paired the same way, and the record gains a
per_layer section: for each workload and each per-layer metric of
BENCHMARK.json, each side's value (the median over the paired seeds) and
the change over the parent, so that cuts in call counts show beside the
timings.  Written to BENCH_<pr>.json at the root of the repository unless
--out says otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# per-run details that say nothing about the machine or the software
RUN_ONLY_ENV = ("commit", "seed", "loadavg_before", "loadavg_after")


def load_runs(results_dir, trace=0):
    """{(workload, seed): result} for the --trace results in a directory."""
    runs = {}
    for path in sorted(Path(results_dir).glob(f"*-trace{trace}.json")):
        with open(path) as fh:
            result = json.load(fh)
        runs[result["workload"], result["seed"]] = result
    return runs


def summary(values):
    """Median and quartiles, as perfbench/run.py computes them."""
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def compare(metric, parent_values, change_values):
    """The record of one metric over the paired runs of one workload."""
    lower = metric["better"] == "lower"
    parent, change = summary(parent_values), summary(change_values)
    better = sum((c < p) if lower else (c > p)
                 for p, c in zip(parent_values, change_values))
    pm, cm = parent["median"], change["median"]
    limit = pm * (1 + metric["bound"]) if lower else pm * (1 - metric["bound"])
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": parent,
        "change": change,
        "change_over_parent": cm / pm if pm else None,
        "pairs_change_better": better,
        "within_bound": cm <= limit if lower else cm >= limit,
        "gain": (10 * better >= 9 * len(parent_values)
                 and abs(cm - pm) > parent["q3"] - parent["q1"]
                 and ((cm < pm) if lower else (cm > pm))),
    }


def per_layer(benchmark, parent_runs, change_runs):
    """The per-layer metrics of the paired traced runs, by workload.

    A metric is recorded when every paired run of both sides has it.
    """
    keys = sorted(set(parent_runs) & set(change_runs))
    sides = {"parent": parent_runs, "change": change_runs}
    workloads = {}
    for name in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == name]
        metrics = {}
        for metric in benchmark.get("per_layer", []):
            key = metric["name"]
            values = {side: [runs[name, s]["metrics"].get(key, {}).get("value")
                             for s in seeds] for side, runs in sides.items()}
            if any(v is None for vals in values.values() for v in vals):
                continue
            pm, cm = (statistics.median(values[side]) for side in sides)
            metrics[key] = {"unit": metric["unit"], "better": metric["better"],
                            "parent": pm, "change": cm,
                            "change_over_parent": cm / pm if pm else None}
        workloads[name] = {
            "seeds": seeds,
            "commits": {side: commit_of(runs[name, s] for s in seeds)
                        for side, runs in sides.items()},
            "all_correct": {side: all(runs[name, s]["correct"] for s in seeds)
                            for side, runs in sides.items()},
            "metrics": metrics,
        }
    return workloads


def commit_of(runs):
    commits = {r["env"].get("commit") for r in runs}
    if len(commits) != 1:
        raise SystemExit(f"runs of one side come from several commits: {commits}")
    return commits.pop()


def record(pr, parent_dir, change_dir, benchmark):
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    keys = sorted(set(parent_runs) & set(change_runs))
    if not keys:
        raise SystemExit("no workload and seed was run on both sides")
    seconds = {parent_runs[k]["seconds"] for k in keys} | \
        {change_runs[k]["seconds"] for k in keys}
    if len(seconds) != 1:
        raise SystemExit(f"runs of different lengths cannot be paired: {seconds}")
    env = {k: v for k, v in change_runs[keys[0]]["env"].items()
           if k not in RUN_ONLY_ENV}
    workloads = {}
    for name in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == name]
        sides = {"parent": [parent_runs[name, s] for s in seeds],
                 "change": [change_runs[name, s] for s in seeds]}
        metrics = {}
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            metrics[key] = compare(
                metric, [r["metrics"][key]["value"] for r in sides["parent"]],
                [r["metrics"][key]["value"] for r in sides["change"]])
        workloads[name] = {
            "seeds": seeds,
            "runs": {side: {"attempted": sum(r["attempted"] for r in runs),
                            "failed": sum(r["failed"] for r in runs),
                            "all_correct": all(r["correct"] for r in runs)}
                     for side, runs in sides.items()},
            "metrics": metrics,
        }
    rec = {
        "pr": pr,
        "commits": {"parent": commit_of(parent_runs[k] for k in keys),
                    "change": commit_of(change_runs[k] for k in keys)},
        "command": benchmark["command"] + ["--trace", "0",
                                           "--seconds", str(seconds.pop())],
        "environment": env,
        "workloads": workloads,
    }
    layers = per_layer(benchmark, load_runs(parent_dir, 1), load_runs(change_dir, 1))
    if layers:
        rec["per_layer"] = layers
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--parent", required=True,
                    help="results directory of the parent tree's runs")
    ap.add_argument("--change", required=True,
                    help="results directory of the change tree's runs")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    rec = record(args.pr, args.parent, args.change, benchmark)
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    print(out)


if __name__ == "__main__":
    main()
