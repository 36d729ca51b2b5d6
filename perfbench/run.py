#!/usr/bin/env python3
"""glmn benchmark: fixed workloads through the glmn CLI, timed from outside.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a glmn source tree; glmn is imported from src/ there.
NAME is one of the workloads in workloads.py, or ``all`` for every one of
them but the smoke test. The load is a closed loop with one client: one
child process at a time, each a fresh interpreter that runs
``glmn.cli.main(["run", "--config", ...])`` on a config written from the
workload and the seed, with one worker and BLAS pinned to one thread.

--trace 0 first sets up several times (import glmn and build_setting, no
tasks), then runs the whole config about S seconds' worth of times, each on
its own input set (config seed 1000 * N + i for the i-th), and reports the
end-to-end metrics as medians over those runs. Every time is reported at
one fixed CPU speed: the benchmark and its children keep to one CPU, and
while a child runs a thread of this process times the fixed work of
reference.py on that CPU; the child's times are divided by how much slower
than nominal that work ran. --trace 1 runs one plain and
one traced child (spans.py) on the first input set and reports the
per-layer metrics. Every child's report is checked against the
golden verdicts in golden/ and the workload's invariants. The last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A fuller record, with the run environment and quartiles, is printed before
it and written to .perfbench_run/results/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference
from workloads import (WORKLOADS, check_report, load_golden, make_config,
                       weights_done)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
# A run must end within 180 s; no further full child starts after this.
RUN_LIMIT_S = 100
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# Variables through which glmn (or Python) would read settings that are not
# in the generated config.
SCRUBBED_ENV = ("PYTHONPATH", "GLMN_JOBS", "GLMN_DIM_BUDGET", "GLMN_LINE_BUDGET")
TASKS = ("verma-scan", "graded-verma-scan", "levi-scan")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "task_s": "s",
    "cpu_s": "s",
    "weights_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "ffield.op_calls": "count",
    "ffield.op_elems": "count",
    "ffield.elems_per_call": "elem/call",
    "ffield.op_s": "s",
    "ffield.fields_built": "count",
    "ffield.make_field_s": "s",
    "algebra.weight_variety_s": "s",
    "algebra.field_extensions": "count",
    "linalg.rref_calls": "count",
    "linalg.rref_cells": "count",
    "linalg.rref_s": "s",
    "linalg.matmul_calls": "count",
    "linalg.matmul_macs": "count",
    "linalg.matmul_s": "s",
    "linalg.matmul_macs_per_s": "1/s",
    "enveloping.contexts": "count",
    "enveloping.multiply_calls": "count",
    "enveloping.normalize_calls": "count",
    "verma.induced_builds": "count",
    "verma.induced_dim_sum": "count",
    "verma.build_s": "s",
    "verma.maximal_vectors_calls": "count",
    "verma.maximal_vectors_s": "s",
    "analysis.spin_calls": "count",
    "analysis.spin_proper": "count",
    "analysis.spin_dim_sum": "count",
    "analysis.spin_s": "s",
    "analysis.lines_tried": "count",
    "analysis.simple_head_calls": "count",
    "analysis.simple_head_s": "s",
    "analysis.is_simple_s": "s",
    "analysis.sampled_verdicts": "count",
    "kw.levi_scan_s": "s",
    **{f"cli.task_s.{task}": "s" for task in TASKS},
    **{f"{mod}.{key}": unit
       for mod in ("ffield", "linalg", "algebra", "enveloping", "verma",
                   "analysis", "kw", "cli")
       for key, unit in (("calls", "count"), ("self_s", "s"))},
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}
# ROADMAP: the trace must attribute at least this share of the gl(2|2) run
# to named spans.
MIN_COVERAGE = {"verma-gl22-one": 0.9}


class RunError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# children

class Child:
    """One finished child process and what it left behind.

    slowdown is the factor by which the CPU ran slower than nominal while the
    child ran (reference.Probe).
    """

    def __init__(self, wall, usage, code, sidecar, report, slowdown):
        self.wall = wall
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024
        self.code = code
        self.sidecar = sidecar
        self.report = report
        self.slowdown = slowdown

    @property
    def setup(self):
        return self.sidecar["setup_s"]


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env.update(THREAD_PINS)
    return env


def pin_to_one_cpu():
    """Keep this process, its threads and children on its lowest CPU, so that
    the probe measures the CPU the child runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def spawn(tmp, config, tag, *flags):
    """Run child.py once and wait for it, probing the CPU's speed meanwhile;
    kill it after CHILD_TIMEOUT_S."""
    sidecar, out, err = (tmp / f"{tag}.{ext}" for ext in ("json", "out", "err"))
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(config),
           str(sidecar), *flags]
    with open(out, "w") as fo, open(err, "w") as fe:
        with reference.Probe() as probe:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe,
                                    env=child_env(), cwd=tmp)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    side = json.loads(sidecar.read_text()) if sidecar.exists() else None
    report = None
    if "--setup-only" not in flags and out.stat().st_size:
        try:
            report = json.loads(out.read_text())
        except json.JSONDecodeError:
            report = None
    return Child(wall, usage, code, side, report, probe.slowdown())


def child_problems(name, child, golden):
    """Why a full run is wrong; empty when its exit, report and verdicts hold."""
    if child.code != 0:
        return [f"exit code {child.code}"]
    if child.sidecar is None or child.report is None:
        return ["no report or no timings"]
    return check_report(name, child.report, golden)


def probe_problems(child):
    if child.code != 0 or child.sidecar is None:
        return [f"set-up exit code {child.code}"]
    return []


# ---------------------------------------------------------------------------
# statistics and metrics

def summary(values):
    """(median, first quartile, third quartile, count) of the samples."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def end_to_end_samples(children, probes, normalise=True):
    """Samples of every END_TO_END metric from children that passed, with
    times at nominal machine speed, or as measured when not normalise."""

    def speed(c):
        return c.slowdown if normalise else 1.0

    return {
        "setup_s": [c.setup / speed(c) for c in probes + children],
        "wall_s": [c.wall / speed(c) for c in children],
        "task_s": [(c.wall - c.setup) / speed(c) for c in children],
        "cpu_s": [c.cpu / speed(c) for c in children],
        "weights_per_s": [weights_done(c.report) * speed(c) / (c.wall - c.setup)
                          for c in children],
        "peak_rss_mb": [c.rss_mb for c in children],
    }


def layer_values(traced, plain):
    """Every PER_LAYER metric from one traced child's span totals, with
    times at nominal machine speed."""
    trace = traced.sidecar["trace"]
    calls, counts = trace["calls"], trace["counts"]
    secs = {k: v / traced.slowdown for k, v in trace["time"].items()}

    def c(group):
        return calls.get(group, 0)

    def s(group):
        return secs.get(group, 0.0)

    op_calls = c("ffield.op")
    matmul_s = s("linalg.matmul")
    out = {
        "ffield.op_calls": op_calls,
        "ffield.op_elems": counts["ffield.op_elems"],
        "ffield.elems_per_call": counts["ffield.op_elems"] / max(op_calls, 1),
        "ffield.op_s": s("ffield.op"),
        "ffield.fields_built": c("ffield.Field.__init__"),
        "ffield.make_field_s": s("ffield.make_field"),
        "algebra.weight_variety_s": s("algebra.weight_variety"),
        "algebra.field_extensions": c("ffield.Field.extend"),
        "linalg.rref_calls": c("linalg.rref"),
        "linalg.rref_cells": counts["linalg.rref_cells"],
        "linalg.rref_s": s("linalg.rref"),
        "linalg.matmul_calls": c("linalg.matmul"),
        "linalg.matmul_macs": counts["linalg.matmul_macs"],
        "linalg.matmul_s": matmul_s,
        "linalg.matmul_macs_per_s": (counts["linalg.matmul_macs"] / matmul_s
                                     if matmul_s else 0.0),
        "enveloping.contexts": c("enveloping.ReductionContext.__init__"),
        "enveloping.multiply_calls": c("enveloping.multiply"),
        "enveloping.normalize_calls": c("enveloping.normalize"),
        "verma.induced_builds": c("verma.build_induced"),
        "verma.induced_dim_sum": counts["verma.induced_dim_sum"],
        "verma.build_s": s("verma.build"),
        "verma.maximal_vectors_calls": c("verma.maximal_vectors"),
        "verma.maximal_vectors_s": s("verma.maximal_vectors"),
        "analysis.spin_calls": c("analysis.spin"),
        "analysis.spin_proper": counts["analysis.spin_proper"],
        "analysis.spin_dim_sum": counts["analysis.spin_dim_sum"],
        "analysis.spin_s": s("analysis.spin"),
        "analysis.lines_tried": counts["analysis.lines_tried"],
        "analysis.simple_head_calls": c("analysis.simple_head"),
        "analysis.simple_head_s": s("analysis.simple_head"),
        "analysis.is_simple_s": s("analysis.is_simple"),
        "analysis.sampled_verdicts": counts["analysis.sampled_verdicts"],
        "kw.levi_scan_s": s("kw.levi_scan"),
        "trace.coverage": trace["covered_s"] / traced.wall,
        "trace.overhead": (traced.wall / traced.slowdown) / (plain.wall / plain.slowdown),
    }
    for task in TASKS:
        out[f"cli.task_s.{task}"] = s(f"cli.task.{task}")
    for mod, n in trace["spans"].items():
        out[f"{mod}.calls"] = n
        out[f"{mod}.self_s"] = trace["self_s"][mod] / traced.slowdown
    return out


# ---------------------------------------------------------------------------
# one workload

def git_commit():
    """The commit of ROOT when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed, warm, load_before):
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": warm.sidecar["numpy"],
        "blas": {k: warm.sidecar["blas"].get(k)
                 for k in ("name", "version", "openblas configuration")},
        "thread_pins": THREAD_PINS,
        "commit": git_commit(),
        "seed": seed,
    }


def child_seed(seed, index):
    """The config seed of the index-th input set of a run with --seed seed."""
    return 1000 * seed + index


def repeats(name, seconds):
    """Full runs per --trace 0 run: as many as fit in --seconds at the
    workload's nominal speed. It does not depend on measured times, so two
    programs compared at the same settings get the same inputs."""
    return max(1, int(seconds // WORKLOADS[name]["nominal_s"]))


def run_workload(name, seed, seconds, trace, tmp):
    """Run one workload; returns the full record of the run."""
    golden = load_golden(name)
    load_before = os.getloadavg()
    tags = itertools.count()

    def run(index, *flags):
        config = tmp / f"{name}-config{index}.json"
        if not config.exists():
            config.write_text(json.dumps(make_config(name, child_seed(seed, index))))
        return spawn(tmp, config, f"{name}-{next(tags)}", *flags)

    # fills the bytecode cache and the page cache; not measured
    warm = run(0, "--setup-only")
    if probe_problems(warm):
        stderr = (tmp / f"{name}-0.err").read_text()
        raise RunError(f"{name}: set-up fails:\n{stderr}")
    problems, attempted, failed = [], 0, 0

    def judge(child, full=True):
        nonlocal attempted, failed
        found = child_problems(name, child, golden) if full else probe_problems(child)
        attempted += 1
        if found:
            failed += 1
            problems.extend(found[:20])
        return not found

    start = time.perf_counter()
    if not trace:
        probes = [c for c in (run(0, "--setup-only") for _ in range(SETUP_PROBES))
                  if judge(c, full=False)]
        children = []
        for index in range(repeats(name, seconds)):
            if index and time.perf_counter() - start > RUN_LIMIT_S:
                break
            child = run(index)
            if not judge(child):
                break
            children.append(child)
        samples = end_to_end_samples(children, probes)
        measured = {k: summary(v)[0] for k, v in
                    end_to_end_samples(children, probes, False).items() if v}
        measured["slowdown"] = summary(
            [c.slowdown for c in probes + children])[0] if children else None
        units = END_TO_END
    else:
        plain, traced = run(0), run(0, "--trace")
        samples = {}
        if judge(plain) & judge(traced):
            samples = {key: [value] for key, value in
                       layer_values(traced, plain).items()}
        measured = {"slowdown": traced.slowdown}
        units = PER_LAYER
    metrics = {}
    for key, unit in units.items():
        if samples.get(key):
            med, q1, q3, n = summary(samples[key])
            metrics[key] = {"value": med, "unit": unit, "q1": q1, "q3": q3,
                            "n": n}
    if trace and name in MIN_COVERAGE and "trace.coverage" in metrics:
        cov = metrics["trace.coverage"]["value"]
        if cov < MIN_COVERAGE[name]:
            problems.append(f"trace.coverage {cov:.3f} below "
                            f"{MIN_COVERAGE[name]} on {name}")
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "elapsed_s": time.perf_counter() - start,
        "env": environment(seed, warm, load_before),
        "correct": not problems and len(metrics) == len(units),
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / max(attempted, 1),
        "problems": problems, "metrics": metrics, "measured": measured,
    }


def print_record(rec, out=sys.stdout):
    out.write(f"== {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}"
              f"  ({rec['elapsed_s']:.1f} s)\n")
    out.write("env " + json.dumps(rec["env"], sort_keys=True) + "\n")
    for key, m in rec["metrics"].items():
        out.write(f"  {key:<30} {m['value']:>14.6g} {m['unit']:<9} "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}\n")
    out.write("  as measured, before scaling to nominal speed: "
              + ", ".join(f"{k} {v:.6g}" for k, v in rec["measured"].items()
                          if v is not None) + "\n")
    out.write(f"  {'failed_ratio':<30} {rec['failed_ratio']:>14.6g} "
              f"{'ratio':<9} ({rec['failed']}/{rec['attempted']} runs)\n")
    for p in rec["problems"]:
        out.write(f"  PROBLEM {p}\n")
    out.flush()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "glmn" / "__init__.py").is_file():
        print(f"perfbench: no glmn sources in {SRC}", file=sys.stderr)
        return 2
    names = ([n for n in WORKLOADS if n != "smoke"] if args.workload == "all"
             else [args.workload])
    pin_to_one_cpu()
    tmp = WORK / f"tmp-{os.getpid()}"
    results = WORK / "results"
    tmp.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    records = []
    try:
        for name in names:
            rec = run_workload(name, args.seed, args.seconds, args.trace, tmp)
            (results / f"{name}-seed{args.seed}-trace{args.trace}.json"
             ).write_text(json.dumps(rec, indent=2, sort_keys=True))
            print_record(rec)
            records.append(rec)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if len(records) == 1:
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in records[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}/{k}": {"value": m["value"], "unit": m["unit"]}
                   for r in records for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
