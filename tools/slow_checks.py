#!/usr/bin/env python3
"""Run the configs too slow for tier-1, each in a fresh interpreter.

usage: python3 tools/slow_checks.py [TREE] [--out DIR]
       python3 tools/slow_checks.py TREE --parent PARENT --pairs N
                                    [--only NAME ...] [--record FILE]

Each config below runs as ``python -m glmn.cli run --config FILE`` with
glmn imported from TREE/src (default: the tree holding this script) and
BLAS pinned to one thread.  A config with ``expect`` 0 must exit 0 with
``"passed": true``; one with ``expect`` 2 must exit 2 with one ``error:``
line.  For each config the script prints the exit code, the wall time and
the child's peak RSS (``os.wait4``); with --out it also writes each report
to DIR/<name>.json, so that two trees' reports can be compared.  Exits 1
unless every config behaves as expected.  A report is kept in a file, not
in memory: one above PARSE_LIMIT bytes (``scan-gl11-p1409`` writes about
940 MB) is checked by its top-level ``"passed"`` line, which the CLI's
``json`` output (sorted keys, indent 2) puts alone at two spaces in.

Pair mode (--parent and --pairs) compares TREE with PARENT: each config,
or each named by --only, runs N alternating pairs of fresh interpreters,
PARENT first on odd pairs and TREE first on even ones, both sides of a
pair with the same config path and working directory.  Each pair's reports
(stdout) must be byte-identical and each run must behave as its config
expects.  For each config and side it prints the median [q1, q3] of the
wall time and of the peak RSS, and in how many pairs TREE's is the lower;
--record FILE writes the same figures, and every run's, as JSON.  Exits 1
on any report difference or unexpected exit.

Each child's address space is capped at MEMORY_CAP bytes, so a tree that
builds a huge algebra before refusing it fails with a MemoryError instead
of exhausting the machine (an unchecked ``frobenius-check`` or
``structure-check`` at m = 100000 grows past 7 GB within seconds).
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MEMORY_CAP = 4 << 30
PARSE_LIMIT = 64 << 20
BASE = {"p": 5, "chi": {}, "seed": 1}
CONFIGS = [
    ("levi-gl31-E21-lam0", 0, {"m": 3, "n": 1, "chi": {"E(2,1)": 1},
                               "lambda": [0, 0, 0, 0], "tasks": ["levi-scan"]}),
    ("levi-gl31-chi0-lam0431", 0, {"m": 3, "n": 1, "lambda": [0, 4, 3, 1],
                                   "tasks": ["levi-scan"]}),
    ("regular-gl22", 0, {"m": 2, "n": 2, "lambda": [0, 0, 0, 0],
                         "tasks": ["regular-module-check"]}),
    # u(n-) of dimension 5^3 * 2^3 = 1,000: its Gram read off the left
    # regular module
    ("frobenius-gl31", 0, {"m": 3, "n": 1, "lambda": [0, 0, 0, 0],
                           "tasks": ["frobenius-check"]}),
    ("frobenius-huge", 2, {"m": 100000, "n": 1, "lambda": "scan-all-X",
                           "tasks": ["frobenius-check"]}),
    ("structure-huge", 2, {"m": 100000, "n": 1, "lambda": "scan-all-X",
                           "tasks": ["structure-check"]}),
    # the largest algebra the structure budget admits: 12^6 <= 2000^2
    ("structure-gl66", 0, {"m": 6, "n": 6, "lambda": [0] * 12,
                           "tasks": ["structure-check"]}),
    # 625 weights of dimension 400, in stages over all of them: one baby
    # Verma's actions exceed the stacked-build budget, so each stack holds one
    ("scan-gl22-chi0", 0, {"m": 2, "n": 2, "lambda": "scan-all-X",
                           "tasks": ["verma-scan"]}),
    # within the structure budget (10^6 <= 2000^2); X holds 5^10 weights,
    # which no task of this config reads
    ("structure-gl55-X", 0, {"m": 5, "n": 5, "lambda": "scan-all-X",
                             "tasks": ["structure-check"]}),
    # no task, so only the budget of the algebra's own bracket table applies
    ("empty-huge", 2, {"m": 100, "n": 1, "lambda": [0] * 101, "tasks": []}),
    # X of gl(1|1) holds 10007^2 weights of 2 coordinates, above 2000^2
    ("scan-gl11-p10007", 2, {"m": 1, "n": 1, "p": 10007, "lambda": "scan-all-X",
                             "tasks": ["verma-scan"]}),
    # 625 graded Vermas Z(M), f_direct read off each: no baby Verma of dim
    # 400 is built
    ("graded-gl22-chi0", 0, {"m": 2, "n": 2, "lambda": "scan-all-X",
                             "tasks": ["graded-verma-scan"]}),
    # one weight whose Z(M) is far smaller than its baby Verma of dim 1,000
    ("graded-gl31-lam0431", 0, {"m": 3, "n": 1, "lambda": [0, 4, 3, 1],
                                "tasks": ["graded-verma-scan"]}),
    # the prime axis: 2,401 weights of dimension 784 at p = 7, one built per
    # twist orbit of 7
    ("scan-gl22-p7", 0, {"m": 2, "n": 2, "p": 7, "lambda": "scan-all-X",
                         "tasks": ["verma-scan"]}),
    # the largest gl(1|1) X the weight budget admits (1423 is refused):
    # 1409^2 weights, each a report row, in 1409 twist orbits
    ("scan-gl11-p1409", 0, {"m": 1, "n": 1, "p": 1409, "lambda": "scan-all-X",
                            "tasks": ["verma-scan"]}),
    # 625 weights over F_{5^5}, one Z(M) built per orbit of 25 under the
    # twists and Frobenius, which here fixes chi
    ("graded-gl22-diag", 0, {"m": 2, "n": 2, "chi": {f"E({i},{i})": 1 for i in range(1, 5)},
                             "lambda": "scan-all-X", "tasks": ["graded-verma-scan"]}),
]


def cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run(tree, cfg, tmp):
    """(exit code, stdout's path, stderr, wall seconds, peak RSS in MB) of
    one run in the directory tmp."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    path = Path(tmp) / "cfg.json"
    path.write_text(json.dumps(cfg))
    with open(Path(tmp) / "out", "w") as out, open(Path(tmp) / "err", "w+") as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "glmn.cli", "run", "--config", str(path)],
            stdout=out, stderr=err, env=env, cwd=tmp, preexec_fn=cap_memory)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        # reaped here, so Popen must not wait for it again
        child.returncode = code = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return code, Path(out.name), err.read(), wall, usage.ru_maxrss / 1024


def check(expect, code, stdout, stderr):
    """Whether one run behaved as its config expects; stdout is a path."""
    if code != expect:
        return False
    if expect == 2:
        return stderr.startswith("error:") and stderr.count("\n") == 1
    if stdout.stat().st_size <= PARSE_LIMIT:
        return json.loads(stdout.read_text())["passed"] is True
    with open(stdout) as fh:
        return '  "passed": true,\n' in fh


def spread(values):
    """{"median", "q1", "q3"} of values (inclusive quartiles)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def pair_config(trees, name, expect, cfg, pairs):
    """The record of one config's alternating pairs (see the module's
    docstring), and whether every pair ran as expected with equal reports."""
    runs = {side: {"wall_s": [], "peak_rss_mb": []} for side in trees}
    ok, differences = True, 0
    for k in range(pairs):
        with tempfile.TemporaryDirectory() as tmp:
            outs = {}
            for side in (("parent", "tree") if k % 2 == 0 else ("tree", "parent")):
                code, stdout, stderr, wall, rss = run(trees[side], cfg, tmp)
                if not check(expect, code, stdout, stderr):
                    ok = False
                    print(f"{name} pair {k + 1}: {side} exit {code}, not as expected\n{stderr}",
                          end="", file=sys.stderr)
                outs[side] = stdout.rename(Path(tmp) / f"{side}.out")
                runs[side]["wall_s"].append(wall)
                runs[side]["peak_rss_mb"].append(rss)
            if not filecmp.cmp(outs["parent"], outs["tree"], shallow=False):
                ok, differences = False, differences + 1
                print(f"{name} pair {k + 1}: the reports differ", file=sys.stderr)
    lower = {m: sum(t < p for t, p in zip(runs["tree"][m], runs["parent"][m]))
             for m in ("wall_s", "peak_rss_mb")}
    record = {side: {m: spread(v) for m, v in runs[side].items()} for side in trees}
    print(f"{name}: {pairs} pairs, {differences} report differences")
    for side in trees:
        w, r = record[side]["wall_s"], record[side]["peak_rss_mb"]
        print(f"  {side:6s}  {w['median']:7.2f} s [{w['q1']:.2f}, {w['q3']:.2f}]  "
              f"{r['median']:7.1f} MB [{r['q1']:.1f}, {r['q3']:.1f}]", flush=True)
    print(f"  tree lower in {lower['wall_s']}/{pairs} (wall), "
          f"{lower['peak_rss_mb']}/{pairs} (peak RSS)", flush=True)
    return {**record, "lower": lower, "differences": differences, "runs": runs}, ok


def pair_mode(args):
    trees = {"parent": str(args.parent), "tree": str(args.tree)}
    record, ok = {**trees, "pairs": args.pairs, "configs": {}}, True
    for name, expect, overrides in CONFIGS:
        if not args.only or name in args.only:
            entry, good = pair_config(trees, name, expect, {**BASE, **overrides}, args.pairs)
            record["configs"][name], ok = entry, ok and good
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree", nargs="?", default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--out", default=None)
    parser.add_argument("--parent", default=None)
    parser.add_argument("--pairs", type=int, default=None)
    parser.add_argument("--only", nargs="+", default=None, metavar="NAME")
    parser.add_argument("--record", default=None, metavar="FILE")
    args = parser.parse_args(argv)
    if (args.parent is None) != (args.pairs is None) or (args.pairs or 1) < 1:
        parser.error("pair mode takes both --parent and --pairs N, N >= 1")
    if args.parent is None and (args.only or args.record):
        parser.error("--only and --record are for pair mode")
    if args.parent is not None and args.out:
        parser.error("--out is for the single-run mode")
    if unknown := set(args.only or ()) - {name for name, _, _ in CONFIGS}:
        parser.error(f"unknown config: {', '.join(sorted(unknown))}")
    if args.parent is not None:
        return pair_mode(args)
    ok = True
    for name, expect, overrides in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, stderr, wall, rss = run(args.tree, {**BASE, **overrides}, tmp)
            good = check(expect, code, stdout, stderr)
            ok = ok and good
            print(f"{name:24s} exit {code}  {wall:7.2f} s  {rss:7.1f} MB  "
                  f"{'ok' if good else 'FAILED'}", flush=True)
            if not good:
                print(stderr, end="", file=sys.stderr)
            if args.out and stdout.stat().st_size:
                os.makedirs(args.out, exist_ok=True)
                shutil.copyfile(stdout, Path(args.out, f"{name}.json"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
