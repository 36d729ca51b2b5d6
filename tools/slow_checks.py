#!/usr/bin/env python3
"""Run the configs too slow for tier-1, each in a fresh interpreter.

usage: python3 tools/slow_checks.py [TREE] [--out DIR]

Each config below runs as ``python -m glmn.cli run --config FILE`` with
glmn imported from TREE/src (default: the tree holding this script) and
BLAS pinned to one thread.  A config with ``expect`` 0 must exit 0 with
``"passed": true``; one with ``expect`` 2 must exit 2 with one ``error:``
line.  For each config the script prints the exit code, the wall time and
the child's peak RSS (``os.wait4``); with --out it also writes each report
to DIR/<name>.json, so that two trees' reports can be compared.  Exits 1
unless every config behaves as expected.

Each child's address space is capped at MEMORY_CAP bytes, so a tree that
builds a huge algebra before refusing it fails with a MemoryError instead
of exhausting the machine (an unchecked ``frobenius-check`` or
``structure-check`` at m = 100000 grows past 7 GB within seconds).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MEMORY_CAP = 4 << 30
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
]


def cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run(tree, cfg):
    """(exit code, stdout, stderr, wall seconds, peak RSS in MB) of one run."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        with open(Path(tmp) / "out", "w+") as out, open(Path(tmp) / "err", "w+") as err:
            start = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, "-m", "glmn.cli", "run", "--config", str(path)],
                stdout=out, stderr=err, env=env, cwd=tmp, preexec_fn=cap_memory)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
            # reaped here, so Popen must not wait for it again
            child.returncode = code = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return code, out.read(), err.read(), wall, usage.ru_maxrss / 1024


def check(expect, code, stdout, stderr):
    """Whether one run behaved as its config expects."""
    if code != expect:
        return False
    if expect == 2:
        return stderr.startswith("error:") and stderr.count("\n") == 1
    return json.loads(stdout)["passed"] is True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree", nargs="?", default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    ok = True
    for name, expect, overrides in CONFIGS:
        code, stdout, stderr, wall, rss = run(args.tree, {**BASE, **overrides})
        good = check(expect, code, stdout, stderr)
        ok = ok and good
        print(f"{name:24s} exit {code}  {wall:7.2f} s  {rss:7.1f} MB  "
              f"{'ok' if good else 'FAILED'}", flush=True)
        if not good:
            print(stderr, end="", file=sys.stderr)
        if args.out and stdout:
            os.makedirs(args.out, exist_ok=True)
            Path(args.out, f"{name}.json").write_text(stdout)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
