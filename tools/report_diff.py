#!/usr/bin/env python3
"""Compare the scan reports of two source trees byte for byte.

usage: python3 tools/report_diff.py PARENT_TREE [TREE]

Runs each config of CONFIGS, a fixed matrix of 108 scans (gl(1|1), gl(2|1)
and gl(1|2); p = 5 and 7; chi = 0, chi(E21) = 1 and chi = diag(1, ..., 1);
verma-scan and graded-verma-scan; JSON, CSV and table output) and 18 more
over fields given as extensions, with chi values outside F_p where the
Frobenius x -> x^p does not fix chi (three settings, both scans, each
output), and 6 that run both scans in one report (gl(2|1), p = 5, chi = 0
and chi = diag(1, 1, 1), which runs over F_{5^5}; each output), 132 scan
configs, as ``python -m glmn.cli run --config FILE --format FMT``.  13 more
check the front end on gl(2|1) at p = 5: the five tasks that are no scan in
one report at chi = 0 and at chi(E21) = 1 (each output); the commands scan,
kw, levi and check on one config; one run with --dump-module and
--dump-element; kw-verify at chi(E22) = 1, which exits 1, and an unknown
task, which exits 2.  9 more run each of the seven tasks alone on that
config (JSON), and structure-check alone in CSV and table.  3 more run
kw-verify (JSON) where Phi' is not empty, so that the KW module is induced
from the head of a Levi Verma: gl(2|1) and gl(1|2) at chi(E11) = 1 and
gl(2|2) at chi(E11) = chi(E22) = 1.  2 more run gl(3|1) at lambda =
(0, 4, 3, 1), where the certificate does not apply: verma-scan (JSON) at
chi = 0, decided by the line of M*'s socle over n-, and graded-verma-scan
(JSON) at chi(E31) = 1, no character of n-, whose verdict the descent
takes.  159 in all.
glmn is imported from each tree's src (TREE defaults to the tree holding
this script), and each config runs once to stdout and once with ``--out
DIR``.  Both trees run with the same config
path, output directory and working directory, so that any path they print
matches.  For each run it compares stdout, stderr, the exit code, every file
under DIR and every file written to the working directory (the dumps); for
each difference it prints the config, the output and the first differing
byte.  Exits 1 if anything differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ALGEBRAS = {"gl11": (1, 1), "gl21": (2, 1), "gl12": (1, 2)}
CHIS = {"chi0": lambda d: {}, "E21": lambda d: {"E(2,1)": 1},
        "diag": lambda d: {f"E({i},{i})": 1 for i in range(1, d + 1)}}
TASKS = ("verma-scan", "graded-verma-scan")
FORMATS = ("json", "csv", "table")
# (name, config, format, command, more arguments); chi(E21) lies on an odd
# unit of gl(1|1), whose configs exit 2 in both trees
CONFIGS = [(f"{alg}-p{p}-{chi}-{task}-{fmt}",
            {"p": p, "m": ALGEBRAS[alg][0], "n": ALGEBRAS[alg][1],
             "chi": CHIS[chi](sum(ALGEBRAS[alg])), "tasks": [task], "seed": 1}, fmt, "run", ())
           for alg, p, chi, task, fmt in itertools.product(ALGEBRAS, (5, 7), CHIS, TASKS, FORMATS)]
# p = 5 over F_25, F_{5^4} and F_{5^5}: chi = 0; chi(E11) = chi(E22) = a
# with a in F_25, a^4 = -1, fixed by phi^2 but not phi; chi = diag(1, 1, 1)
# with chi(E21) = x, fixed by no power of phi below the fifth.  A value
# outside F_p is a coefficient list, as a plain int is read mod p.
EXTENSIONS = {
    "gl21-q25-chi0": {"m": 2, "n": 1, "field_degree": 2, "chi": {}},
    "gl11-q625-a": {"m": 1, "n": 1, "field_degree": 4,
                    "chi": {"E(1,1)": [4, 0, 3, 1], "E(2,2)": [4, 0, 3, 1]}},
    "gl21-q3125-diag-E21x": {"m": 2, "n": 1, "field_degree": 5,
                             "chi": {**CHIS["diag"](3), "E(2,1)": [0, 1]}},
}
CONFIGS += [(f"{name}-{task}-{fmt}", {"p": 5, **cfg, "tasks": [task], "seed": 1}, fmt, "run", ())
            for (name, cfg), task, fmt in itertools.product(EXTENSIONS.items(), TASKS, FORMATS)]
# both scans in one report, which CSV writes as one block per scan
CONFIGS += [(f"gl21-p5-{chi}-both-scans-{fmt}",
             {"p": 5, "m": 2, "n": 1, "chi": CHIS[chi](3), "tasks": list(TASKS), "seed": 1},
             fmt, "run", ())
            for chi, fmt in itertools.product(("chi0", "diag"), FORMATS)]
# the front end: the tasks that are no scan, each command, both dumps, a
# task that fails (exit 1) and an unknown task (exit 2)
OTHER = ["structure-check", "kw-verify", "levi-scan", "frobenius-check", "regular-module-check"]
GL21 = {"p": 5, "m": 2, "n": 1, "chi": CHIS["E21"](3), "tasks": OTHER, "seed": 1}
CONFIGS += [(f"gl21-p5-{chi}-other-tasks-{fmt}", dict(GL21, chi=CHIS[chi](3)), fmt, "run", ())
            for chi, fmt in itertools.product(("chi0", "E21"), FORMATS)]
CONFIGS += [(f"gl21-p5-E21-{command}-json", GL21, "json", command, ())
            for command in ("scan", "kw", "levi", "check")]
CONFIGS += [("gl21-p5-E21-dumps-json", dict(GL21, tasks=["verma-scan"]), "json", "run",
             ("--dump-module", "module.txt", "--dump-element", "element.txt")),
            ("gl21-p5-E22-kw-verify-json", dict(GL21, chi={"E(2,2)": 1}, tasks=["kw-verify"]),
             "json", "run", ()),
            ("gl21-p5-unknown-task-json", dict(GL21, tasks=["no-such-task"]), "json", "run", ())]
# each task alone, so that no task's report rests on a module that only
# another task of the same run imports; structure-check in each output
ALONE = [(task, "json") for task in ("structure-check", *TASKS, *OTHER[1:])]
ALONE += [("structure-check", "csv"), ("structure-check", "table")]
CONFIGS += [(f"gl21-p5-E21-{task}-alone-{fmt}", dict(GL21, tasks=[task]), fmt, "run", ())
            for task, fmt in ALONE]
# kw-verify where Phi' is not empty, so the KW module is induced from the
# head of a Levi Verma: (1,2), (1,3) on gl(2|1) and gl(1|2) at chi(E11) = 1,
# and (2,3), (1,3), (2,4), (1,4) on gl(2|2) at chi(E11) = chi(E22) = 1
LEVI_HEADS = {"gl21-p5-E11": (2, 1, {"E(1,1)": 1}), "gl12-p5-E11": (1, 2, {"E(1,1)": 1}),
              "gl22-p5-E11-E22": (2, 2, {"E(1,1)": 1, "E(2,2)": 1})}
CONFIGS += [(f"{name}-kw-verify-json",
             {"p": 5, "m": m, "n": n, "chi": chi, "tasks": ["kw-verify"], "seed": 1},
             "json", "run", ())
            for name, (m, n, chi) in LEVI_HEADS.items()]
# gl(3|1), where the certificate declines: the socle line over n- decides
# chi = 0, and the descent chi(E31) = 1, which is no character of n-
CONFIGS += [("gl31-p5-chi0-lam0431-verma-scan-json",
             {"p": 5, "m": 3, "n": 1, "chi": {}, "lambda": [0, 4, 3, 1],
              "tasks": ["verma-scan"], "seed": 1}, "json", "run", ()),
            ("gl31-p5-E31-lam0431-graded-verma-scan-json",
             {"p": 5, "m": 3, "n": 1, "chi": {"E(3,1)": 1}, "lambda": [0, 4, 3, 1],
              "tasks": ["graded-verma-scan"], "seed": 1}, "json", "run", ())]


def outputs(tree, config, tmp, out):
    """{output name: bytes} of one run of tree on config under the directory
    tmp: stdout, stderr and the exit code, each file written to the working
    directory, and with out each file written to the --out directory."""
    _, cfg, fmt, command, more = config
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    path, out_dir, cwd = Path(tmp) / "cfg.json", Path(tmp) / "out", Path(tmp) / "cwd"
    path.write_text(json.dumps(cfg))
    for d in (out_dir, cwd):
        shutil.rmtree(d, ignore_errors=True)
    cwd.mkdir()
    argv = [sys.executable, "-m", "glmn.cli", command, "--config", str(path), "--format", fmt]
    run = subprocess.run([*argv, *more] + ["--out", str(out_dir)] * out, env=env, cwd=cwd,
                         capture_output=True)
    found = {"stdout": run.stdout, "stderr": run.stderr, "exit code": b"%d" % run.returncode}
    for label, top in (("file", cwd), ("--out", out_dir)):
        if top.is_dir():
            found.update((f"{label} {p.relative_to(top)}", p.read_bytes())
                         for p in sorted(top.rglob("*")) if p.is_file())
    return found


def first_difference(a, b):
    """The offset of the first byte where a and b differ (their common
    length when one is a prefix of the other)."""
    return next((t for t, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def differences(parent, tree, configs=CONFIGS):
    """One line for each output of configs in which tree differs from parent."""
    with tempfile.TemporaryDirectory() as tmp:
        for config, out in itertools.product(configs, (False, True)):
            name = config[0]
            before, after = (outputs(t, config, tmp, out) for t in (parent, tree))
            for key in sorted(set(before) | set(after)):
                a, b = before.get(key), after.get(key)
                if a is None or b is None:
                    yield f"{name} {'--out' if out else 'stdout'}: {key} only in one tree"
                elif a != b:
                    t = first_difference(a, b)
                    yield (f"{name} {'--out' if out else 'stdout'}: {key} differs at byte {t}: "
                           f"{a[t:t + 16]!r} != {b[t:t + 16]!r}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("tree", nargs="?", default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    found = 0
    for line in differences(args.parent, args.tree, CONFIGS):
        print(line, flush=True)
        found += 1
    print(f"{len(CONFIGS)} configs, each to stdout and under --out: {found} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
