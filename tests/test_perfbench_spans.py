"""The benchmark's tracer wraps methods it looks up by name.

perfbench/spans.py reads ``cls.__dict__[meth]`` for every name in its
METHODS table, so renaming or moving one of those methods breaks the traced
benchmark run with a KeyError.  Its is_simple hook reads the verdict's
``probabilistic``.  These tests read the tracer from the source (executing
it in a fresh namespace, so nothing is written beside it) and check it
against glmn, and run the traced child on the configs of the graded and
the levi workloads.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

from glmn.algebra import Character, Weight, build_algebra
from glmn.analysis import _top_coordinate, is_simple
from glmn.ffield import make_field
from glmn.series import regular_module
from glmn.verma import build_baby_verma

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SRC = Path(__file__).resolve().parents[1] / "src"


def _spans_namespace():
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace


def test_every_traced_method_exists_in_its_class():
    methods = _spans_namespace()["METHODS"]
    assert methods
    for (module, cls_name), names in methods.items():
        cls = getattr(importlib.import_module(f"glmn.{module}"), cls_name)
        missing = [name for name in names if name not in cls.__dict__]
        assert not missing, f"{module}.{cls_name} lacks {missing}"


def test_is_simple_hook_counts_no_sampled_verdict():
    namespace = _spans_namespace()
    tracer = namespace["Tracer"]()
    hook = namespace["HOOKS"]["analysis.is_simple"]
    alg = build_algebra(1, 1, make_field(5))
    chi = Character(alg, {})
    verma = build_baby_verma(alg, chi, Weight(alg.field, [1, 3]))
    rs = alg.root_system()
    regular = regular_module(alg, [rs.f_unit(r) for r in rs.positive], chi)
    # the Verma takes the dual-spin certificate, the regular module the socle line
    assert _top_coordinate(verma) is not None and _top_coordinate(regular) is None
    for M in (verma, regular):
        hook(tracer, (M,), is_simple(M), ["analysis.is_simple"])
    assert tracer.counts["analysis.sampled_verdicts"] == 0


def test_traced_graded_scan_exits_zero(tmp_path):
    # the benchmark's traced run of its graded workload: every span hook must
    # accept what glmn passes it (a 2-D matmul, one module from
    # build_induced), or the child exits 1
    config = tmp_path / "graded.json"
    config.write_text(json.dumps({
        "p": 5, "m": 2, "n": 1, "chi": {"E(1,1)": 1, "E(2,2)": 1, "E(3,3)": 1},
        "lambda": "scan-all-X", "tasks": ["graded-verma-scan"], "seed": 1,
        "jobs": 1}))
    sidecar = tmp_path / "sidecar.json"
    child = subprocess.run(
        [sys.executable, str(SPANS.parent / "child.py"), str(SRC), str(config),
         str(sidecar), "--trace"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout)["passed"]
    trace = json.loads(sidecar.read_text())["trace"]
    assert trace["calls"]["verma.build"] > 0 and trace["calls"]["linalg.matmul"] > 0
    # the benchmark counts induced modules as build_induced calls: 5 each
    # of even-part and graded Vermas, one per orbit of the 125 weights under
    # the twists and Frobenius; f_direct is read off the graded ones, so no
    # baby Verma is built
    assert trace["calls"]["verma.build_induced"] == 10


def test_traced_levi_scan_exits_zero(tmp_path):
    # the benchmark's traced run of its levi workload: the staged scan passes
    # the span hooks stacked products through _matmul only, and spins the
    # certificates without analysis.spin
    config = tmp_path / "levi.json"
    config.write_text(json.dumps({
        "p": 5, "m": 2, "n": 1, "chi": {"E(2,1)": 1}, "lambda": "scan-all-X",
        "tasks": ["levi-scan"], "seed": 1, "jobs": 1}))
    sidecar = tmp_path / "sidecar.json"
    child = subprocess.run(
        [sys.executable, str(SPANS.parent / "child.py"), str(SRC), str(config),
         str(sidecar), "--trace"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["passed"] and len(report["tasks"][0]["record"]["reports"]) == 5
    trace = json.loads(sidecar.read_text())["trace"]
    assert trace["calls"]["kw.levi_scans"] == 1 and trace["calls"]["linalg.matmul"] > 0
    # five weights of one alpha each: Z(lambda), Z(s_alpha . lambda), Z_L(lambda)
    assert trace["calls"]["verma.build_induced"] == 15
