"""The scan's stages against the per-module paths they replaced.

A scan runs in stages over all its weights: the
closed formulas of every weight as field-array operations (f_formulas),
the even Vermas, their simple heads grouped by (root_key, top coordinate)
(simple_heads: one R per group, all from one _dual_cores pass, and one
stacked quotient per group), the
g_0bar axiom check of every M, and then the graded and baby Vermas, built
and consumed one stack at a time.  Here the grouped heads must equal
simple_head taken one module at a time, the array formulas the scalar
closed form at every weight, the staged reports must pass, a corrupt M in
any layout must stop the scan before any graded
Verma is built, and the scan's heap peak must stay near that of the scan
in chunks of nine weights that the stages replaced.
"""

import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from glmn import analysis, cli, enveloping, verma
from glmn.algebra import Character, build_algebra, classify_character, weight_variety
from glmn.analysis import simple_head, simple_heads
from glmn.errors import NotG0Module
from glmn.ffield import FieldElement, make_field
from glmn.verma import (ModuleRep, build_even_vermas, build_graded_vermas,
                        build_simple_g0_modules, f_formula, f_formulas)

from test_stacked import SETTINGS, corrupted, setting


def keyless(M):
    """M without its root key and context, so no group and no memo."""
    return ModuleRep(M.algebra, M.chi, M.units, M.actions, M.parity,
                     highest_vector=M.highest_vector, lam=M.lam)


def assert_same_head(got, want):
    (R, head), (R_want, head_want) = got, want
    assert np.array_equal(R.basis, R_want.basis) and R.pivots == R_want.pivots
    assert np.array_equal(head.actions, head_want.actions)
    assert np.array_equal(head.parity, head_want.parity)
    assert np.array_equal(head.highest_vector, head_want.highest_vector)
    assert head.units == head_want.units and head.lam == head_want.lam
    assert head.root_key == head_want.root_key


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_grouped_heads_equal_one_at_a_time(name):
    alg, chi, weights = setting(name)
    Es = [E for stack in build_even_vermas(alg, chi, weights) for E in stack]
    assert len(Es) == 125
    groups = {(id(E.ctx), E.root_key, analysis._top_coordinate(E)) for E in Es}
    assert 1 < len(groups) < len(Es)
    passes = []
    real = analysis._dual_cores

    def counting(Ms, tops):
        passes.append(len(Ms))
        return real(Ms, tops)

    with mock.patch.object(analysis, "_dual_cores", counting):
        grouped = simple_heads(Es)
    # one pass, one R per group
    assert passes == [len(groups)]
    for E, got in zip(Es, grouped):
        assert_same_head(got, simple_head(E))
        # a module without a key reads no memo and is a group of its own
        assert_same_head(got, simple_head(keyless(E)))
    # keyed and keyless modules mixed keep their order
    mixed = [M for E in Es[:10] for M in (E, keyless(E))]
    for got, want in zip(simple_heads(mixed), [g for g in grouped[:10] for _ in (0, 1)]):
        assert_same_head(got, want)


def reference_formula(rs, lam):
    """(f, f0, f1) at one weight, one scalar field operation at a time."""
    f = rs.algebra.field
    f0 = f1 = 1
    for r in rs.positive_even:
        x = f.add(rs.weight_on_coroot(lam, r), rs.rho_value(r))
        f0 = f.mul(f0, f.sub(f.power(x, f.p - 1), 1))
    for r in rs.positive_odd:
        x = f.add(rs.weight_on_coroot(lam, r), rs.rho_value(r))
        f1 = f.mul(f1, f.sub(x, 1))
    return f.mul(f0, f1), f0, f1


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_array_formulas_equal_the_scalar_formula(name):
    alg, chi, weights = setting(name)
    rs = alg.root_system()
    arrays = f_formulas(rs, np.array([lam.coords for lam in weights]))
    assert all(a.shape == (125,) for a in arrays)
    for t, lam in enumerate(weights):
        want = reference_formula(rs, lam)
        assert tuple(int(a[t]) for a in arrays) == want
        polys = f_formula(rs, lam)
        assert (polys.f_formula, polys.f0, polys.f1) == tuple(
            FieldElement(alg.field, v) for v in want)


CONFIGS = {
    "gl21-chi0-both": {"m": 2, "n": 1, "chi": {},
                       "tasks": ["verma-scan", "graded-verma-scan"]},
    "gl21-diag-graded": {"m": 2, "n": 1, "chi": {"E(1,1)": 1, "E(2,2)": 1, "E(3,3)": 1},
                         "tasks": ["graded-verma-scan"]},
    "gl21-E21-both": {"m": 2, "n": 1, "chi": {"E(2,1)": 1},
                      "tasks": ["verma-scan", "graded-verma-scan"]},
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_staged_scan_reports_pass(name, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(CONFIGS[name], p=5, seed=3, **{"lambda": "scan-all-X"})))
    assert cli.main(["run", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert all(task["record"]["count"] == 125 for task in report["tasks"])


@pytest.mark.parametrize("graded", [False, True])
def test_a_second_serial_scan_on_one_algebra_straightens_no_plan(graded):
    # the serial scan runs on the algebra it is given, so the plans the first
    # scan straightened serve the second
    alg = build_algebra(2, 1, make_field(5))
    alg, chi, weights = weight_variety(alg, Character(alg, {}))
    semisimple = classify_character(alg.root_system(), chi).semisimple
    real, made = enveloping.multiply, []

    def counted(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    reports, products = [], []
    for _ in range(2):
        with mock.patch.object(enveloping, "multiply", counted), \
                mock.patch.object(verma, "multiply", counted), \
                mock.patch.object(analysis, "multiply", counted):
            reports.append(cli._run_scan(alg, chi, weights, graded, semisimple))
        products.append(len(made))
        made.clear()
    assert products[0] > 0 and products[1] == 0
    assert len(reports[1]) == 125 and reports[1] == reports[0]


@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_a_corrupt_m_in_any_layout_stops_the_scan_before_any_graded_build(dim, where):
    # the scan's heads with one M of the layout of this dimension given a
    # wrong p-th power; the dimension-5 layout is checked in three stacks,
    # and its last M sits in the third
    alg, chi, weights = setting("F5^5-diag")
    real_heads = cli.build_simple_g0_modules
    graded_builds = []
    real_blocks = verma._plan_blocks

    def corrupt_heads(algebra, chi_, lams):
        Ms = real_heads(algebra, chi_, lams)
        idx = [t for t, M in enumerate(Ms) if M.dim == dim]
        assert len(idx) == 25
        t = idx[0] if where == "first" else idx[-1]
        Ms[t] = corrupted(Ms[t], "p-th power")
        return Ms

    def blocks(ctx, layout, acting, B):
        if layout.nfree == len(alg.root_system().positive_odd):
            graded_builds.append(B)
        return real_blocks(ctx, layout, acting, B)

    semisimple = classify_character(alg.root_system(), chi).semisimple
    with mock.patch.object(cli, "build_simple_g0_modules", corrupt_heads), \
            mock.patch.object(verma, "_plan_blocks", blocks), \
            pytest.raises(NotG0Module):
        cli._run_scan(alg, chi, weights, True, semisimple)
    assert graded_builds == []


def test_graded_vermas_in_any_order_equal_the_layout_order():
    # build_graded_vermas keeps the order of its input; sorted by layout the
    # Ms make one run per layout, unsorted many more, with equal modules
    alg, chi, weights = setting("F5^5-diag")
    Ms = build_simple_g0_modules(alg, chi, weights)
    order = sorted(range(len(Ms)), key=lambda t: (Ms[t].dim, Ms[t].parity.tobytes()))
    stacks = list(build_graded_vermas(alg, chi, [Ms[t] for t in order]))
    by_layout = dict(zip(order, (Z for stack in stacks for Z in stack)))
    unsorted = list(build_graded_vermas(alg, chi, Ms))
    assert len(stacks) == 8 < len(unsorted)
    for t, Z in enumerate(Z for stack in unsorted for Z in stack):
        W = by_layout[t]
        assert Z.lam == W.lam and Z.root_key == W.root_key
        assert np.array_equal(Z.actions, W.actions)


# The tracemalloc peak of the gl(2|1) chi = diag(1,1,1) graded scan and its
# JSON report, from build_setting's end, when the scan ran in chunks of nine
# weights: 1,108,468 bytes (CPython 3.11, NumPy 2.4, x86-64).  The stages
# hold every M of the share and stack the graded Vermas by their own size;
# they may add at most 0.5 MB to it.
CHUNKED_PEAK = 1_108_468
HEAP_RUN = """
import os, tracemalloc
from glmn import cli
cfg = cli.validate_config({"p": 5, "m": 2, "n": 1, "lambda": "scan-all-X",
                           "chi": {"E(1,1)": 1, "E(2,2)": 1, "E(3,3)": 1},
                           "tasks": ["graded-verma-scan"], "seed": 0, "jobs": 1})
alg, chi, weights = cli.build_setting(cfg)
tracemalloc.start()
rec, passed = cli.TASK_RUNNERS["graded-verma-scan"](cfg, alg, chi, weights)
with open(os.devnull, "w") as out:
    cli.emit(cli.make_report(cfg, alg, [("graded-verma-scan", rec, passed)]), "json", out)
assert passed
print(tracemalloc.get_traced_memory()[1])
"""


def test_graded_scan_heap_peak_stays_near_the_chunked_scan():
    # a fresh interpreter, so no memo of an earlier test lowers the peak
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    child = subprocess.run([sys.executable, "-c", HEAP_RUN], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert int(child.stdout) < CHUNKED_PEAK + (1 << 19)
