"""One placement per induced module, against a full placement sliced.

verma.build_induced places each induced module once, from the plan blocks
of the units it acts by (verma._layout keeps those rows of the plan).  The
reference here places the module over every unit of the algebra from the
whole plan of its context, and slices the units the module acts by.  Every
builder (baby, even-part, Levi, graded, Kac-Weisfeiler, and induce with
and without units) must give the reference's actions, parity, labels,
highest vector and lambda, over gl(1|1), gl(2|1), gl(2|2) and gl(3|1),
with chi = 0 over F_5 and chi = diag(1, ..., 1) over F_{5^5}.  Whole runs
count the modules made: no module is assembled twice.
"""

import contextlib
import functools
import io

import numpy as np
import pytest

from glmn import cli, kw, verma
from glmn.algebra import Character, build_algebra, weight_variety
from glmn.analysis import simple_head
from glmn.ffield import make_field
from glmn.linalg import matmul

ALGEBRAS = [(1, 1), (2, 1), (2, 2), (3, 1)]
CHIS = {"F5-chi0": False, "F5^5-diag": True}


@functools.lru_cache(maxsize=None)
def setting(m, n, diag):
    alg = build_algebra(m, n, make_field(5))
    chi = {(i, i): 1 for i in range(1, m + n + 1)} if diag else {}
    return weight_variety(alg, Character(alg, chi))


def reference(Z, inner):
    """(matrix, parity, labels, highest vector) of the module induced from
    inner in Z's context, placed from the whole plan: matrix(u) places the
    blocks of unit u, any unit of the algebra, so a module of the units
    given is the full module sliced, one unit at a time."""
    ctx, f, d = Z.ctx, Z.field, inner.dim
    nfree = len(Z.labels[0][0])
    free_monos, slots, tails, coef = verma._induction_plan(ctx, nfree)

    def tail_matrix(tail):
        # the positions in order: the rightmost generator acts first
        mat = np.eye(d, dtype=np.int64)
        for pos, e in enumerate(tail, start=nfree):
            u = ctx.units[pos]
            factor = inner.matrix(u) if u in inner.units else np.zeros((d, d), dtype=np.int64)
            for _ in range(e):
                mat = matmul(f, mat, factor)
        return mat.reshape(-1)

    blocks = matmul(f, coef, np.array([tail_matrix(t) for t in tails]))
    dim = len(free_monos) * d

    def matrix(u):
        mat = np.zeros((dim, dim), dtype=np.int64)
        mine = slots[:, 0] == ctx.algebra.units.index(u)
        for (_, row, col), block in zip(slots[mine].tolist(), blocks[mine]):
            mat[row * d:(row + 1) * d, col * d:(col + 1) * d] = block.reshape(d, d)
        return mat

    parity = [(ctx.mono_parity(m) + int(inner.parity[w])) % 2
              for m in free_monos for w in range(d)]
    hv = np.zeros(dim, dtype=np.int64)
    hv[:d] = np.eye(1, d, dtype=np.int64)[0] if inner.highest_vector is None else inner.highest_vector
    return matrix, parity, [(m, w) for m in free_monos for w in range(d)], hv


def built(alg, chi, lam):
    """(name, inner, module, units it must act by) for every builder at lam,
    one module at a time."""
    rs = alg.root_system()
    line = next(verma.weight_lines(alg, chi, [lam]))
    yield "baby", line, verma.build_baby_verma(alg, chi, lam), alg.units
    yield "even", line, verma.build_even_verma(alg, chi, lam), alg.even_units
    M = verma.build_simple_g0_module(alg, chi, lam)
    yield "graded", M, verma.build_graded_verma(alg, chi, M), alg.units
    phi = kw.levi_data(rs, chi).phi_prime
    levi = [r for r in rs.positive if r not in phi]
    L = kw.build_levi_verma(alg, chi, lam, phi)
    # h and the e, f of each Levi root, in the algebra's order
    vectors = {u for r in levi for u in (rs.e_unit(r), rs.f_unit(r))}
    yield "levi", line, L, [u for u in alg.units if u[0] == u[1] or u in vectors]
    # over the head of the Levi Verma, as kw_verify induces, or over the line
    # where the Levi Verma is the whole baby Verma
    inner = simple_head(L)[1] if phi else line
    del L
    yield "kw", inner, verma.induce(alg, chi, phi, inner), alg.units
    yield "induce", line, verma.induce(alg, chi, rs.positive_even, line), alg.units
    # fewer units, in an order of their own
    units = [u for u in reversed(alg.units) if u[0] >= u[1]]
    yield "induce-units", line, verma.induce(alg, chi, rs.positive_even, line, units), units


@pytest.mark.parametrize("chi_name", sorted(CHIS))
@pytest.mark.parametrize("m,n", ALGEBRAS, ids=lambda v: str(v))
def test_every_builder_places_the_full_module_sliced(m, n, chi_name):
    alg, chi, weights = setting(m, n, CHIS[chi_name])
    lam = weights[len(weights) // 3]
    names = []
    for name, inner, Z, units in built(alg, chi, lam):
        names.append(name)
        matrix, parity, labels, hv = reference(Z, inner)
        assert Z.units == [tuple(u) for u in units], name
        for t, u in enumerate(units):
            assert np.array_equal(Z.actions[t], matrix(u)), (name, u)
        assert Z.parity.tolist() == parity and Z.labels == tuple(labels), name
        assert np.array_equal(Z.highest_vector, hv), name
        assert Z.lam is inner.lam is lam, name
        del Z
    assert len(names) == 7


# the perfbench configs of the two gated workloads, at seed 3
RUNS = {
    "graded-gl21-ext": ({"p": 5, "m": 2, "n": 1,
                         "chi": {"E(1,1)": 1, "E(2,2)": 1, "E(3,3)": 1},
                         "lambda": "scan-all-X", "tasks": ["graded-verma-scan"]},
                        20, 10),
    "levi-gl21": ({"p": 5, "m": 2, "n": 1, "chi": {"E(2,1)": 1},
                   "lambda": "scan-all-X", "tasks": ["levi-scan"]}, 40, 15),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_no_module_is_assembled_twice(name, monkeypatch):
    # a restricted module used to be placed over every unit and copied into
    # a second ModuleRep: 905 and 57 ModuleReps for these runs; the graded
    # scan built its 125 baby Vermas too, besides Z(M): 780 and 375 builds.
    # The graded scan builds one weight per orbit of the twists and of
    # Frobenius, 5 of 25 weights each: 5 weight lines, even Vermas, heads
    # and Z(M) (25 orbits and 150 ModuleReps with the twists alone).
    # A certificate spins forms of its module and builds no dual.
    raw, reps, builds = RUNS[name]
    counts = {"rep": 0, "build": 0}
    real_init, real_build = verma.ModuleRep.__init__, verma.build_induced

    def init(self, *args, **kwargs):
        counts["rep"] += 1
        real_init(self, *args, **kwargs)

    def build(*args, **kwargs):
        counts["build"] += 1
        return real_build(*args, **kwargs)

    monkeypatch.setattr(verma.ModuleRep, "__init__", init)
    monkeypatch.setattr(verma, "build_induced", build)
    cfg = cli.validate_config(dict(raw, seed=3))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli._execute(cfg, cfg["tasks"], "json", None) == 0
    assert counts == {"rep": reps, "build": builds}
