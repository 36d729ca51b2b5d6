"""Lockstep spins against spins of one module at a time.

analysis._spins spins a stack of jobs together: one stacked product of
every job's added rows per round, and one batched echelon insert
(linalg._insert) with a pivot per job.  A job spins vectors of a module,
or forms of it under some of its units, by a right factor
(analysis._factor, or the same matrices of other units side by side).
Each job's result must be the canonical Subspace of its own spin, as an
array, whatever else shares its stack: a spin of forms equals the spin of
vectors of the dual (_line_oracle.dual_module) of the same units.  This
holds over F_5, F_7, F_25, F_{5^5} and at
p = 4093, whose factors are float64, with modules of several unit sets
and dimensions in one call, with spins to the whole module and to proper
submodules, and with groups cut into several stacks by STACK_ENTRIES.
The per-vector oracle of test_block_spin checks the single spins too.
A weight form, the only form analysis spins, spins to the same Subspace
by the root units as by every unit: on baby Vermas, graded Vermas and
restrictions, over F_5, F_25 and F_{5^5}.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glmn import analysis, verma
from glmn.algebra import Character, Weight, build_algebra, weight_variety
from glmn.analysis import _factor, _spins, dual_core, spin
from glmn.ffield import make_field
from glmn.linalg import float_type
from glmn.series import restrict_module
from glmn.verma import (ModuleRep, build_baby_verma, build_even_verma, build_graded_verma,
                        build_simple_g0_module, cartan_diagonal)
from test_block_spin import parity_parts, seq_spin, spin_vectors

from _line_oracle import dual_module, witness


def setting(p, chi, k_ext=False, degree=1, m=2):
    """gl(m|1) over F_{p^degree}, chi and its weights; at p = 4093, whose X
    is too large to list, the gl(1|1) weights (a, b) for a, b < 8."""
    alg = build_algebra(m, 1, make_field(p, degree))
    if p == 4093:
        return alg, Character(alg, chi), [Weight(alg.field, [a, b])
                                          for a in range(8) for b in range(8)]
    alg, chi, weights = weight_variety(alg, Character(alg, chi))
    assert (alg.field.k > 1) == k_ext
    return alg, chi, weights


def roots(M):
    return [u for u in M.units if u[0] != u[1]]


def oracle(M, units, forms):
    """The module whose vectors a job's rows are: M of units, or its dual."""
    part = ModuleRep(M.algebra, M.chi, units, M.matrices(units), M.parity)
    return dual_module(part) if forms else part


def factor(M, units, forms):
    """_factor of M where units are the ones it spins by (the root units
    for forms, every unit for vectors); else the matrices of units side by
    side as _factor lays them out, in its dtype."""
    right = _factor(M, forms)
    if list(units) == (roots(M) if forms else list(M.units)):
        return right
    return np.hstack([M.matrix(u) if forms else M.matrix(u).T for u in units]).astype(right.dtype)


def job(M, units, forms, w):
    return M, factor(M, units, forms), w


# (p, chi, extended, degree, m): gl(m|1) over F_{p^degree}, or over F_{5^5}
# where chi = diag(1, 1, 1) extends it
FIELDS = {"F5": (5, {}, False, 1, 2), "F5-levi": (5, {(2, 1): 1}, False, 1, 2),
          "F7": (7, {}, False, 1, 2), "F25": (5, {}, True, 2, 2),
          "F5^5": (5, {(1, 1): 1, (2, 2): 1, (3, 3): 1}, True, 1, 2),
          "F4093": (4093, {}, False, 1, 1)}


def stack_of(name):
    """(M, units, forms) of one field, of several dimensions and unit sets:
    vectors of baby Vermas, their forms of all units and of the root units,
    and vectors and forms of even Vermas."""
    alg, chi, weights = setting(*FIELDS[name])
    out = []
    for lam in weights[::max(1, len(weights) // 6)][:6]:
        Z, E = build_baby_verma(alg, chi, lam), build_even_verma(alg, chi, lam)
        out += [(Z, Z.units, False), (Z, Z.units, True), (Z, roots(Z), True),
                (E, E.units, False), (E, E.units, True)]
    return out


@pytest.mark.parametrize("name", ["F5", "F5-levi", "F7", "F5^5"])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_lockstep_equals_one_at_a_time(name, data):
    specs = stack_of(name)
    order = data.draw(st.permutations(range(len(specs))), label="order")
    specs = [specs[t] for t in order]
    ws = [data.draw(spin_vectors(M)) for M, _, _ in specs]
    together = _spins(job(*spec, w) for spec, w in zip(specs, ws))
    for (M, units, forms), w, S in zip(specs, ws, together):
        alone = spin(oracle(M, units, forms), w)
        assert np.array_equal(S.basis, alone.basis) and S.pivots == alone.pivots
    # the per-vector oracle on a few of them
    for (M, units, forms), w, S in list(zip(specs, ws, together))[:4]:
        N = oracle(M, units, forms)
        assert all(np.array_equal(a, b) for a, b in zip(parity_parts(N, S), seq_spin(N, w)))


def certified_pair(name):
    """A simple and a reducible baby Verma of the setting, each with the
    top coordinate of its certificate."""
    alg, chi, weights = setting(*FIELDS[name])
    Zs = (build_baby_verma(alg, chi, lam) for lam in weights)
    simple = reducible = None
    while simple is None or reducible is None:
        Z = next(Zs)
        if analysis.is_simple(Z):
            simple = simple or Z
        else:
            reducible = reducible or Z
    return [(Z, analysis._top_coordinate(Z)) for Z in (simple, reducible)]


def test_whole_and_proper_spins_in_one_stack():
    # the certificate's spin of the form e_t by the root units of a simple
    # and of a reducible baby Verma: all of M* and a proper submodule of it
    pair = certified_pair("F5")
    whole, proper = _spins(job(Z, roots(Z), True, Z.basis_vector(t)) for Z, t in pair)
    assert whole.dim == pair[0][0].dim and 0 < proper.dim < pair[1][0].dim
    for (Z, t), S in zip(pair, (whole, proper)):
        alone = spin(oracle(Z, roots(Z), True), Z.basis_vector(t))
        assert np.array_equal(S.basis, alone.basis) and S.pivots == alone.pivots
    # and a proper submodule of a module, from a maximal vector of it
    Z = pair[1][0]
    sub, = _spins([job(Z, Z.units, False, witness(Z)[0])])
    assert 0 < sub.dim < Z.dim and sub == spin(Z, witness(Z)[0])


@pytest.mark.parametrize("entries,sizes", [(1, [1] * 30), (4800, [2] * 15),
                                           (1 << 15, [13, 13, 4])])
def test_groups_cut_by_stack_entries(monkeypatch, entries, sizes):
    # the root-unit forms of 30 baby Vermas of dimension 20: 6 units, 2,400
    # entries each
    alg, chi, weights = setting(5, {(2, 1): 1})
    Zs = [build_baby_verma(alg, chi, lam) for lam in weights[:30]]
    jobs = [job(Z, roots(Z), True, Z.basis_vector(0)) for Z in Zs]
    cut = []
    real = analysis._spin_stack

    def recording(stack, rights, vectors):
        cut.append(len(stack))
        return real(stack, rights, vectors)

    monkeypatch.setattr(verma, "STACK_ENTRIES", entries)
    monkeypatch.setattr(analysis, "_spin_stack", recording)
    together = _spins(jobs)
    assert cut == sizes
    for (Z, right, w), S in zip(jobs, together):
        alone = real([Z], [right], [w])[0]
        assert np.array_equal(S.basis, alone.basis) and S.pivots == alone.pivots


def expected_cuts(specs, entries):
    """The stack sizes of _spins: runs of one field and factor shape, cut
    into stacks of entries // (dim * U * dim * K) jobs (one at least)."""
    sizes, prev = [], None
    for M, units, _ in specs:
        key, cost = (M.field, M.dim, len(units)), M.dim ** 2 * len(units) * M.field.k
        if key != prev or sizes[-1] == max(1, entries // cost):
            sizes.append(0)
        sizes[-1] += 1
        prev = key
    return sizes


@pytest.mark.parametrize("name", ["F5", "F7", "F25", "F5^5", "F4093"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_forms_spin_as_vectors_of_the_dual(name, data):
    """Forms of M, spun by its matrices side by side, against vectors of the
    dual of the same units, in stacks that hold a whole and a proper spin
    and are cut at a drawn STACK_ENTRIES."""
    pool = stack_of(name)
    specs = [pool[t] for t in data.draw(st.lists(st.integers(0, len(pool) - 1),
                                                  min_size=1, max_size=8), label="jobs")]
    ws = [data.draw(spin_vectors(M)) for M, _, _ in specs]
    for Z, t in certified_pair(name):
        at = data.draw(st.integers(0, len(specs)), label="at")
        specs.insert(at, (Z, roots(Z), True))
        ws.insert(at, Z.basis_vector(t))
    M = specs[0][0]
    entries = data.draw(st.sampled_from([1, M.dim ** 2 * 6 * M.field.k, 1 << 15]),
                        label="entries")
    cut, real = [], analysis._spin_stack

    def recording(stack, rights, vectors):
        f, d = stack[0].field, stack[0].dim
        assert all(r.dtype == (np.int64 if f.k > 1 else float_type(f, d)) for r in rights)
        cut.append(len(stack))
        return real(stack, rights, vectors)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verma, "STACK_ENTRIES", entries)
        mp.setattr(analysis, "_spin_stack", recording)
        together = _spins(job(*spec, w) for spec, w in zip(specs, ws))
    assert cut == expected_cuts(specs, entries)
    dims = set()
    for (N, units, forms), w, S in zip(specs, ws, together):
        alone = spin(oracle(N, units, forms), w)
        assert np.array_equal(S.basis, alone.basis) and S.pivots == alone.pivots
        if forms and units == roots(N) and N.highest_vector is not None:
            dims.add(S.dim == N.dim)
    assert dims == {True, False}


@functools.lru_cache(maxsize=None)
def weight_modules(name):
    """Two baby Vermas, their graded Vermas, and the restriction of a
    reducible baby Verma to its dual_core, of one setting."""
    alg, chi, weights = setting(*FIELDS[name])
    out, restricted = [], None
    for t, lam in enumerate(weights):
        Z = build_baby_verma(alg, chi, lam)
        if t < 2:
            out += [Z, build_graded_verma(alg, chi, build_simple_g0_module(alg, chi, lam))]
        if restricted is None and (R := dual_core(Z)).dim:
            restricted, _ = restrict_module(Z, R)
        if t >= 1 and restricted is not None:
            return out + [restricted]
    raise AssertionError("no reducible baby Verma")


def weight_blocks(M):
    """The coordinates of each (parity, weight) block of M, whose Cartan
    action is diagonal."""
    diag = cartan_diagonal(M)
    assert diag is not None
    blocks = {}
    for c, key in enumerate(zip(M.parity.tolist(), map(tuple, diag.T.tolist()))):
        blocks.setdefault(key, []).append(c)
    return list(blocks.values())


@pytest.mark.parametrize("name", ["F5", "F25", "F5^5"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_weight_forms_spin_alike_by_root_units_and_by_all(name, data):
    """A coordinate form, or a random combination of the coordinate forms
    of one (parity, weight) block, spun by the root-unit factor and by the
    factor of every unit: the two Subspaces are equal."""
    Ms = weight_modules(name)
    M = Ms[data.draw(st.integers(0, len(Ms) - 1), label="module")]
    block = data.draw(st.sampled_from(weight_blocks(M)), label="block")
    q, w = M.field.q, np.zeros(M.dim, dtype=np.int64)
    if data.draw(st.booleans(), label="coordinate"):
        w[data.draw(st.sampled_from(block), label="c")] = 1
    else:
        w[block] = data.draw(st.lists(st.integers(0, q - 1), min_size=len(block),
                                      max_size=len(block)), label="coefficients")
        w[block[data.draw(st.integers(0, len(block) - 1), label="at")]] = 1
    by_roots, by_all = _spins([job(M, roots(M), True, w), job(M, M.units, True, w)])
    assert by_roots == by_all
    assert np.array_equal(by_roots.basis, by_all.basis) and by_roots.pivots == by_all.pivots
