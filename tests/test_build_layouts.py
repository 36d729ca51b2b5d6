"""The weight-free caches of module building and of the axiom checks.

build_induced takes the parity, labels, scatter indices and root mask of
an induced module, and _plan_blocks the plan rows and tails of its units,
from a layout kept in the context per (number of free roots, inner
dimension, inner parity, acting units): a layout per unit set, which
places each module once over the units it acts by.  The axiom checks read
the parity mask, bracket coefficients and even and Cartan units from a
table kept on the algebra per tuple of units.  Here a whole scan is
counted, the shared arrays are checked to be read-only, modules built
from a warm layout are compared with cold builds on a fresh algebra, and
a table whose brackets leave the units must still fail the bracket check.
structure-check reads all four of its identities off the table of all
units; on intact and perturbed tables each is compared with the walk it
replaced (tests/_bracket_oracle.py).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _bracket_oracle as oracle
from glmn import checks, verma
from glmn.algebra import Character, build_algebra
from glmn.checks import structure_task
from glmn.ffield import make_field
from glmn.analysis import simple_head
from glmn.kw import build_levi_verma, levi_data
from glmn.verma import (ModuleRep, build_baby_verma, build_even_verma, build_graded_verma,
                        build_simple_g0_module, induce)

from test_twist_orbits import CHI0, DIAG, count_scan, fresh_setting


def _graded(alg, chi, lam):
    E = build_even_verma(alg, chi, lam)
    G = build_graded_verma(alg, chi, build_simple_g0_module(alg, chi, lam))
    return [E, G, build_baby_verma(alg, chi, lam)]


def _levi(alg, chi, lam):
    phi = levi_data(alg.root_system(), chi).phi_prime
    ZL = build_levi_verma(alg, chi, lam, phi)
    K = induce(alg, chi, phi, simple_head(ZL)[1])
    return [build_baby_verma(alg, chi, lam), ZL, K]


# the modules built at one weight of gl(2|1), by chi
MODULES = {
    "chi0": (CHI0, lambda alg, chi, lam: [build_baby_verma(alg, chi, lam)]),
    "diag": (DIAG, _graded),
    "levi": ({(2, 1): 1}, _levi),
}


def test_graded_scan_makes_six_layouts_and_one_unit_table():
    # the even-part Vermas have one layout in their context; the graded
    # Vermas induce from five dimensions of M, 25 weights and one orbit of
    # the twists and Frobenius each, and no baby Verma is built: f_direct
    # is read off Z(M).  The scan runs in stages over the first weight of
    # each of the 5 orbits, each stacked by the size of the modules it
    # builds (9 units, dim D: STACK_ENTRIES // (9 D^2) modules): one
    # product of plan blocks for the 5 even Vermas (D = 5), the graded
    # Vermas by layout of M (D = 4, 8, 12, 16, 20: one stack of 1 each),
    # and one axiom check per stack of graded Vermas, all before the first
    # graded build.  Every
    # module is placed once by its own build_induced, the even Vermas over
    # the even units alone, and every M is checked exactly once.
    sizes = {"blocks": [], "axioms": []}
    real_blocks, real_axioms = verma._plan_blocks, verma.axioms_hold

    def blocks(ctx, layout, acting, B):
        sizes["blocks"].append(B)
        return real_blocks(ctx, layout, acting, B)

    def axioms(modules):
        sizes["axioms"].append(len(modules))
        return real_axioms(modules)

    setting = fresh_setting(DIAG)
    with mock.patch.object(verma, "_plan_blocks", blocks), \
            mock.patch.object(verma, "axioms_hold", axioms):
        counts = count_scan(DIAG, graded=True, setting=setting,
                            counted={"build": (verma, "build_induced")})
    assert counts == {"build": 10}
    graded = [1, 1, 1, 1, 1]
    assert sizes["blocks"] == [5] + graded
    assert sizes["axioms"] == graded
    alg = setting[0]
    assert sum(len(ctx._layouts) for ctx in alg._contexts.values()) == 6
    assert list(alg._axiom_tables) == [tuple(alg.even_units)]


@pytest.mark.parametrize("name", sorted(MODULES))
def test_layouts_are_shared_and_read_only(name):
    chi, builders = MODULES[name]
    alg, chi, weights = fresh_setting(chi)
    first, second = builders(alg, chi, weights[0]), builders(alg, chi, weights[1])
    for M in first + second:
        assert not M.parity.flags.writeable
        assert isinstance(M.labels, tuple)
        with pytest.raises(ValueError):
            M.parity[0] = 1
    for ctx in {id(M.ctx): M.ctx for M in first}.values():
        for parity, labels, *_ in ctx._layouts.values():
            assert not parity.flags.writeable and isinstance(labels, tuple)
    # modules of one builder, (nfree, units) in one context, whose inner
    # dimension and parity agree are of one layout: they hold its arrays,
    # not copies
    shared = [(M, N) for M, N in zip(first, second) if np.array_equal(M.parity, N.parity)]
    assert shared
    for M, N in shared:
        assert M.parity is N.parity and M.labels is N.labels


@pytest.mark.parametrize("name", sorted(MODULES))
def test_warm_layout_builds_equal_cold_builds(name):
    chi, builders = MODULES[name]
    alg, chi_warm, weights = fresh_setting(chi)
    for lam in weights[:4]:
        builders(alg, chi_warm, lam)
    for t in (2, len(weights) - 1):
        warm = builders(alg, chi_warm, weights[t])
        cold_alg, cold_chi, cold_weights = fresh_setting(chi)
        assert np.array_equal(cold_weights[t].coords, weights[t].coords)
        cold = builders(cold_alg, cold_chi, cold_weights[t])
        for W, C in zip(warm, cold):
            assert W.units == C.units
            assert np.array_equal(W.actions, C.actions)
            assert np.array_equal(W.parity, C.parity)
            assert W.labels == C.labels
            assert np.array_equal(W.highest_vector, C.highest_vector)


def test_units_whose_bracket_leaves_them_fail_the_bracket_check():
    # gl(1|1) on F^(1|1) acting by E(1,2) and E(2,1) only: the matrices are
    # right, but [E(1,2), E(2,1)] = E(1,1) + E(2,2) is not among the units
    alg = build_algebra(1, 1, make_field(5))
    units = [(1, 2), (2, 1)]
    action = [alg.unit_matrix(*u).data for u in units]
    M = ModuleRep(alg, Character(alg, {}), units, action, [0, 1])
    for _ in range(2):
        stack = M.actions[None]
        assert verma._parity_blocks_hold(M, stack)[0] and verma._pth_powers_hold(M, stack)[0]
        assert not verma._brackets_hold(M, stack)[0] and not M.verify_axioms()
    assert verma._axiom_table(alg, tuple(units))[1] is None
    full = ModuleRep(alg, M.chi, alg.units,
                     [alg.unit_matrix(*u).data for u in alg.units], [0, 1])
    assert full.verify_axioms()
    assert verma._axiom_table(alg, tuple(alg.units))[1] is not None


def test_unit_tables_are_made_once_per_order_of_the_units():
    alg, chi, weights = fresh_setting(CHI0)
    Z = build_baby_verma(alg, chi, weights[1])
    reordered = list(reversed(Z.units))
    N = ModuleRep(alg, chi, reordered, Z.matrices(reordered), Z.parity)
    assert Z.verify_axioms() and N.verify_axioms()
    tables = dict(alg._axiom_tables)
    assert set(tables) == {tuple(Z.units), tuple(reordered)}
    assert build_baby_verma(alg, chi, weights[2]).verify_axioms() and N.verify_axioms()
    assert all(alg._axiom_tables[units] is table for units, table in tables.items())


def perturbed(alg, data, symmetric):
    """A copy of the unit table of alg with up to three entries changed; with
    symmetric, each change to [x, y], x != y, is mirrored on [y, x], so that
    only a change to some [x, x] can break anticommutativity."""
    f, U = alg.field, len(alg.units)
    odd, coef, _, _ = verma._axiom_table(alg, tuple(alg.units))
    coef = coef.copy()
    for _ in range(data.draw(st.integers(0, 3), label="changes")):
        a, b, c = (data.draw(st.integers(0, U - 1)) for _ in range(3))
        coef[a, b, c] = data.draw(st.integers(0, f.q - 1), label="value")
        if symmetric and a != b:
            coef[b, a, c] = coef[a, b, c] if odd[a] and odd[b] else f.neg(int(coef[a, b, c]))
    return coef


def install(alg, coef):
    odd, _, even, cartan = verma._axiom_table(alg, tuple(alg.units))
    alg._axiom_tables[tuple(alg.units)] = (odd, coef, even, cartan)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_structure_check_reads_anticommutativity_off_the_unit_table(m, n, data):
    # the perturbed table stands in for the bracket coefficients, and every
    # identity, anticommutativity with the others, is read off it
    alg = build_algebra(m, n, make_field(5))
    U = len(alg.units)
    coef = perturbed(alg, data, symmetric=False)
    install(alg, coef)
    rec, passed = structure_task({"seed": 1}, alg, Character(alg, {}), [])
    assert rec["checked"]["anticommutativity"] == U * U
    assert passed == rec["all_pass"] == oracle.structure_record(alg, coef, 1)["all_pass"]


@pytest.mark.parametrize("mirrored", [False, True])
def test_structure_check_fails_on_anticommutativity_alone(mirrored):
    # [E(1,1), E(1,2)] = 2 E(1,2) breaks Jacobi too, but Jacobi and the ad
    # powers pass here, and the change is off the diagonal units, which the
    # supertrace reads: only anticommutativity can fail the record.  The
    # mirror [E(1,2), E(1,1)] = -2 E(1,2) mends it.
    alg = build_algebra(2, 1, make_field(5))
    a, b = alg.units.index((1, 1)), alg.units.index((1, 2))
    coef = verma._axiom_table(alg, tuple(alg.units))[1].copy()
    assert coef[a, b, b] == 1 and coef[b, a, b] == alg.field.neg(1)
    coef[a, b, b] = 2
    if mirrored:
        coef[b, a, b] = alg.field.neg(2)
    install(alg, coef)
    with mock.patch.object(checks, "_jacobi_holds", lambda *args: True), \
            mock.patch.object(checks, "_ad_powers_hold", lambda *args: True):
        rec, passed = structure_task({"seed": 1}, alg, Character(alg, {}), [])
    assert passed == rec["all_pass"] == mirrored


@pytest.mark.parametrize("m,n,q", [(1, 1, 5), (2, 1, 5), (2, 2, 5),
                                   (1, 1, 25), (2, 1, 25), (2, 2, 25)])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_structure_identities_match_the_walks(m, n, q, data):
    # each identity of the array forms against its walk over the same
    # table, intact (no changes) or perturbed, and the whole record
    alg = build_algebra(m, n, make_field(5, 2 if q == 25 else 1))
    f, seed = alg.field, data.draw(st.integers(0, 20), label="seed")
    coef = perturbed(alg, data, symmetric=data.draw(st.booleans(), label="symmetric"))
    odd = verma._axiom_table(alg, tuple(alg.units))[0]
    table = oracle.coefficient_table(alg, coef)
    samples = oracle.ad_samples(alg, seed)
    xs = np.array([x.data.reshape(-1) for x in samples])
    assert checks._jacobi_holds(f, odd, coef) == oracle.jacobi_holds(alg, table)
    assert checks._ad_powers_hold(alg, coef, xs) == oracle.ad_powers_hold(alg, table, samples)
    install(alg, coef)
    rec, passed = structure_task({"seed": seed}, alg, Character(alg, {}), [])
    assert rec == oracle.structure_record(alg, coef, seed) and passed == rec["all_pass"]
