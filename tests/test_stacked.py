"""Stacked builds and the stacked axiom check against one module at a time.

verma's batched builders (build_baby_vermas, build_even_vermas,
build_simple_g0_modules, build_graded_vermas) build every module of one
layout in one stacked build, and axioms_hold checks the g_0bar-module
axioms of a whole stack of modules at once.  Here every module of a stacked
build over all gl(2|1) weights, over F_5 and over F_{5^5}, must equal the
one built alone (build_induced, checked against an oracle in
test_induction.py): actions, parity, labels and highest vector.
axioms_hold must give each module of a stack the verdict of the per-pair
oracle of test_axioms.py when one module, first, in the middle or last,
has a wrong bracket or a wrong p-th power, with every left unit in one
product, two or one per product; build_graded_vermas must then refuse the
whole list before building anything.
"""

import functools
from unittest import mock

import numpy as np
import pytest

from glmn import verma
from glmn.algebra import Character, build_algebra, weight_variety
from glmn.errors import NotG0Module
from glmn.ffield import make_field
from glmn.verma import (ModuleRep, axioms_hold, build_baby_verma,
                        build_baby_vermas, build_even_verma, build_even_vermas,
                        build_graded_verma, build_graded_vermas,
                        build_simple_g0_module, build_simple_g0_modules)

from test_axioms import oracle_verify_axioms

# gl(2|1) at p = 5; a diagonal chi extends the field to F_{5^5}
SETTINGS = {"F5-chi0": {}, "F5^5-diag": {(1, 1): 1, (2, 2): 1, (3, 3): 1}}


@functools.lru_cache(maxsize=None)
def setting(name):
    alg = build_algebra(2, 1, make_field(5))
    return weight_variety(alg, Character(alg, SETTINGS[name]))


def assert_same_module(Z, W):
    assert Z.units == W.units and Z.lam == W.lam and Z.ctx is W.ctx
    assert np.array_equal(Z.actions, W.actions)
    assert np.array_equal(Z.parity, W.parity) and Z.labels == W.labels
    assert np.array_equal(Z.highest_vector, W.highest_vector)


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_stacked_builds_equal_one_at_a_time(name):
    alg, chi, weights = setting(name)
    assert len(weights) == 125
    for stacked, alone in ((build_baby_vermas, build_baby_verma),
                           (build_even_vermas, build_even_verma),
                           (build_simple_g0_modules, build_simple_g0_module)):
        built = stacked(alg, chi, weights)
        if stacked is not build_simple_g0_modules:
            built = [Z for stack in built for Z in stack]
        assert len(built) == len(weights)
        for lam, Z in zip(weights, built):
            if stacked is build_simple_g0_modules:
                W = alone(alg, chi, lam)
                assert np.array_equal(Z.actions, W.actions) and Z.lam == W.lam
                assert np.array_equal(Z.parity, W.parity)
            else:
                assert_same_module(Z, alone(alg, chi, lam))
    Ms = build_simple_g0_modules(alg, chi, weights)
    assert len({(M.dim, M.parity.tobytes()) for M in Ms}) > 1
    for M, Z in zip(Ms, (Z for stack in build_graded_vermas(alg, chi, Ms) for Z in stack)):
        assert_same_module(Z, build_graded_verma(alg, chi, M))


def corrupted(M, kind):
    """M with a wrong bracket (E(1,2) doubled) or a wrong p-th power: E(3,3)
    + c I for c outside F_5, central in g_0bar and no bracket's value, so
    only (E(3,3) + c I)^p - (E(3,3) + c I) = chi(E(3,3))^p + (c^p - c) I
    changes."""
    f = M.field
    actions = M.actions.copy()
    if kind == "bracket":
        t = M.units.index((1, 2))
        actions[t] = f.add(actions[t], actions[t])
    else:
        c = f.p  # the generator of F_{5^5} over F_5
        assert f.power(c, f.p) != c
        t = M.units.index((3, 3))
        actions[t] = f.add(actions[t], f.mul(c, np.eye(M.dim, dtype=np.int64)))
    return ModuleRep(M.algebra, M.chi, M.units, actions, M.parity,
                     highest_vector=M.highest_vector, lam=M.lam)


def largest_layout(Ms):
    """The indices of the Ms of the most common (dim, parity) with dim > 1."""
    groups = {}
    for t, M in enumerate(Ms):
        if M.dim > 1:
            groups.setdefault((M.dim, M.parity.tobytes()), []).append(t)
    return max(groups.values(), key=len)


@pytest.mark.parametrize("budget", ["default", "two units", "one unit"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("kind", ["bracket", "p-th power"])
def test_axioms_hold_agrees_with_the_per_module_check(kind, where, budget):
    alg, chi, weights = setting("F5^5-diag")
    Ms = build_simple_g0_modules(alg, chi, weights)
    idx = largest_layout(Ms)
    group = [Ms[t] for t in idx]
    assert len(group) >= 3
    bad = {"first": 0, "middle": len(group) // 2, "last": len(group) - 1}[where]
    group[bad] = corrupted(group[bad], kind)
    U, n = len(group[0].units), group[0].dim
    entries = {"default": verma.STACK_ENTRIES, "two units": 2 * len(group) * U * n * n,
               "one unit": 1}[budget]
    with mock.patch.object(verma, "STACK_ENTRIES", entries):
        verdicts = axioms_hold(group).tolist()
        assert verdicts == [M.verify_axioms() for M in group]
    assert verdicts == [oracle_verify_axioms(M) for M in group]
    assert verdicts == [t != bad for t in range(len(group))]


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_graded_builder_refuses_a_bad_module_before_building(where):
    alg, chi, weights = setting("F5^5-diag")
    Ms = build_simple_g0_modules(alg, chi, weights)
    idx = largest_layout(Ms)
    t = {"first": idx[0], "middle": idx[len(idx) // 2], "last": idx[-1]}[where]
    Ms[t] = corrupted(Ms[t], "bracket")
    with pytest.raises(NotG0Module) as alone:
        build_graded_verma(alg, chi, Ms[t])
    with mock.patch.object(verma, "_plan_blocks",
                           side_effect=AssertionError("built before the check")):
        with pytest.raises(NotG0Module) as stacked:
            build_graded_vermas(alg, chi, Ms)
    assert str(stacked.value) == str(alone.value)
