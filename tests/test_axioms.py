"""The batched ModuleRep.verify_axioms against the per-pair loop it replaced.

verify_axioms takes every product x y of two units in one product and the
expected brackets in one more, read off the bracket coefficients of
verma._axiom_table, and raises the (c, dim, dim) stack of even units to the
p-th power in one batched matrix_power.  Larger modules go in chunks of
units that keep each product, or each stack, below
verma.AXIOM_PRODUCT_ENTRIES entries, down to one unit per product.  The
oracle below forms each commutator [x, y] and each expected bracket as
separate Matrix sums, pair by pair, and each p-th power on its own.  Both
must give the same verdict on baby Vermas and even-part Vermas of gl(1|1)
and gl(2|1), over F_5 and over F_{5^5}, intact and with action entries
perturbed at random, in one chunk, in chunks of a few units and one unit at
a time.  One wrong p-th power among the units of a chunk must be caught.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glmn.algebra import Character, build_algebra, weight_variety
from glmn.ffield import make_field
from glmn.linalg import Matrix
from glmn import verma
from glmn.verma import ModuleRep, build_baby_verma, build_even_verma


def oracle_verify_axioms(M):
    """Parity blocks, then each bracket pair, then each p-th power."""
    alg = M.algebra
    f = M.field
    p = f.p
    shift = M.parity[:, None] - M.parity[None, :]
    for u in M.units:
        if np.any(M.matrix(u)[(shift - alg.parity(*u)) % 2 != 0]):
            return False
    for x in M.units:
        mx = Matrix(f, M.matrix(x))
        for y in M.units:
            my = Matrix(f, M.matrix(y))
            sign = -1 if alg.parity(*x) and alg.parity(*y) else 1
            comm = (mx @ my) + (my @ mx) if sign == -1 else (mx @ my) - (my @ mx)
            expect = Matrix.zeros(f, M.dim, M.dim)
            for c, unit in alg.bracket_table[(x, y)]:
                if unit in M.units:
                    expect = expect + Matrix(f, M.matrix(unit)).scale(c)
                elif c:
                    return False
            if comm != expect:
                return False
    for x in M.units:
        if alg.parity(*x):
            continue
        i, j = x
        mp = Matrix(f, M.matrix(x)).power(p)
        expect = Matrix.zeros(f, M.dim, M.dim)
        if i == j:
            expect = Matrix(f, M.matrix(x))
        scal = f.power(M.chi.value(x), p)
        if scal:
            expect = expect + Matrix.identity(f, M.dim).scale(scal)
        if mp != expect:
            return False
    return True


# (m, n, chi) over F_5; a diagonal chi extends the field to F_{5^5}
SETTINGS = {
    "gl11-F5-chi0": (1, 1, {}),
    "gl11-F5^5-diag": (1, 1, {(1, 1): 1, (2, 2): 1}),
    "gl21-F5-E21": (2, 1, {(2, 1): 1}),
    "gl21-F5^5-diag": (2, 1, {(1, 1): 1, (2, 2): 1, (3, 3): 1}),
}
BUILDERS = {"baby": build_baby_verma, "even": build_even_verma}


@functools.lru_cache(maxsize=None)
def setting(name):
    m, n, chi = SETTINGS[name]
    alg = build_algebra(m, n, make_field(5))
    return weight_variety(alg, Character(alg, chi))


def perturbed(M, changes):
    """A copy of M whose action has the entries (unit, row, col) -> value."""
    action = M.actions.copy()
    for u, i, j, value in changes:
        action[M.units.index(u), i, j] = value
    return ModuleRep(M.algebra, M.chi, M.units, action, M.parity)


def check_against_oracle(name, builder, data):
    alg, chi, weights = setting(name)
    lam = data.draw(st.sampled_from(weights), label="lambda")
    M = BUILDERS[builder](alg, chi, lam)
    assert M.verify_axioms() and oracle_verify_axioms(M)
    changes = []
    for _ in range(data.draw(st.integers(1, 3), label="changes")):
        u = data.draw(st.sampled_from(M.units), label="unit")
        # entries allowed by the parity blocks get past the first check
        keep_parity = data.draw(st.booleans(), label="keep parity")
        allowed = (M.parity[:, None] + M.parity[None, :]
                   + alg.parity(*u)) % 2 == 0
        cells = np.argwhere(allowed if keep_parity else np.ones_like(allowed))
        i, j = data.draw(st.sampled_from([tuple(c) for c in cells]), label="cell")
        value = data.draw(st.integers(0, M.field.q - 1), label="value")
        changes.append((u, int(i), int(j), value))
    N = perturbed(M, changes)
    assert N.verify_axioms() == oracle_verify_axioms(N)


@pytest.mark.parametrize("builder", sorted(BUILDERS))
@pytest.mark.parametrize("name", sorted(SETTINGS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_batched_matches_oracle(name, builder, data):
    alg, chi, weights = setting(name)
    M = BUILDERS[builder](alg, chi, weights[0])
    U = len(M.units)
    # every module here fits one chunk, so each check is one batch
    assert U * U * M.dim ** 2 <= verma.AXIOM_PRODUCT_ENTRIES
    check_against_oracle(name, builder, data)


@pytest.mark.parametrize("chunk", ["one unit", "a few units", "a few power units"])
@pytest.mark.parametrize("builder", sorted(BUILDERS))
@pytest.mark.parametrize("name", sorted(SETTINGS))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_chunked_matches_oracle(name, builder, chunk, data):
    alg, chi, weights = setting(name)
    M = BUILDERS[builder](alg, chi, weights[0])
    # a bracket chunk of c left units takes c U dim^2 entries, a p-th power
    # chunk of c even units c dim^2: one entry admits one unit per chunk of
    # either check, 2 U dim^2 two left units (and every even unit in one
    # power), 2 dim^2 two even units per power (and one left unit)
    budget = {"one unit": 1, "a few units": 2 * len(M.units) * M.dim ** 2,
              "a few power units": 2 * M.dim ** 2}[chunk]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verma, "AXIOM_PRODUCT_ENTRIES", budget)
        check_against_oracle(name, builder, data)


@pytest.mark.parametrize("chunk", ["every even unit", "two even units"])
@pytest.mark.parametrize("builder", sorted(BUILDERS))
@pytest.mark.parametrize("name", [n for n in sorted(SETTINGS) if n.startswith("gl21")])
def test_one_wrong_pth_power_in_a_chunk_is_rejected(name, builder, chunk):
    # x + I for an even root unit x: (x + I)^p = x^p + I, one identity off
    # chi(x)^p; the other units of the chunk stay as they were.  gl(1|1)
    # has no even root unit.
    alg, chi, weights = setting(name)
    M = BUILDERS[builder](alg, chi, weights[-1])
    even = [u for u in M.units if not alg.parity(*u)]
    assert len(even) == 5
    budget = {"every even unit": len(even), "two even units": 2}[chunk] * M.dim ** 2
    f = M.field
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verma, "AXIOM_PRODUCT_ENTRIES", budget)
        assert M._pth_powers_hold()
        for x in even:
            if x[0] == x[1]:
                continue
            actions = M.actions.copy()
            actions[M.units.index(x)] = f.add(M.matrix(x), np.eye(M.dim, dtype=np.int64))
            N = ModuleRep(alg, chi, M.units, actions, M.parity)
            assert not N._pth_powers_hold() and not oracle_verify_axioms(N)
