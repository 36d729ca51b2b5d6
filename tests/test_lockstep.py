"""Lockstep spins against spins of one module at a time.

analysis._spins spins a stack of modules together: one stacked product of
every module's added rows per round, and one batched echelon insert
(linalg._insert) with a pivot per module.  Each module's result must be
the canonical Subspace of its own spin, as an array, whatever else shares
its stack: over F_5, F_7 and F_{5^5}, with modules of several unit sets
and dimensions in one call, with spins to the whole module and to proper
submodules, and with groups cut into several stacks by STACK_ENTRIES.  The
per-vector oracle of test_block_spin checks the single spins too.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glmn import analysis
from glmn.algebra import Character, Weight, build_algebra, weight_variety
from glmn.analysis import _spins, dual_module, spin
from glmn.ffield import make_field
from glmn.verma import build_baby_verma, build_even_verma
from test_block_spin import parity_parts, seq_spin, spin_vectors, unspun

from _line_oracle import witness


def setting(p, chi, k_ext=False):
    alg = build_algebra(2, 1, make_field(p))
    alg, chi, weights = weight_variety(alg, Character(alg, chi))
    assert (alg.field.k > 1) == k_ext
    return alg, chi, weights


def roots(M):
    return [u for u in M.units if u[0] != u[1]]


def stack_of(name):
    """Modules of one field, of several dimensions and unit sets: baby
    Vermas, their duals of all units and of the root units, even Vermas."""
    p, chi, ext = {"F5": (5, {}, False), "F5-levi": (5, {(2, 1): 1}, False),
                   "F7": (7, {}, False),
                   "F5^5": (5, {(1, 1): 1, (2, 2): 1, (3, 3): 1}, True)}[name]
    alg, chi, weights = setting(p, chi, ext)
    out = []
    for lam in weights[::max(1, len(weights) // 6)][:6]:
        Z = build_baby_verma(alg, chi, lam)
        out += [Z, dual_module(Z), dual_module(Z, roots(Z)), build_even_verma(alg, chi, lam)]
    return out


@pytest.mark.parametrize("name", ["F5", "F5-levi", "F7", "F5^5"])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_lockstep_equals_one_at_a_time(name, data):
    Ms = stack_of(name)
    order = data.draw(st.permutations(range(len(Ms))), label="order")
    Ms = [Ms[t] for t in order]
    ws = [data.draw(spin_vectors(M)) for M in Ms]
    together = _spins([unspun(M) for M in Ms], ws)
    for M, w, S in zip(Ms, ws, together):
        alone = spin(unspun(M), w)
        assert np.array_equal(S.basis, alone.basis) and S.pivots == alone.pivots
    # the per-vector oracle on a few of them
    for M, w, S in list(zip(Ms, ws, together))[:4]:
        assert all(np.array_equal(a, b) for a, b in zip(parity_parts(M, S), seq_spin(M, w)))


def test_whole_and_proper_spins_in_one_stack():
    # the certificate's spin of e_t in the root-unit dual of a simple and of
    # a reducible baby Verma: all of M* and a proper submodule of it
    alg, chi, weights = setting(5, {}, False)
    Zs = [build_baby_verma(alg, chi, lam) for lam in weights]
    simple = next(Z for Z in Zs if analysis.is_simple(Z))
    reducible = next(Z for Z in Zs if not analysis.is_simple(Z))
    Ms = [dual_module(Z, roots(Z)) for Z in (simple, reducible)]
    ws = [Z.basis_vector(analysis._top_coordinate(Z)) for Z in (simple, reducible)]
    whole, proper = _spins(Ms, ws)
    assert whole.dim == simple.dim and 0 < proper.dim < reducible.dim
    for M, w, S in zip(Ms, ws, (whole, proper)):
        alone = spin(unspun(M), w)
        assert np.array_equal(S.basis, alone.basis) and S.pivots == alone.pivots
    # and a proper submodule of a module, from a maximal vector of it
    Z = reducible
    sub, = _spins([Z], [witness(Z)[0]])
    assert 0 < sub.dim < Z.dim and sub == spin(unspun(Z), witness(Z)[0])


@pytest.mark.parametrize("entries,sizes", [(1, [1] * 30), (4800, [2] * 15),
                                           (1 << 15, [13, 13, 4])])
def test_groups_cut_by_stack_entries(monkeypatch, entries, sizes):
    # 30 root-unit duals of dimension 20 with 6 units, 2,400 entries each
    alg, chi, weights = setting(5, {(2, 1): 1}, False)
    Zs = [build_baby_verma(alg, chi, lam) for lam in weights[:30]]
    Ms = [dual_module(Z, roots(Z)) for Z in Zs]
    ws = [Z.basis_vector(0) for Z in Zs]
    cut = []
    real = analysis._spin_stack

    def recording(stack, vectors):
        cut.append(len(stack))
        return real(stack, vectors)

    monkeypatch.setattr(analysis, "STACK_ENTRIES", entries)
    monkeypatch.setattr(analysis, "_spin_stack", recording)
    together = _spins([unspun(M) for M in Ms], ws)
    assert cut == sizes
    for M, w, S in zip(Ms, ws, together):
        alone = real([unspun(M)], [w])[0]
        assert np.array_equal(S.basis, alone.basis) and S.pivots == alone.pivots
