"""The dual-spin certificate against the line-peeling route.

is_simple and simple_head take dual_core's route whenever a module's
highest vector generates it and spans a weight space of its own.  The
oracle is the route this replaced, called directly: _is_simple_by_lines
spins every maximal-vector line, and _simple_head_by_lines peels proper
spins until the quotient is simple.  The unique maximal submodule has one
canonical basis, so both routes must give the same R array and the same
head actions.  The certificate rests on the highest vector generating the
module, which is checked here for every builder output and its quotients.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glmn.algebra import Character, Weight, build_algebra, weight_variety
from glmn.analysis import (_candidate_spaces, _is_simple_by_lines,
                           _simple_head_by_lines, _top_coordinate, dual_core,
                           is_simple, quotient_module, simple_head, spin)
from glmn.ffield import make_field
from glmn.kw import build_kw_module, build_levi_verma, levi_data
from glmn.verma import (ModuleRep, build_baby_verma, build_even_verma,
                        build_graded_verma, build_simple_g0_module)

F5 = make_field(5)
DUAL_SETTINGS = settings(max_examples=12, deadline=None)

# (m, n, chi) over F_5; a diagonal chi extends the field to F_{5^5}
SETTINGS = {
    "gl11-F5-chi0": (1, 1, {}),
    "gl21-F5-chi0": (2, 1, {}),
    "gl21-F5-E21": (2, 1, {(2, 1): 1}),
    "gl21-F5^5-diag": (2, 1, {(1, 1): 1, (2, 2): 1, (3, 3): 1}),
    "gl11-F5^5-E11": (1, 1, {(1, 1): 1}),
}


@functools.lru_cache(maxsize=None)
def algebra(m, n):
    return build_algebra(m, n, F5)


@functools.lru_cache(maxsize=None)
def setting(name):
    m, n, chi = SETTINGS[name]
    alg = algebra(m, n)
    return weight_variety(alg, Character(alg, chi))


def _graded(alg, chi, lam):
    M = build_simple_g0_module(alg, chi, lam)
    return [M, build_graded_verma(alg, chi, M)]


def _kw(alg, chi, lam):
    """The Levi baby Verma, its simple head and the module induced from it."""
    phi = levi_data(alg.root_system(), chi).phi_prime
    ZL = build_levi_verma(alg, chi, lam, phi)
    _, head = simple_head(ZL)
    head.lam = lam
    return [ZL, head, build_kw_module(alg, chi, head, phi)]


BUILDERS = {
    "baby": lambda alg, chi, lam: [build_baby_verma(alg, chi, lam)],
    "even": lambda alg, chi, lam: [build_even_verma(alg, chi, lam)],
    "graded": _graded,
    "kw": _kw,
}
# the (setting, builder) pairs compared with the line-peeling route
CASES = [("gl11-F5-chi0", "baby"), ("gl21-F5-chi0", "baby"),
         ("gl21-F5-E21", "baby"), ("gl21-F5^5-diag", "even"),
         ("gl21-F5^5-diag", "graded"), ("gl11-F5^5-E11", "kw")]


def modules(name, kind, t):
    alg, chi, weights = setting(name)
    return BUILDERS[kind](alg, chi, weights[t])


def assert_witness(M, verdict, core):
    """A homogeneous maximal vector of the claimed piece, inside core(W)."""
    w = verdict.witness
    pieces = {fp: (sub, par) for fp, sub, par in _candidate_spaces(M)}
    sub, par = pieces[verdict.witness_fingerprint]
    assert par == verdict.witness_parity
    assert w.any() and sub.contains(w) and core.contains(w)
    assert set(M.parity[w != 0].tolist()) == {par}
    assert spin(M, w).dim < M.dim


def assert_routes_agree(M):
    core = dual_core(M)
    assert core is not None, "the dual route declined"
    got, want = is_simple(M), _is_simple_by_lines(M)
    assert got.simple == want.simple == (core.dim == 0)
    assert not got.probabilistic and not want.probabilistic
    if not got.simple:
        assert_witness(M, got, core)
    R, head = simple_head(M)
    R_lines, head_lines = _simple_head_by_lines(M)
    assert np.array_equal(R.basis_rows(), R_lines.basis_rows())
    assert R.space.pivots == R_lines.space.pivots
    assert np.array_equal(head.actions, head_lines.actions)
    assert np.array_equal(head.parity, head_lines.parity)
    assert np.array_equal(head.highest_vector, head_lines.highest_vector)


@pytest.mark.parametrize("name,kind", CASES)
@DUAL_SETTINGS
@given(data=st.data())
def test_dual_route_matches_line_peeling(name, kind, data):
    _, _, weights = setting(name)
    t = data.draw(st.integers(0, len(weights) - 1), label="weight")
    for M in modules(name, kind, t):
        assert_routes_agree(M)


@pytest.mark.parametrize("lam,core_dim", [([0, 0, 0, 0], 399),
                                          ([1, 2, 3, 4], 302)])
def test_gl22_dual_route_matches_line_peeling(lam, core_dim):
    alg = algebra(2, 2)
    Z = build_baby_verma(alg, Character(alg, {}), Weight(F5, lam))
    assert Z.dim == 400 and dual_core(Z).dim == core_dim
    assert_routes_agree(Z)


@pytest.mark.parametrize("name,kind", CASES + [("gl21-F5^5-diag", "kw")])
@DUAL_SETTINGS
@given(data=st.data())
def test_highest_vector_generates_builds_and_quotients(name, kind, data):
    """The certificate's assumption: spin(M, hv) is all of M, for every
    builder output and for its quotient by the spin of any vector."""
    _, _, weights = setting(name)
    t = data.draw(st.integers(0, len(weights) - 1), label="weight")
    for M in modules(name, kind, t):
        assert M.highest_vector is not None
        assert spin(M, M.highest_vector).dim == M.dim
        coords = data.draw(st.lists(st.integers(0, M.field.q - 1),
                                    min_size=M.dim, max_size=M.dim),
                           label="vector")
        w = np.array(coords, dtype=np.int64)
        if not w.any():
            continue
        Q, _, _ = quotient_module(M, spin(M, w))
        if Q.highest_vector is None:
            assert Q.dim == 0
        else:
            assert spin(Q, Q.highest_vector).dim == Q.dim


@pytest.mark.parametrize("lam", [[0, 0, 0, 0], [1, 2, 3, 4]])
def test_gl31_top_weight_space_declines(lam):
    """gl(3|1), chi = 0: the highest weight occurs at more than one basis
    vector, so the certificate does not apply."""
    alg = algebra(3, 1)
    Z = build_baby_verma(alg, Character(alg, {}), Weight(F5, lam))
    assert Z.highest_vector is not None
    assert _top_coordinate(Z) is None and dual_core(Z) is None


def _doubled(M):
    """M + M with block-diagonal action and no highest vector."""
    n, U = M.dim, len(M.units)
    actions = np.zeros((U, 2 * n, 2 * n), dtype=np.int64)
    actions[:, :n, :n] = actions[:, n:, n:] = M.actions
    return ModuleRep(M.algebra, M.chi, M.units, actions,
                     np.concatenate([M.parity, M.parity]))


@pytest.mark.parametrize("m,n,lam", [(1, 1, [1, 3]), (2, 1, [1, 0, 2])])
def test_sampled_lines_give_the_exhaustive_verdict(m, n, lam):
    """The sampling branch of the line route: the top weight of M + M has
    a 2-dimensional maximal-vector piece with q + 1 = 6 lines, more than a
    line budget of 5, so 64 sampled lines decide."""
    alg = algebra(m, n)
    D = _doubled(build_baby_verma(alg, Character(alg, {}), Weight(F5, lam)))
    assert dual_core(D) is None
    assert max(sub.dim for _, sub, _ in _candidate_spaces(D)) >= 2
    exhaustive = is_simple(D)
    sampled = is_simple(D, line_budget=5, seed=3)
    assert not exhaustive.probabilistic and sampled.probabilistic
    assert sampled.simple == exhaustive.simple
