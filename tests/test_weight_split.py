"""Maximal vectors read off the diagonal Cartan action, against eigen-solving.

maximal_vectors takes one kernel of the stacked e-actions and splits its
canonical basis by the (parity, weight) at each row's pivot.  The oracle
below is the route it replaced: intersect the kernel with each parity part,
then split every part into joint eigenspaces of the Cartan matrices, one
matrix at a time, by restricting the matrix to each piece and solving for
its eigenspaces (test_linalg.eigenspaces).  Canonical echelon bases are unique, so both routes must
return the same weights, basis arrays and parities in the same order.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glmn import linalg
from glmn.algebra import Character, Weight, build_algebra, weight_variety
from glmn.analysis import is_simple, simple_head
from glmn.errors import NotWeightBasis
from glmn.ffield import make_field
from glmn.linalg import Subspace, kernel, matmul
from glmn.series import regular_module
from glmn.verma import (build_baby_verma, build_even_verma, build_graded_verma,
                        build_simple_g0_module, maximal_vectors)
import _line_oracle
from _series_oracle import composition_series, restrict_module
from test_linalg import eigenspaces

F5 = make_field(5)


# ---------------------------------------------------------------------------
# oracle

def restrict_action(field, sub, mat):
    """Matrix of mat on an invariant Subspace, in its canonical basis."""
    imgs = matmul(field, sub.basis, np.asarray(mat).T)
    assert not np.any(sub.reduce(imgs)), "space is not invariant"
    return imgs[:, sub.pivots].T


def joint_eigen_split(field, mats, space):
    """(eigenvalue tuple, Subspace) per joint eigenspace of commuting mats,
    ordered by the eigenvalue tuple."""
    pieces = [((), space)]
    for mat in mats:
        nxt = []
        for vals, sub in pieces:
            pairs, complete = eigenspaces(field, restrict_action(field, sub, mat))
            assert complete, "eigenvalues outside the field"
            for eig, ker in pairs:
                if ker.dim:
                    nxt.append((vals + (eig,), Subspace(
                        field, space.ambient, matmul(field, ker.basis, sub.basis))))
        pieces = nxt
    return pieces


def oracle_maximal_vectors(M):
    alg = M.algebra
    rs = alg.root_system()
    field = M.field
    e_units = [rs.e_unit(r) for r in rs.positive if rs.e_unit(r) in M.units]
    stacked = np.vstack([M.matrix(u) for u in e_units]
                        + [np.zeros((0, M.dim), dtype=np.int64)])
    ker = Subspace(field, M.dim, kernel(field, stacked).basis)
    hmats = [M.matrix((i, i)) for i in range(1, alg.d + 1)]
    out = []
    for par in (0, 1):
        sel = np.eye(M.dim, dtype=np.int64)[M.parity == par]
        part = ker.intersect(Subspace(field, M.dim, sel))
        if part.dim:
            for vals, sub in joint_eigen_split(field, hmats, part):
                out.append((Weight(field, vals), sub, par))
    return out


def assert_same(got, want):
    assert [(w.key(), par) for w, _, par in got] == \
        [(w.key(), par) for w, _, par in want]
    for (_, sub, _), (_, ref, _) in zip(got, want):
        assert np.array_equal(sub.basis, ref.basis)
        assert list(sub.pivots) == list(ref.pivots)


# ---------------------------------------------------------------------------
# modules

# (m, n, chi) over F_5; a diagonal chi extends the field to F_{5^5}
SETTINGS = {
    "gl11-F5-chi0": (1, 1, {}),
    "gl21-F5-chi0": (2, 1, {}),
    "gl21-F5-E21": (2, 1, {(2, 1): 1}),
    "gl11-F5^5-diag": (1, 1, {(1, 1): 1, (2, 2): 1}),
    "gl21-F5^5-diag": (2, 1, {(1, 1): 1, (2, 2): 1, (3, 3): 1}),
}


@functools.lru_cache(maxsize=None)
def setting(name):
    m, n, chi = SETTINGS[name]
    alg = build_algebra(m, n, F5)
    return weight_variety(alg, Character(alg, chi))


def _graded(alg, chi, lam):
    return [build_graded_verma(alg, chi, build_simple_g0_module(alg, chi, lam))]


def _head(alg, chi, lam):
    return [simple_head(build_baby_verma(alg, chi, lam))[1]]


def _series_restrictions(alg, chi, lam):
    """Every submodule a composition series of the baby Verma restricts to,
    its heads taken by the line oracle, which descends where the library
    refuses a restriction that is not cyclic."""
    current, out = build_baby_verma(alg, chi, lam), []
    while current.dim:
        R, _ = _line_oracle.simple_head(current)
        if R.dim == 0:
            break
        current, _ = restrict_module(current, R)
        out.append(current)
    return out


KINDS = {
    "baby": lambda alg, chi, lam: [build_baby_verma(alg, chi, lam)],
    "even": lambda alg, chi, lam: [build_even_verma(alg, chi, lam)],
    "graded": _graded,
    "head": _head,
    "series": _series_restrictions,
}


@functools.lru_cache(maxsize=None)
def modules(name, kind, t):
    alg, chi, weights = setting(name)
    return KINDS[kind](alg, chi, weights[t])


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("name", sorted(SETTINGS))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_split_matches_eigen_oracle(name, kind, data):
    _, _, weights = setting(name)
    t = data.draw(st.integers(0, len(weights) - 1), label="weight")
    for M in modules(name, kind, t):
        assert_same(maximal_vectors(M), oracle_maximal_vectors(M))


def test_reducible_verma_has_several_pieces():
    """gl(2|1), chi = 0, lambda = 0: the split yields more than the top line,
    in (parity, weight) order."""
    alg, chi, _ = setting("gl21-F5-chi0")
    Z = build_baby_verma(alg, chi, Weight(F5, [0, 0, 0]))
    got = maximal_vectors(Z)
    assert len(got) > 1
    assert_same(got, oracle_maximal_vectors(Z))
    keys = [(par, w.key()) for w, _, par in got]
    assert keys == sorted(keys)


def test_maximal_vectors_takes_two_rrefs(monkeypatch):
    """One rref of the stacked e-actions and one of the kernel vectors,
    whose echelon form, with its pivots, is the kernel's Subspace."""
    alg, chi, _ = setting("gl21-F5-chi0")
    Z = build_baby_verma(alg, chi, Weight(F5, [1, 0, 2]))
    shapes = []
    real_rref = linalg.rref

    def counting_rref(field, arr):
        shapes.append(np.shape(arr))
        return real_rref(field, arr)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    got = maximal_vectors(Z)
    # gl(2|1) has three positive roots
    assert len(shapes) == 2 and shapes[0] == (3 * Z.dim, Z.dim)
    monkeypatch.undo()
    assert_same(got, oracle_maximal_vectors(Z))


def test_series_of_reducible_verma_is_covered():
    alg, chi, _ = setting("gl21-F5-chi0")
    lam = Weight(F5, [0, 0, 0])
    assert len(composition_series(build_baby_verma(alg, chi, lam)).factors) > 1
    assert _series_restrictions(alg, chi, lam)


# ---------------------------------------------------------------------------
# modules whose Cartan matrices are not diagonal

def _borel_regular_module():
    """gl(1|1): the left regular module of u(b-, 0) on its PBW basis."""
    alg = build_algebra(1, 1, F5)
    return regular_module(alg, [(1, 1), (2, 2), (2, 1)], Character(alg, {}))


def test_non_diagonal_cartan_is_rejected():
    M = _borel_regular_module()
    for i in (1, 2):
        h = M.matrix((i, i))
        assert np.count_nonzero(h - np.diag(np.diagonal(h))) == 50
    # from the vectors side, and from the forms side that reads M*'s pieces
    for forms in (False, True):
        with pytest.raises(NotWeightBasis):
            maximal_vectors(M, forms=forms)
    with pytest.raises(NotWeightBasis):
        is_simple(M)


# ---------------------------------------------------------------------------
# Subspace.split

@st.composite
def graded_spaces(draw):
    """A graded subspace of F_5^n: random rows, each inside one block."""
    n = draw(st.integers(1, 8))
    keys = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    rows = []
    for _ in range(draw(st.integers(0, n + 1))):
        key = draw(st.sampled_from(keys))
        row = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        rows.append([c if k == key else 0 for c, k in zip(row, keys)])
    return Subspace(F5, n, np.array(rows, dtype=np.int64).reshape(-1, n)), keys


@settings(max_examples=60, deadline=None)
@given(graded_spaces())
def test_split_is_intersection_with_blocks(space_keys):
    space, keys = space_keys
    pieces = space.split(keys)
    assert [key for key, _ in pieces] == sorted({keys[c] for c in space.pivots})
    for key, piece in pieces:
        block = np.eye(space.ambient, dtype=np.int64)[np.array(keys) == key]
        assert piece == space.intersect(Subspace(F5, space.ambient, block))
        assert piece.pivots == Subspace(F5, space.ambient, piece.basis).pivots
    assert sum(piece.dim for _, piece in pieces) == space.dim


def test_split_rejects_a_row_across_blocks():
    space = Subspace(F5, 3, np.array([[1, 2, 0]], dtype=np.int64))
    with pytest.raises(ValueError):
        space.split([0, 1, 1])
    assert [key for key, _ in space.split([0, 0, 1])] == [0]
