"""Differential tests of the block spin and the block Subspace insertion.

spin grows a graded submodule in rounds, mapping every newly added basis
row through all units in one product, and Subspace.add_vectors inserts a
whole block of rows at once.  The oracles below are the code they
replaced: insertion of one row at a time into the echelon form, and a spin
that pops one vector at a time, acts on it with each unit separately and
inserts it alone.  The canonical echelon basis of a space is unique, so
the two must agree exactly.  The block rref is checked on sparse matrices
against the table oracle of test_kernels, and the block forms of
quotient_module, restrict_module and is_action_closed against the
per-vector loops they replaced.
"""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from glmn.algebra import Character, Weight, build_algebra, weight_variety
from glmn.analysis import (GradedSubmodule, is_simple, quotient_module,
                           restrict_module, spin)
from glmn.ffield import make_field
from glmn.linalg import Subspace, kernel_arr, matmul, rref
from glmn.verma import build_baby_verma
from test_kernels import FIELDS, KERNEL_SETTINGS, draw_matrix, t_kernel, t_rref

F5 = make_field(5)
SPIN_SETTINGS = settings(max_examples=25, deadline=None)


# ---------------------------------------------------------------------------
# oracles

def seq_add_vectors(field, basis, pivots, rows):
    """Insert rows one at a time: reduce each, scale its leading entry to
    1, clear that column from the basis and place the row by pivot."""
    pivots = list(pivots)
    for row in np.asarray(rows, dtype=np.int64).reshape(-1, basis.shape[1]):
        if pivots:
            row = field.sub(row, matmul(field, row[None, pivots], basis)[0])
        nz = np.flatnonzero(row)
        if not len(nz):
            continue
        c = int(nz[0])
        row = field.mul(row, field.inv(int(row[c])))
        basis = field.sub(basis, field.mul(basis[:, c:c + 1], row[None, :]))
        at = bisect.bisect(pivots, c)
        basis = np.concatenate((basis[:at], row[None, :], basis[at:]))
        pivots.insert(at, c)
    return basis, pivots


def seq_spin(M, w):
    """Spin one vector at a time; returns the (even, odd) echelon bases."""
    f = M.field
    parts = {par: (np.zeros((0, M.dim), dtype=np.int64), []) for par in (0, 1)}
    frontier = [c for c in (np.where(M.parity == par, w, 0) for par in (0, 1))
                if c.any()]
    while frontier:
        v = frontier.pop()
        par = int(M.parity[np.flatnonzero(v)[0]])
        assert (M.parity[v != 0] == par).all()
        basis, pivots = parts[par]
        grown = seq_add_vectors(f, basis, pivots, v)
        if len(grown[1]) == len(pivots):
            continue
        parts[par] = grown
        for u in M.units:
            img = M.act(u, v)
            if img.any():
                frontier.append(img)
    return parts[0][0], parts[1][0]


def seq_quotient_action(M, sub):
    """Quotient action matrices built one basis vector at a time."""
    Q, proj, lift = quotient_module(M, sub)
    eye = np.eye(Q.dim, dtype=np.int64)
    return {u: np.array([proj(M.act(u, lift(eye[t]))) for t in range(Q.dim)],
                        dtype=np.int64).T.reshape(Q.dim, Q.dim)
            for u in M.units}


def seq_restrict_action(M, sub):
    """Restricted action matrices built one basis vector at a time."""
    space = Subspace(M.field, M.dim, sub.basis_rows())
    return {u: np.array([space.coords(M.act(u, b)) for b in space.basis],
                        dtype=np.int64).T.reshape(space.dim, space.dim)
            for u in M.units}


# ---------------------------------------------------------------------------
# modules

def _verma(m, n, lam, field=F5, chi=None):
    alg = build_algebra(m, n, field)
    return build_baby_verma(alg, Character(alg, chi or {}), Weight(field, lam))


def _extended_verma():
    """gl(2|1), chi = diag(1, 1, 1): the weights live in F_{5^5}."""
    alg = build_algebra(2, 1, F5)
    chi = Character(alg, {(1, 1): 1, (2, 2): 1, (3, 3): 1})
    alg, chi, weights = weight_variety(alg, chi)
    assert alg.field.q == 5 ** 5
    return build_baby_verma(alg, chi, weights[7])


def _quotient():
    """The head side of a reducible gl(2|1) baby Verma over F_5."""
    Z = _verma(2, 1, [0, 0, 0])
    verdict = is_simple(Z)
    assert not verdict.simple
    Q, _, _ = quotient_module(Z, spin(Z, verdict.witness))
    assert 0 < Q.dim < Z.dim
    return Q


MODULES = {
    "gl11": lambda: _verma(1, 1, [2, 3]),
    "gl11-simple": lambda: _verma(1, 1, [1, 3]),
    "gl21": lambda: _verma(2, 1, [0, 0, 0]),
    "gl21-levi": lambda: _verma(2, 1, [1, 0, 2], chi={(2, 1): 1}),
    "gl21-ext": _extended_verma,
    "gl21-quotient": _quotient,
}
_BUILT = {}


def module(name):
    if name not in _BUILT:
        _BUILT[name] = MODULES[name]()
    return _BUILT[name]


@st.composite
def spin_vectors(draw, M):
    """Nonzero vectors: the highest vector, single basis vectors, sparse
    vectors of mixed parity and dense ones."""
    q = M.field.q
    kind = draw(st.sampled_from(["highest", "basis", "sparse", "dense"]))
    if kind == "highest" and M.highest_vector is not None:
        return M.highest_vector
    if kind == "basis":
        v = np.zeros(M.dim, dtype=np.int64)
        v[draw(st.integers(0, M.dim - 1))] = draw(st.integers(1, q - 1))
        return v
    elems = st.integers(0, q - 1)
    v = draw(hnp.arrays(np.int64, M.dim, elements=elems))
    if kind == "sparse":
        keep = draw(hnp.arrays(np.bool_, M.dim, elements=st.booleans()))
        v = np.where(keep, v, 0)
    if not v.any():
        v[draw(st.integers(0, M.dim - 1))] = 1
    return v


# ---------------------------------------------------------------------------
# spin

@pytest.mark.parametrize("name", sorted(MODULES))
@SPIN_SETTINGS
@given(data=st.data())
def test_spin_matches_per_vector_oracle(name, data):
    M = module(name)
    w = data.draw(spin_vectors(M))
    sub = spin(M, w)
    even, odd = seq_spin(M, w)
    assert np.array_equal(sub.even_part.basis, even)
    assert np.array_equal(sub.odd_part.basis, odd)
    assert sub.is_action_closed()


@pytest.mark.parametrize("name", sorted(MODULES))
def test_spin_of_highest_vector_matches_oracle(name):
    M = module(name)
    if M.highest_vector is None:
        pytest.skip("module without a highest vector")
    sub = spin(M, M.highest_vector)
    even, odd = seq_spin(M, M.highest_vector)
    assert np.array_equal(sub.even_part.basis, even)
    assert np.array_equal(sub.odd_part.basis, odd)


def test_mixed_parity_rows_are_rejected():
    M = module("gl11")
    mixed = np.zeros(M.dim, dtype=np.int64)
    mixed[np.flatnonzero(M.parity == 0)[0]] = 1
    mixed[np.flatnonzero(M.parity == 1)[0]] = 1
    with pytest.raises(AssertionError, match="parity homogeneous"):
        GradedSubmodule(M).add_rows(mixed)


# ---------------------------------------------------------------------------
# Subspace insertion and sparse row reduction

@pytest.mark.parametrize("name", sorted(FIELDS))
@KERNEL_SETTINGS
@given(data=st.data())
def test_add_vectors_matches_per_row_insertion(name, data):
    F = FIELDS[name]
    n = data.draw(st.integers(1, 7))
    s = Subspace(F, n, draw_matrix(data, F, cols=n))
    rows = draw_matrix(data, F, cols=n)
    grown = s.add_vectors(rows)
    basis, pivots = seq_add_vectors(F, s.basis, s.pivots, rows)
    assert np.array_equal(grown.basis, basis)
    assert grown.pivots == pivots


@st.composite
def sparse_matrices(draw, q, max_side=14):
    """Matrices with at least 80% zeros and at least one zero column."""
    r = draw(st.integers(1, max_side))
    c = draw(st.integers(2, max_side))
    zero_cols = draw(st.sets(st.integers(0, c - 1), min_size=1, max_size=c))
    live = [j for j in range(c) if j not in zero_cols]
    a = np.zeros((r, c), dtype=np.int64)
    if live:
        count = draw(st.integers(0, (r * c) // 5))
        for _ in range(count):
            i = draw(st.integers(0, r - 1))
            j = draw(st.sampled_from(live))
            a[i, j] = draw(st.integers(1, q - 1))
    return a


@pytest.mark.parametrize("name", sorted(FIELDS))
@KERNEL_SETTINGS
@given(data=st.data())
def test_rref_and_kernel_of_sparse_matrices_match_oracle(name, data):
    F = FIELDS[name]
    a = data.draw(sparse_matrices(F.q))
    assert (a == 0).mean() >= 0.8 and not a.any(axis=0).all()
    ech, pivots = rref(F, a)
    want, want_pivots = t_rref(F, a)
    assert pivots == want_pivots and np.array_equal(ech, want)
    assert np.array_equal(kernel_arr(F, a), t_kernel(F, a))


# ---------------------------------------------------------------------------
# quotient, restriction and closedness against per-vector loops

def _proper_submodule():
    Z = module("gl21")
    return Z, spin(Z, is_simple(Z).witness)


def test_quotient_action_matches_per_vector_loop():
    Z, sub = _proper_submodule()
    Q, _, _ = quotient_module(Z, sub)
    want = seq_quotient_action(Z, sub)
    for u in Z.units:
        assert np.array_equal(Q.matrix(u).data, want[u])


def test_restrict_action_matches_per_vector_loop():
    Z, sub = _proper_submodule()
    R, basis = restrict_module(Z, sub)
    want = seq_restrict_action(Z, sub)
    for u in Z.units:
        assert np.array_equal(R.matrix(u).data, want[u])
    assert np.array_equal(R.parity, [Z.parity[np.flatnonzero(b)[0]] for b in basis])


def test_restrict_rejects_a_space_that_is_not_a_submodule():
    Z = module("gl21")
    line = GradedSubmodule(Z).add_rows(Z.highest_vector)
    assert not line.is_action_closed()
    with pytest.raises(ValueError, match="not in subspace"):
        restrict_module(Z, line)


def test_is_action_closed_matches_per_vector_loop():
    Z, sub = _proper_submodule()
    for grown in (sub, sub.add_rows(Z.highest_vector), GradedSubmodule(Z)):
        tot = grown.total()
        want = all(tot.contains(Z.act(u, row))
                   for u in Z.units for row in tot.basis)
        assert grown.is_action_closed() == want
