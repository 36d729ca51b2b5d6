"""Differential tests of the block spin and the block Subspace insertion.

spin grows a graded submodule in rounds, mapping every newly added basis
row through all units in one product, and Subspace.add_vectors inserts a
whole block of rows at once.  The oracles below are the code they
replaced: insertion of one row at a time into the echelon form, and a spin
that pops one vector at a time, acts on it with each unit separately and
inserts it alone.  The canonical echelon basis of a space is unique, so
the two must agree exactly.  The block rref is checked on sparse matrices
against the table oracle of test_kernels, and the block forms of
quotient_module and restrict_module against the per-vector loops they
replaced; is_action_closed, the tests' closure check, against a
per-vector loop too.  A spin multiplies rows by a right factor
(analysis._factor) that it builds for the call, float over F_p: unit
images by it and by the index array must agree, no analysis may leave
anything on a module, and the certificate builds no module at all.  Every
factor of forms, the certificate's, the socle line's and the line oracle's
descent's, holds the root units alone.
"""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from glmn import analysis, linalg, series, verma
from glmn.algebra import Character, Weight, build_algebra, weight_variety
from glmn.analysis import _factor, _images, dual_core, dual_cores, is_simple, simple_head, spin
from glmn.ffield import make_field
from glmn.linalg import Subspace, kernel, matmul, rref
from glmn.verma import ModuleRep, build_baby_verma, build_even_verma
from test_kernels import (FIELDS, KERNEL_SETTINGS, draw_matrix, line_seeded, t_kernel,
                          t_rref)
import _line_oracle
from _line_oracle import witness
from _series_oracle import composition_series, quotient_module, restrict_module, stacked_action

F5 = make_field(5)
F7 = make_field(7)
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
    space = Subspace(M.field, M.dim, sub.basis)
    return {u: np.array([space.coords(M.act(u, b)) for b in space.basis],
                        dtype=np.int64).T.reshape(space.dim, space.dim)
            for u in M.units}


def parity_parts(M, sub):
    """The (even, odd) canonical bases of a graded submodule; split raises
    when a basis row leaves the parity part of its pivot."""
    parts = dict(sub.split(M.parity.tolist()))
    empty = np.zeros((0, M.dim), dtype=np.int64)
    return tuple(parts[par].basis if par in parts else empty for par in (0, 1))


def unit_images(M, rows, right=None):
    """The images u.v of the rows v under every unit u (_images of the
    stack of M alone), by right, M's action transposed by default."""
    right = stacked_action(M).T if right is None else right
    return _images(M.field, np.asarray(rows, dtype=np.int64)[None], right)[0]


def is_action_closed(M, space):
    """Whether every unit maps the Subspace into itself."""
    return not np.any(space.reduce(unit_images(M, space.basis)))


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
    Q, _, _ = quotient_module(Z, spin(Z, witness(Z)[0]))
    assert 0 < Q.dim < Z.dim
    return Q


MODULES = {
    "gl11": lambda: _verma(1, 1, [2, 3]),
    "gl11-simple": lambda: _verma(1, 1, [1, 3]),
    "gl21": lambda: _verma(2, 1, [0, 0, 0]),
    "gl21-levi": lambda: _verma(2, 1, [1, 0, 2], chi={(2, 1): 1}),
    "gl21-F7": lambda: _verma(2, 1, [3, 1, 5], field=F7),
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
    got_even, got_odd = parity_parts(M, sub)
    assert np.array_equal(got_even, even)
    assert np.array_equal(got_odd, odd)
    assert is_action_closed(M, sub)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_spin_of_highest_vector_matches_oracle(name):
    M = module(name)
    if M.highest_vector is None:
        pytest.skip("module without a highest vector")
    even, odd = seq_spin(M, M.highest_vector)
    got_even, got_odd = parity_parts(M, spin(M, M.highest_vector))
    assert np.array_equal(got_even, even)
    assert np.array_equal(got_odd, odd)


@pytest.mark.parametrize("name", sorted(MODULES))
@SPIN_SETTINGS
@given(data=st.data())
def test_unit_images_match_per_unit_products(name, data):
    """Coordinate vectors e_c are gathered, scaled ones and the rest are
    multiplied: by the index array of the action and by spin's factor, a
    float array over F_p; every image must equal u.v."""
    M = module(name)
    rows = np.array([data.draw(spin_vectors(M)) for _ in range(3)])
    want = [[M.act(u, v) for u in M.units] for v in rows]
    factor = _factor(M, False)
    assert (factor.dtype.kind == "f") == (M.field.k == 1)
    for right in (stacked_action(M).T, factor):
        images = unit_images(M, rows, right).reshape(len(rows), len(M.units), M.dim)
        assert np.array_equal(images, want)


def test_mixed_parity_rows_are_rejected():
    # a unit that maps the even e_0 to e_0 + e_1, across both parities:
    # the first round's image is not homogeneous
    alg = module("gl11").algebra
    M = ModuleRep(alg, Character(alg, {}), [(1, 1)], [[[1, 0], [1, 0]]], [0, 1])
    with pytest.raises(AssertionError, match="parity homogeneous"):
        spin(M, M.basis_vector(0))


# ---------------------------------------------------------------------------
# Subspace insertion and sparse row reduction

@pytest.mark.parametrize("name", sorted(FIELDS))
@KERNEL_SETTINGS
@given(data=st.data())
def test_add_vectors_matches_per_row_insertion(name, data):
    F = FIELDS[name]
    n = data.draw(st.integers(1, 7))
    s = Subspace(F, n, draw_matrix(data, F, cols=n))
    rows = line_seeded(data, F, n) if data.draw(st.booleans()) else \
        draw_matrix(data, F, cols=n)
    grown = s.add_vectors(rows)
    basis, pivots = seq_add_vectors(F, s.basis, s.pivots, rows)
    assert np.array_equal(grown.basis, basis)
    assert grown.pivots == pivots


@st.composite
def sparse_matrices(draw, q, max_side=14):
    """Matrices with at least 80% zeros and at least one zero column, some
    of them as tall as a stacked action of up to four units."""
    r = draw(st.integers(1, max_side)) * draw(st.integers(1, 4), label="units")
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
    assert np.array_equal(kernel(F, a).basis, t_kernel(F, a))


# ---------------------------------------------------------------------------
# quotient, restriction and closedness against per-vector loops

def _proper_submodule():
    Z = module("gl21")
    return Z, spin(Z, witness(Z)[0])


def test_quotient_action_matches_per_vector_loop():
    Z, sub = _proper_submodule()
    Q, _, _ = quotient_module(Z, sub)
    want = seq_quotient_action(Z, sub)
    for u in Z.units:
        assert np.array_equal(Q.matrix(u), want[u])


def test_restrict_action_matches_per_vector_loop():
    Z, sub = _proper_submodule()
    R, basis = restrict_module(Z, sub)
    want = seq_restrict_action(Z, sub)
    for u in Z.units:
        assert np.array_equal(R.matrix(u), want[u])
    assert np.array_equal(R.parity, [Z.parity[np.flatnonzero(b)[0]] for b in basis])


def test_restrict_rejects_a_space_that_is_not_a_submodule():
    Z = module("gl21")
    line = Subspace(Z.field, Z.dim, [Z.highest_vector])
    assert not is_action_closed(Z, line)
    with pytest.raises(ValueError, match="not in subspace"):
        restrict_module(Z, line)


def test_is_action_closed_matches_per_vector_loop():
    Z, sub = _proper_submodule()
    for space in (sub, sub.add_vectors(Z.highest_vector), Subspace(Z.field, Z.dim)):
        want = all(space.contains(Z.act(u, row))
                   for u in Z.units for row in space.basis)
        assert is_action_closed(Z, space) == want


# ---------------------------------------------------------------------------
# the right factor of a spin: built for the call, kept on no module

def same_state(M, before):
    """Whether vars(M) holds the very objects of the snapshot before."""
    now = vars(M)
    return now.keys() == before.keys() and all(now[k] is v for k, v in before.items())


def test_analysis_leaves_the_module_as_it_was():
    Z = module("gl21")
    before = dict(vars(Z))
    sub = spin(Z, witness(Z)[0])
    dual_core(Z)
    simple_head(Z)
    quotient_module(Z, sub)
    R, _ = restrict_module(Z, sub)
    composition_series(Z)
    assert same_state(Z, before)
    # a restriction has no highest vector: its core takes the socle line,
    # or the line oracle's descent where the library refuses it
    before = dict(vars(R))
    assert analysis._top_coordinate(R) is None and _line_oracle.dual_core(R).dim < R.dim
    composition_series(R)
    assert same_state(R, before)


def test_certificates_build_no_module(monkeypatch):
    # every gl(2|1) baby Verma at chi = 0 is certified
    alg = build_algebra(2, 1, F5)
    alg, chi, weights = weight_variety(alg, Character(alg, {}))
    Zs = [build_baby_verma(alg, chi, lam) for lam in weights]
    assert all(analysis._top_coordinate(Z) is not None for Z in Zs)
    built, real = [], verma.ModuleRep.__init__

    def init(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(verma.ModuleRep, "__init__", init)
    cores = dual_cores(Zs)
    assert built == [] and len(cores) == len(Zs) and any(R.dim for R in cores)


def test_spin_multiplies_by_the_copy_itself(monkeypatch):
    # linalg.matmul hands spin's float factor to _matmul_mod unconverted
    Z = module("gl21")
    rights, factors, kernel = [], [], linalg._matmul_mod

    def recording(a, b, p):
        rights.append(b)
        return kernel(a, b, p)

    def factor(*args):
        factors.append(_factor(*args))
        return factors[-1]

    monkeypatch.setattr(linalg, "_matmul_mod", recording)
    monkeypatch.setattr(analysis, "_factor", factor)
    spin(Z, np.where(Z.parity == 0, 1, 0))
    assert len(factors) == 1 and factors[0].dtype == np.float32
    assert any(b is factors[0] for b in rights)


@pytest.mark.parametrize("p,ftype", [(5, np.float32), (4093, np.float64)])
def test_float_copy_type_follows_dimension_and_p(p, ftype):
    # gl(1|1) baby Vermas have dimension 2: 2 (p - 1)^2 >= 2^24 at p = 4093
    # vectors spin by every unit, forms by the root units alone
    Z = _verma(1, 1, [1, 3], field=make_field(p))
    for forms, units in ((False, Z.units), (True, [(1, 2), (2, 1)])):
        right = _factor(Z, forms)
        assert right.dtype == ftype and right.flags.c_contiguous
        assert np.array_equal(right, np.hstack([Z.matrix(u) if forms else Z.matrix(u).T
                                                for u in units]))


def test_extension_fields_keep_no_float_copy():
    # over F_{5^5} the factor holds the field indices themselves
    M = module("gl21-ext")
    roots = [u for u in M.units if u[0] != u[1]]
    right = _factor(M, True)
    assert right.dtype == np.int64 and np.array_equal(right, np.hstack(M.matrices(roots)))


def test_the_descent_builds_one_factor_per_core(monkeypatch):
    # the restrictions of a composition series of a reducible gl(2|1) baby
    # Verma take the line oracle's descent, each trying several lines with
    # one factor
    Z = module("gl21")
    restrictions = []
    while (R := _line_oracle.dual_core(Z)).dim:
        Z, _ = restrict_module(Z, R)
        restrictions.append(Z)
    counts = {"core": 0, "factor": 0, "line": 0}

    def counted(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)
        return call

    for name, attr in (("core", "descent_core"), ("factor", "_factor"), ("line", "_spins")):
        monkeypatch.setattr(_line_oracle, attr, counted(name, getattr(_line_oracle, attr)))
    for M in restrictions:
        _line_oracle.descent_core(M)
    assert counts["core"] == counts["factor"] == len(restrictions) >= 2
    assert counts["line"] > counts["core"]


def test_every_forms_factor_holds_the_root_units_alone(monkeypatch):
    # the certificates of gl(2|1) baby Vermas, and the socle line or the
    # line oracle's descent of the restrictions of a reducible one: no forms
    # factor holds a Cartan block
    alg = module("gl21").algebra
    chi, field = Character(alg, {}), alg.field
    Zs = [build_baby_verma(alg, chi, Weight(field, lam))
          for lam in ([0, 0, 0], [1, 3, 2], [2, 0, 4], [4, 4, 1])]
    restrictions, Z = [], module("gl21")
    while (R := _line_oracle.dual_core(Z)).dim:
        Z, _ = restrict_module(Z, R)
        restrictions.append(Z)
    built, real = [], analysis._factor

    def recording(M, *args):
        right = real(M, *args)
        if args[-1]:
            built.append((M, right))
        return right

    monkeypatch.setattr(analysis, "_factor", recording)
    monkeypatch.setattr(series, "_factor", recording)
    monkeypatch.setattr(_line_oracle, "_factor", recording)
    dual_cores(Zs)
    assert [M for M, _ in built] == Zs
    for M in restrictions:
        _line_oracle.dual_core(M)
    assert [M for M, _ in built[len(Zs):]] == restrictions and len(restrictions) >= 2
    for M, right in built:
        roots = [u for u in M.units if u[0] != u[1]]
        assert len(roots) == 6 < len(M.units)
        assert right.shape == (M.dim, M.dim * len(roots))


# ---------------------------------------------------------------------------
# the stacked action, computed once per module

@pytest.mark.parametrize("name", sorted(MODULES) + ["even-part", "restricted"])
def test_stacked_action_is_cached_vstack(name):
    if name == "even-part":
        alg = build_algebra(2, 1, F5)
        M = build_even_verma(alg, Character(alg, {}), Weight(F5, [1, 0, 2]))
    elif name == "restricted":
        M, _ = restrict_module(*_proper_submodule())
    else:
        M = module(name)
    stacked = stacked_action(M)
    assert stacked is stacked_action(M)
    assert np.array_equal(stacked, np.vstack([M.matrix(u) for u in M.units]))
    spin(M, M.highest_vector if M.highest_vector is not None
         else np.eye(M.dim, dtype=np.int64)[0])
    assert stacked_action(M) is stacked
