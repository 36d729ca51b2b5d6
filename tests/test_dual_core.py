"""dual_core against the line route, kept as an oracle in _line_oracle.

is_simple and simple_head take dual_core's certificate whenever a module's
highest vector generates it and spans a weight space of its own, and a line
of the dual's socle over n- where that socle is one line or the module has
no Cartan units.  The library refuses any other module, and the line
oracle's dual_core, is_simple and simple_head take the descent there
(_line_oracle.descent_core).  The oracle is the route this replaced:
is_simple_by_lines spins every maximal-vector line, and
simple_head_by_lines peels proper spins until the quotient is simple.  The
unique maximal submodule of a local module has one canonical basis, so
both routes must give the same R array there; on every module they must
give the same verdict and the same composition factors.  The certificate
rests on the highest vector generating the module, which is checked here
for every builder output and its quotients.  Its spin runs in the dual of
the root units alone, checked against the dual of every unit; and R, on
every route, against the int path, with every product taken in int64
instead of by float BLAS and the candidate pieces of M* read off the
oracle's dual module.  The descent is checked there on the restrictions of
a composition series and on M + M in a drawn basis, whose spins take
products where those of the restrictions mostly gather coordinate rows.
"""

import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _line_oracle
from _line_oracle import (dual_module, is_local_by_dual_spins, is_simple_by_lines,
                          series_factors_by_lines, simple_head_by_lines,
                          witness)
from test_weight_split import _series_restrictions
from _series_oracle import composition_series, quotient_module, restrict_module

from glmn import analysis, linalg, series
from glmn.algebra import Character, Weight, build_algebra, weight_variety
from glmn.analysis import (_candidate_spaces, _top_coordinate, dual_core,
                           is_simple, simple_head, spin)
from glmn.errors import BudgetExceeded
from glmn.ffield import make_field
from glmn.series import regular_module
from glmn.kw import build_levi_verma, levi_data
from glmn.verma import (ModuleRep, build_baby_verma, build_even_verma,
                        build_graded_verma, build_simple_g0_module, cartan_diagonal,
                        induce)

F5 = make_field(5)
DUAL_SETTINGS = settings(max_examples=12, deadline=None)

# (m, n, chi) over F_5; a diagonal chi extends the field to F_{5^5}
SETTINGS = {
    "gl11-F5-chi0": (1, 1, {}),
    "gl21-F5-chi0": (2, 1, {}),
    "gl21-F5-E21": (2, 1, {(2, 1): 1}),
    "gl21-F5-E21x2": (2, 1, {(2, 1): 2}),
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
    return [ZL, head, induce(alg, chi, phi, head)]


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


def assert_witness(M, core):
    """witness(M): a homogeneous maximal vector of the claimed piece, inside
    core(W)."""
    w, fingerprint, parity = witness(M)
    pieces = {fp: (sub, par) for fp, sub, par in _candidate_spaces(M)}
    sub, par = pieces[fingerprint]
    assert par == parity
    assert w.any() and sub.contains(w) and core.contains(w)
    assert set(M.parity[w != 0].tolist()) == {par}
    assert spin(M, w).dim < M.dim


def assert_routes_agree(M):
    assert _top_coordinate(M) is not None, "the certificate declined"
    core = dual_core(M)
    got, want = is_simple(M), is_simple_by_lines(M)
    assert got.simple == want.simple == (core.dim == 0)
    assert not got.probabilistic and not want.probabilistic
    if not got.simple:
        assert_witness(M, core)
    R, head = simple_head(M)
    R_lines, head_lines = simple_head_by_lines(M)
    assert np.array_equal(R.basis, R_lines.basis)
    assert R.pivots == R_lines.pivots
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
    assert _top_coordinate(Z) is None


def _doubled(M):
    """M + M with block-diagonal action and no highest vector."""
    n, U = M.dim, len(M.units)
    actions = np.zeros((U, 2 * n, 2 * n), dtype=np.int64)
    actions[:, :n, :n] = actions[:, n:, n:] = M.actions
    return ModuleRep(M.algebra, M.chi, M.units, actions,
                     np.concatenate([M.parity, M.parity]))


@pytest.mark.parametrize("m,n,lam", [(1, 1, [1, 3]), (2, 1, [1, 0, 2])])
def test_line_route_is_exhaustive_or_refused(m, n, lam, monkeypatch):
    """Every maximal-vector piece of M + M, and of its dual, is doubled, so
    each has at least q + 1 = 6 lines.  Within the line budget the descent
    finds a proper submodule; over a budget of 5 lines is_simple and
    simple_head refuse before spinning anything."""
    alg = algebra(m, n)
    D = _doubled(build_baby_verma(alg, Character(alg, {}), Weight(F5, lam)))
    assert _top_coordinate(D) is None
    assert min(sub.dim for _, sub, _ in _candidate_spaces(D)) >= 2
    verdict = _line_oracle.is_simple(D)
    assert not verdict.simple and spin(D, witness(D)[0]).dim < D.dim
    spins = []

    real = series._spins

    def counting_spins(jobs):
        jobs = list(jobs)
        spins.extend(M.dim for M, _, _ in jobs)
        return real(jobs)

    monkeypatch.setattr(_line_oracle, "LINE_BUDGET", 5)
    monkeypatch.setattr(series, "_spins", counting_spins)
    monkeypatch.setattr(_line_oracle, "_spins", counting_spins)
    with pytest.raises(BudgetExceeded):
        _line_oracle.is_simple(D)
    with pytest.raises(BudgetExceeded):
        _line_oracle.simple_head(D)
    assert spins == []


@pytest.mark.parametrize("m,n,lam", [(1, 1, [1, 3]), (1, 1, [2, 3]),
                                     (2, 1, [1, 0, 2])])
def test_doubled_module_has_a_simple_head_and_is_not_local(m, n, lam):
    """M + M has the simple head M / rad M and two maximal submodules, so
    the line oracle's locality is false on it and true on M."""
    alg = algebra(m, n)
    M = build_baby_verma(alg, Character(alg, {}), Weight(F5, lam))
    D = _doubled(M)
    R, head = _line_oracle.simple_head(D)
    assert R.dim + head.dim == D.dim and is_simple_by_lines(head).simple
    assert head.dim == simple_head(M)[1].dim
    assert not is_local_by_dual_spins(D) and is_local_by_dual_spins(M)


def assert_matches_lines(M, memo=None):
    """Equal verdicts, equal R where M is local (the oracle's locality),
    and equal composition factors (memo: see series_factors_by_lines)."""
    got, want = _line_oracle.is_simple(M), is_simple_by_lines(M)
    assert got.simple == want.simple
    core = _line_oracle.dual_core(M)
    if not got.simple:
        assert_witness(M, core)
    R, head = _line_oracle.simple_head(M)
    assert is_simple_by_lines(head).simple
    if is_local_by_dual_spins(M):
        assert R == simple_head_by_lines(M)[0]
    assert Counter(composition_series(M).factors) == series_factors_by_lines(M, memo)


# the settings whose baby Vermas' series restrictions the certificate
# declines: the socle line decides the cyclic ones, the descent the rest
SERIES_SETTINGS = ["gl11-F5-chi0", "gl21-F5-chi0", "gl21-F5-E21", "gl21-F5-E21x2"]


@pytest.mark.parametrize("name", SERIES_SETTINGS)
@DUAL_SETTINGS
@given(data=st.data())
def test_descent_matches_line_route_on_series_restrictions(name, data):
    alg, chi, weights = setting(name)
    t = data.draw(st.integers(0, len(weights) - 1), label="weight")
    for M in _series_restrictions(alg, chi, weights[t]):
        assert _top_coordinate(M) is None, "the certificate applied"
        assert_matches_lines(M)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("m,n,chi", [(1, 1, {}), (2, 1, {}),
                                     (2, 1, {(2, 1): 2})])
def test_socle_route_matches_line_route_on_regular_modules(m, n, chi, side,
                                                          monkeypatch):
    """The regular module of u(n-, chi) and every restriction along its
    composition series have no Cartan units, so they take the socle and
    never descend."""
    def no_descent(*args):
        raise AssertionError("a module without Cartan units descended")

    monkeypatch.setattr(_line_oracle, "descent_core", no_descent)
    alg = algebra(m, n)
    rs = alg.root_system()
    M = regular_module(alg, [rs.f_unit(r) for r in rs.positive],
                       Character(alg, chi), side=side)
    memo = {}
    while True:
        assert not analysis._has_cartan(M)
        assert_matches_lines(M, memo)
        R = dual_core(M)
        if not R.dim:
            break
        M, _ = restrict_module(M, R)


# ---------------------------------------------------------------------------
# the float products against the int path, and the root-unit dual

def int_matmul_mod(a, b, p):
    """(a @ b) % p in int64, exact while inner * (p - 1)^2 < 2^63."""
    return (np.asarray(a).astype(np.int64) @ np.asarray(b).astype(np.int64)) % p


def oracle_pieces(M, forms=False):
    """The candidate pieces of M, or with forms those of the dual module
    built as a module of its own."""
    return _candidate_spaces(dual_module(M) if forms else M)


def core_by_both_paths(M):
    """dual_core of M by float BLAS products, and by the int path:
    _matmul_mod replaced by int64 products, and the pieces of M* read off
    dual_module(M)."""
    got = _line_oracle.dual_core(M)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_matmul_mod", int_matmul_mod)
        mp.setattr(_line_oracle, "_candidate_spaces", oracle_pieces)
        want = _line_oracle.dual_core(M)
    return got, want


def in_drawn_basis(data, M):
    """M over F_p in the basis changed by a drawn G = D (1 + N): D diagonal
    with nonzero entries, N strictly upper triangular inside each block of
    one parity and weight, so the Cartan action stays diagonal.  N is
    nilpotent, so G's inverse is exact in int64."""
    p, n = M.field.p, M.dim
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="basis seed"))
    keys = np.vstack([M.parity, cartan_diagonal(M)])
    N = np.triu(rng.integers(0, p, (n, n)), 1) * (keys[:, :, None] == keys[:, None]).all(axis=0)
    d = rng.integers(1, p, n)
    inv, power = np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64)
    for _ in range(n):
        power = -power @ N % p
        inv = (inv + power) % p
    G = d[:, None] * (np.eye(n, dtype=np.int64) + N) % p
    inv = inv * np.array([pow(int(x), p - 2, p) for x in d]) % p
    assert np.array_equal(G @ inv % p, np.eye(n))
    return ModuleRep(M.algebra, M.chi, M.units, G @ M.actions @ inv % p, M.parity)


@pytest.mark.parametrize("name,kind", CASES)
@DUAL_SETTINGS
@given(data=st.data())
def test_dual_core_matches_the_int_path(name, kind, data):
    _, _, weights = setting(name)
    t = data.draw(st.integers(0, len(weights) - 1), label="weight")
    for M in modules(name, kind, t):
        got, want = core_by_both_paths(M)
        assert got == want and got.pivots == want.pivots


@pytest.mark.parametrize("name", SERIES_SETTINGS)
@DUAL_SETTINGS
@given(data=st.data())
def test_descent_matches_the_int_path(name, data):
    alg, chi, weights = setting(name)
    t = data.draw(st.integers(0, len(weights) - 1), label="weight")
    D = _doubled(build_baby_verma(alg, chi, weights[t]))
    for M in _series_restrictions(alg, chi, weights[t]) + [in_drawn_basis(data, D)]:
        assert _top_coordinate(M) is None, "the certificate applied"
        got, want = core_by_both_paths(M)
        assert got == want and got.pivots == want.pivots


@pytest.mark.parametrize("name", ["gl21-F5-chi0", "gl21-F5^5-diag"])
def test_root_unit_dual_gives_the_core_of_every_unit(name):
    """The certificate spins e_t in the dual of the root units; the dual of
    every unit, Cartan units included, must give the same R, on every
    gl(2|1) baby and graded Verma whose top coordinate is certified."""
    alg, chi, weights = setting(name)
    certified = 0
    for lam in weights:
        for M in (build_baby_verma(alg, chi, lam),
                  *_graded(alg, chi, lam)[1:]):
            t = _top_coordinate(M)
            if t is None:
                continue
            certified += 1
            R = spin(dual_module(M), M.basis_vector(t)).annihilator()
            assert dual_core(M) == R
            roots = [u for u in M.units if u[0] != u[1]]
            root_part = ModuleRep(alg, chi, roots, M.matrices(roots), M.parity)
            assert spin(dual_module(root_part), M.basis_vector(t)).annihilator() == R
    assert certified == 2 * len(weights)


def test_certificate_spins_in_the_dual_of_the_root_units(monkeypatch):
    alg, chi, weights = setting("gl21-F5-chi0")
    # the forms of M spin by [A_1 | ... | A_6], the root units' own matrices
    M = build_baby_verma(alg, chi, weights[0])
    assert _top_coordinate(M) is not None
    spun = []
    real = analysis._spin_stack

    def recording_spin(Ms, rights, ws):
        spun.extend(zip(Ms, rights))
        return real(Ms, rights, ws)

    monkeypatch.setattr(analysis, "_spin_stack", recording_spin)
    dual_core(M)
    roots = [u for u in M.units if u[0] != u[1]]
    assert len(roots) == 6 and len(spun) == 1 and spun[0][0] is M
    assert np.array_equal(spun[0][1], np.hstack(M.matrices(roots)))
