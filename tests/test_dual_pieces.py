"""The candidate pieces of M* read off M's own matrices, against M* built.

The socle route and the descent (series._uncertified_core) read the
candidate pieces of the dual module M* as forms of M
(analysis._candidate_spaces with forms): with Cartan units, the forms
killed by every e-unit, split by the (parity, weight) of M's Cartan
diagonal, which M* shares; without them, the forms killed by every
x - a_x, split by parity.  The oracle builds M* as a module of its own
(_line_oracle.dual_module) and reads its pieces as vectors.  Canonical
echelon bases are unique, so both must give the same fingerprints,
parities and Subspaces, with the same pivots, in the same order: on baby
and graded Vermas, on the restrictions along a composition series (Cartan
units, no highest vector) and on the regular modules of u(n-, chi) and
their restrictions (no Cartan units), over F_5, F_25 and F_{5^5}.  Neither
route builds a ModuleRep.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _line_oracle import dual_module
from test_weight_split import _series_restrictions
from _series_oracle import restrict_module

from glmn import series
from glmn.algebra import Character, build_algebra, weight_variety
from glmn.analysis import _candidate_spaces, _has_cartan, _top_coordinate, dual_core, dual_cores
from glmn.ffield import make_field
from glmn.series import regular_module
from glmn.verma import ModuleRep, build_baby_verma, build_graded_verma, build_simple_g0_module

# (degree, chi) of gl(2|1) over F_{5^degree}; a diagonal chi extends F_5
# to F_{5^5}
SETTINGS = {
    "F5-chi0": (1, {}),
    "F5-E21": (1, {(2, 1): 1}),
    "F25-chi0": (2, {}),
    "F25-E21": (2, {(2, 1): 1}),
    "F5^5-diag": (1, {(1, 1): 1, (2, 2): 1, (3, 3): 1}),
}


@functools.lru_cache(maxsize=None)
def setting(name):
    degree, chi = SETTINGS[name]
    alg = build_algebra(2, 1, make_field(5, degree))
    alg, chi, weights = weight_variety(alg, Character(alg, chi))
    assert alg.field.q == (5 ** 5 if name == "F5^5-diag" else 5 ** degree)
    return alg, chi, weights


def _graded(alg, chi, lam):
    return [build_graded_verma(alg, chi, build_simple_g0_module(alg, chi, lam))]


KINDS = {
    "baby": lambda alg, chi, lam: [build_baby_verma(alg, chi, lam)],
    "graded": _graded,
    "series": _series_restrictions,
}


def regular_series(name, side):
    """The regular module of u(n-, chi) and every submodule its composition
    series restricts to."""
    alg, chi, _ = setting(name)
    rs = alg.root_system()
    M = regular_module(alg, [rs.f_unit(r) for r in rs.positive], chi, side=side)
    out = [M]
    while (R := dual_core(M)).dim:
        M, _ = restrict_module(M, R)
        out.append(M)
    return out


def assert_pieces_of_the_dual(M):
    got = _candidate_spaces(M, True)
    want = _candidate_spaces(dual_module(M))
    assert got, "no candidate piece"
    assert [(fp, par) for fp, _, par in got] == [(fp, par) for fp, _, par in want]
    for (_, sub, _), (_, ref, _) in zip(got, want):
        assert np.array_equal(sub.basis, ref.basis) and sub.pivots == ref.pivots


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("name", sorted(SETTINGS))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_pieces_of_the_dual_on_weight_modules(name, kind, data):
    alg, chi, weights = setting(name)
    t = data.draw(st.integers(0, len(weights) - 1), label="weight")
    for M in KINDS[kind](alg, chi, weights[t]):
        assert _has_cartan(M)
        assert_pieces_of_the_dual(M)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_pieces_of_the_dual_on_regular_modules(name, side):
    modules = regular_series(name, side)
    assert len(modules) > 1
    for M in modules:
        assert not _has_cartan(M)
        assert_pieces_of_the_dual(M)


def modules_built_in_uncertified_cores(monkeypatch, modules):
    """(cores, modules built inside them) over dual_cores of modules."""
    inside, cores, built = [False], [], []
    real_init, real_core = ModuleRep.__init__, series._uncertified_core

    def counting_init(self, *args, **kwargs):
        if inside[0]:
            built.append(self)
        real_init(self, *args, **kwargs)

    def marked_core(M):
        inside[0] = True
        try:
            cores.append(M)
            return real_core(M)
        finally:
            inside[0] = False

    with monkeypatch.context() as mp:
        mp.setattr(ModuleRep, "__init__", counting_init)
        mp.setattr(series, "_uncertified_core", marked_core)
        dual_cores(modules)
    return len(cores), len(built)


@pytest.mark.parametrize("side", ["left", "right"])
def test_the_socle_route_builds_no_module(side, monkeypatch):
    modules = regular_series("F5-chi0", side)
    assert modules_built_in_uncertified_cores(monkeypatch, modules) == (len(modules), 0)


def test_the_descent_builds_no_module(monkeypatch):
    alg, chi, weights = setting("F5-chi0")
    modules = [M for lam in weights[::5] for M in _series_restrictions(alg, chi, lam)]
    assert modules and all(_top_coordinate(M) is None for M in modules)
    steps = []
    real = series._smaller_spin

    def counting_step(*args):
        steps.append(args)
        return real(*args)

    monkeypatch.setattr(series, "_smaller_spin", counting_step)
    assert modules_built_in_uncertified_cores(monkeypatch, modules) == (len(modules), 0)
    # a module whose socle over n- is one line takes no descent step
    descending = [M for M in modules if series.shifted_joint_kernel(M, forms=True).dim > 1]
    assert descending and len(steps) >= len(descending)
