"""The line of M*'s socle over n- against the descent.

Every module glmn induces is cyclic over u(n-, chi), a local algebra whose
one simple module is the line on which each lower root unit x acts by
chi(x).  series._uncertified_core reads N, the socle of M* over it, as the
forms of M killed by every x - chi(x) (shifted_joint_kernel with forms).
Where N is one line, every proper submodule of M lies in the kernel of its
form, so S is the spin of that line.  Where N has more lines the library
refuses the module (NotCyclic).  The descent (_line_oracle.descent_core)
is the reference here: wherever N is one line, the core must be the
descent's, with the same canonical basis, on the baby, Levi and graded
Vermas of gl(2|1) and on every restriction along their composition series;
wherever it has more, the library must refuse.  The line's form may mix
weights (at chi(E21) = 1), so the form spun by the root units alone must
be a weight form, its part at one weight, as dual_core's argument needs.
On gl(3|1), whose weights recur mod p so that the certificate declines,
two baby Vermas are decided by the socle line.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glmn import series
from glmn.algebra import Character, Weight, build_algebra, weight_variety
from glmn.analysis import _spins, _top_coordinate, dual_core
from glmn.errors import NotCyclic
from glmn.ffield import make_field
from glmn.kw import build_levi_verma, levi_data
from glmn.series import shifted_joint_kernel
from glmn.verma import (build_baby_verma, build_graded_verma, build_simple_g0_module,
                        cartan_diagonal)
import _line_oracle
from _line_oracle import descent_core
from _series_oracle import restrict_module

F5 = make_field(5)
# chi of gl(2|1) over F_5; the diagonal one extends the field to F_{5^5}
CHIS = {"chi0": {}, "E21": {(2, 1): 1}, "diag": {(1, 1): 1, (2, 2): 1, (3, 3): 1}}
BUILDERS = {
    "baby": build_baby_verma,
    "levi": lambda alg, chi, lam: build_levi_verma(
        alg, chi, lam, levi_data(alg.root_system(), chi).phi_prime),
    "graded": lambda alg, chi, lam: build_graded_verma(
        alg, chi, build_simple_g0_module(alg, chi, lam)),
}


@functools.lru_cache(maxsize=None)
def setting(name):
    alg = build_algebra(2, 1, F5)
    return weight_variety(alg, Character(alg, CHIS[name]))


def spins_of_weight_forms(jobs):
    """_spins, once every form it is given lies in one weight space."""
    jobs = list(jobs)
    for M, _, w in jobs:
        diag = cartan_diagonal(M)
        assert len({tuple(diag[:, c]) for c in np.flatnonzero(w)}) == 1, "not a weight form"
    return _spins(jobs)


def with_restrictions(M):
    """M and every submodule its composition series restricts to."""
    out = [M]
    while (R := _line_oracle.dual_core(M)).dim:
        M, _ = restrict_module(M, R)
        out.append(M)
    return out


@pytest.mark.parametrize("kind", sorted(BUILDERS))
@pytest.mark.parametrize("name", sorted(CHIS))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_socle_line_core_is_the_descents(name, kind, data):
    alg, chi, weights = setting(name)
    lam = weights[data.draw(st.integers(0, len(weights) - 1), label="weight")]
    modules = with_restrictions(BUILDERS[kind](alg, chi, lam))
    socles = [shifted_joint_kernel(M, forms=True).dim for M in modules]
    # the induced module itself is cyclic over u(n-, chi)
    assert socles[0] == 1
    for M, socle in zip(modules, socles):
        if socle != 1:
            with pytest.raises(NotCyclic):
                series._uncertified_core(M)
            continue
        want = descent_core(M)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series, "_spins", spins_of_weight_forms)
            got = series._uncertified_core(M)
        assert np.array_equal(got.basis, want.basis) and got.pivots == want.pivots


@pytest.mark.parametrize("chi,lam,core_dim", [({}, [0, 4, 3, 1], 936),
                                              ({(2, 1): 1}, [0, 0, 0, 0], 950)])
def test_gl31_baby_vermas_take_no_descent_step(chi, lam, core_dim):
    alg = build_algebra(3, 1, F5)
    Z = build_baby_verma(alg, Character(alg, chi), Weight(F5, lam))
    assert Z.dim == 1000 and _top_coordinate(Z) is None
    assert shifted_joint_kernel(Z, forms=True).dim == 1
    assert dual_core(Z).dim == core_dim
