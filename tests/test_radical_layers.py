"""The radical layers of the regular modules of u(n-, chi), which
regular-module-check reads, against the composition series oracle.

With y_x = x - chi(x) over the units x of n-, M_0 = M and M_{k+1} = sum_x
y_x M_k, every y_x acts by 0 on each layer M_k / M_{k+1}, so a chain that
reaches 0 peels one factor, the one-dimensional chi-module, per dimension.
On the left and right regular modules (dim 20) of gl(2|1) and gl(1|2), at
chi = 0 and at a chi that is nonzero on a simple root vector, the layers
must sum to dim M and match the series: twenty factors of dimension 1, of
one fingerprint.  Shifted by chi(x) + 1 instead, no y_x is nilpotent: the
chain stalls at once and the task fails.  The stack of y_x that the layers
share with shifted_joint_kernel holds the transposes for forms in place, so
the socle of M* holds one stack, not two.
"""

import tracemalloc

import pytest

from glmn import checks, series
from glmn.algebra import Character, Weight, build_algebra
from glmn.ffield import make_field
from glmn.series import radical_layers, regular_module, shifted_joint_kernel
from glmn.verma import build_baby_verma
from _series_oracle import composition_series

F5 = make_field(5)
SETTINGS = {"gl21-chi0": (2, 1, {}), "gl21-E21": (2, 1, {(2, 1): 1}),
            "gl12-chi0": (1, 2, {}), "gl12-E32": (1, 2, {(3, 2): 1})}


def setting(name):
    m, n, values = SETTINGS[name]
    alg = build_algebra(m, n, F5)
    rs = alg.root_system()
    return alg, Character(alg, values), [rs.f_unit(r) for r in rs.positive]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_layers_peel_the_factors_of_the_series(name, side):
    alg, chi, sub = setting(name)
    M = regular_module(alg, sub, chi, side=side)
    layers = radical_layers(M)
    assert M.dim == 20 and sum(layers) == M.dim and all(layers)
    factors = composition_series(M).factors
    assert [d for d, _ in factors] == [1] * 20
    assert len({fp for _, fp in factors}) == 1


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_the_task_reports_the_factors_of_the_series(name):
    alg, chi, sub = setting(name)
    record, passed = checks.regular_task(None, alg, chi, None)
    factors = composition_series(regular_module(alg, sub, chi)).factors
    assert record["factor_dims"] == [d for d, _ in factors]
    assert record["factors_uniform"] is passed is True


def test_a_chain_that_stalls_fails_the_task(monkeypatch):
    alg, chi, sub = setting("gl21-E21")
    shifted = series._shifted_scalars
    monkeypatch.setattr(series, "_shifted_scalars",
                        lambda M: {x: alg.field.add(a, 1) for x, a in shifted(M).items()})
    assert radical_layers(regular_module(alg, sub, chi)) == []
    record, passed = checks.regular_task(None, alg, chi, None)
    assert (record["dim"], record["factor_dims"], record["factors_uniform"]) == (20, [], False)
    assert passed is False


def test_the_socle_of_forms_holds_one_stack_of_shifted_units():
    # the gl(2|2) baby Verma (dim 400) and its six lower root units: the
    # stack is 7.7 MB, and the kernel's echelon form one more of its size
    alg = build_algebra(2, 2, F5)
    Z = build_baby_verma(alg, Character(alg, {}), Weight(F5, [1, 2, 3, 4]))
    stack = 6 * Z.dim * Z.dim * 8
    tracemalloc.start()
    try:
        shifted_joint_kernel(Z, forms=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * stack
