"""PBW straightening in u(g, chi).

The independent oracles here are hand-computed normal forms for small
algebras, counting arguments for the basis size, and ring axioms
(associativity, Leibniz) checked on random elements: none of these reuse
the straightening recursion being tested.
"""

import random

import numpy as np
import pytest

from glmn.ffield import make_field, FieldElement
from glmn.algebra import build_algebra, Character, Weight
from glmn.enveloping import (ReductionContext, PBWElement, PBWMonomial,
                             normalize, multiply, ad_action, hc_gamma,
                             monomial_weight, evaluate_cartan)
from glmn.errors import NotWeightZero

F = make_field(5)


def ctx_for(m, n, chi_values=None):
    alg = build_algebra(m, n, F)
    return ReductionContext(alg, Character(alg, chi_values or {}))


def rand_element(ctx, rng, nterms=3):
    monos = ctx.admissible_monomials()
    terms = {}
    for _ in range(nterms):
        exps = monos[rng.randrange(len(monos))]
        terms[exps] = rng.randrange(1, F.q)
    return PBWElement(ctx, terms)


class TestBasisCounts:
    def test_gl11_has_100_monomials(self):
        ctx = ctx_for(1, 1)
        # p^{dim g_0} * 2^{dim g_1} = 5^2 * 2^2
        assert len(ctx.admissible_monomials()) == 100

    def test_caps(self):
        ctx = ctx_for(1, 1)
        for exps in ctx.admissible_monomials():
            for pos, e in enumerate(exps):
                cap = 2 if ctx.gen_parity(pos) else 5
                assert 0 <= e < cap


class TestStraightening:
    def test_gl11_ef_equals_h_minus_fe(self):
        # e f = [e, f] - f e = (E11 + E22) - f e for the odd pair in gl(1|1)
        ctx = ctx_for(1, 1)
        result = normalize(ctx, [(1, 2), (2, 1)])
        h = normalize(ctx, [(1, 1)]) + normalize(ctx, [(2, 2)])
        fe = PBWElement(ctx, {
            ctx.zero_exps[: 0] + tuple(1 if ctx.units[t] in ((2, 1), (1, 2)) else 0
                                       for t in range(len(ctx.units))): 1})
        assert result == h - fe

    def test_odd_square_is_half_bracket(self):
        # for odd x: x^2 = (1/2)[x, x] in u(g)
        ctx = ctx_for(2, 1)
        alg = ctx.algebra
        for unit in alg.odd_units:
            x = alg.unit_matrix(*unit)
            sq = normalize(ctx, [unit, unit])
            half = F.inv(2)
            expect = PBWElement.from_matrix(ctx, alg.bracket(x, x)).scale(half)
            assert sq == expect

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
    def test_odd_units_square_to_zero(self, m, n):
        # x^2 = (1/2)[x, x] needs no expansion: every odd unit is an E(i, j)
        # with i != j, whose bracket with itself is empty
        ctx = ctx_for(m, n)
        alg = ctx.algebra
        assert alg.odd_units and all(i != j for i, j in alg.odd_units)
        for unit in alg.odd_units:
            assert alg.bracket_table[(unit, unit)] == ()
            assert normalize(ctx, [unit, unit]) == PBWElement(ctx, {})

    def test_even_cartan_p_reduction(self):
        # h^p = h + chi(h)^p in u(g, chi)
        for chi_vals, expect_shift in [({}, 0), ({(1, 1): 2}, F.power(2, 5))]:
            ctx = ctx_for(1, 1, chi_vals)
            word = [(1, 1)] * 5
            got = normalize(ctx, word)
            expect = normalize(ctx, [(1, 1)])
            if expect_shift:
                expect = expect + PBWElement.one(ctx).scale(expect_shift)
            assert got == expect

    def test_even_root_vector_p_reduction(self):
        # e^p = chi(e)^p, and the unit E(1,2) in gl(2|1) has [p] = 0
        ctx = ctx_for(2, 1)
        got = normalize(ctx, [(1, 2)] * 5)
        assert got == PBWElement.zero(ctx)

    def test_associativity_random(self):
        rng = random.Random(11)
        ctx = ctx_for(1, 1)
        for _ in range(15):
            a, b, c = (rand_element(ctx, rng) for _ in range(3))
            assert multiply(ctx, multiply(ctx, a, b), c) == \
                multiply(ctx, a, multiply(ctx, b, c))

    def test_one_is_identity(self):
        rng = random.Random(12)
        ctx = ctx_for(2, 1)
        one = PBWElement.one(ctx)
        for _ in range(5):
            a = rand_element(ctx, rng)
            assert multiply(ctx, one, a) == a
            assert multiply(ctx, a, one) == a

    def test_super_commutator_of_generators_matches_bracket(self):
        # x y - (-1)^{p(x)p(y)} y x = [x, y] for all unit pairs
        ctx = ctx_for(2, 1)
        alg = ctx.algebra
        for u in alg.units:
            for v in alg.units:
                xy = normalize(ctx, [u, v])
                yx = normalize(ctx, [v, u])
                if alg.parity(*u) and alg.parity(*v):
                    comm = xy + yx
                else:
                    comm = xy - yx
                b = alg.bracket(alg.unit_matrix(*u), alg.unit_matrix(*v))
                assert comm == PBWElement.from_matrix(ctx, b)


class TestAdAction:
    def test_matches_definition(self):
        rng = random.Random(13)
        ctx = ctx_for(1, 1)
        alg = ctx.algebra
        for unit in alg.units:
            a = alg.unit_matrix(*unit)
            ea = PBWElement.from_matrix(ctx, a)
            for _ in range(5):
                # build a homogeneous u
                monos = [x for x in ctx.admissible_monomials()
                         if ctx.mono_parity(x) == 0]
                u = PBWElement(ctx, {monos[rng.randrange(len(monos))]: 2})
                got = ad_action(ctx, a, u)
                expect = multiply(ctx, ea, u) - multiply(ctx, u, ea)
                assert got == expect

    def test_leibniz(self):
        # ad_a(uv) = ad_a(u) v + (-1)^{p(a)p(u)} u ad_a(v)
        ctx = ctx_for(1, 1)
        alg = ctx.algebra
        rng = random.Random(14)
        homog = {}
        for par in (0, 1):
            homog[par] = [x for x in ctx.admissible_monomials()
                          if ctx.mono_parity(x) == par]
        for unit in alg.units:
            a = alg.unit_matrix(*unit)
            pa = alg.parity(*unit)
            for _ in range(10):
                pu, pv = rng.randrange(2), rng.randrange(2)
                u = PBWElement(ctx, {homog[pu][rng.randrange(len(homog[pu]))]: 1})
                v = PBWElement(ctx, {homog[pv][rng.randrange(len(homog[pv]))]: 1})
                lhs = ad_action(ctx, a, multiply(ctx, u, v))
                rhs = multiply(ctx, ad_action(ctx, a, u), v)
                tail = multiply(ctx, u, ad_action(ctx, a, v))
                if pa and pu:
                    rhs = rhs - tail
                else:
                    rhs = rhs + tail
                assert lhs == rhs


class TestHarishChandra:
    def test_gamma_of_ef_word(self):
        # gamma(e f) for the odd pair of gl(1|1): e f = h_alpha - f e, and
        # the f e term is dropped, so gamma = h_1 + h_2
        ctx = ctx_for(1, 1)
        g = hc_gamma(ctx, normalize(ctx, [(1, 2), (2, 1)]))
        lam = Weight(F, [3, 4])
        assert evaluate_cartan(ctx, g, lam).idx == F.add(3, 4)

    def test_gamma_rejects_nonzero_weight(self):
        ctx = ctx_for(1, 1)
        with pytest.raises(NotWeightZero):
            hc_gamma(ctx, normalize(ctx, [(1, 2)]))

    def test_monomial_weight_zero_on_cartan(self):
        ctx = ctx_for(2, 1)
        rs = ctx.algebra.root_system()
        h = normalize(ctx, [(1, 1)])
        for exps in h.terms:
            assert not np.any(monomial_weight(rs, PBWMonomial(ctx, exps)))


def test_scalar_words():
    ctx = ctx_for(1, 1)
    assert normalize(ctx, [2, 3]).scalar_part().idx == F.mul(2, 3)
    assert normalize(ctx, [FieldElement(F, 2), (1, 1)]) == \
        normalize(ctx, [(1, 1)]).scale(2)
