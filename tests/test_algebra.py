"""gl(m|n) structure checks against matrix-level oracles: the bracket table
is compared with the literal supercommutator of numpy matrices, the p-mapping
with the literal p-th matrix power, rho and the coroots with hand values.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _bracket_oracle

from glmn.ffield import make_field
from glmn.linalg import Matrix
from glmn.algebra import (SuperAlgebra, build_algebra, supertrace, p_power,
                          Character, Weight, reflect, weyl_move_to_simple,
                          classify_character, weight_variety,
                          weights_in_variety)
from glmn.errors import InvalidSupport, OddReflectionOnWeight

F = make_field(5)
F25 = make_field(5, 2)


def super_commutator(alg, x, y, px, py):
    """Oracle: xy - (-1)^{px py} yx as plain matrix arithmetic."""
    xy = x @ y
    yx = y @ x
    return xy + yx if (px and py) else xy - yx


class TestBracket:
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2)])
    def test_bracket_table_matches_supercommutator(self, m, n):
        alg = build_algebra(m, n, F)
        for u in alg.units:
            for v in alg.units:
                x, y = alg.unit_matrix(*u), alg.unit_matrix(*v)
                expect = super_commutator(alg, x, y, alg.parity(*u), alg.parity(*v))
                assert alg.bracket(x, y) == expect

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
    def test_bracket_escape_matches_supercommutator(self, m, n):
        # the first (x, y) in iteration order whose supercommutator has a
        # nonzero entry outside the subset, and that entry's unit
        alg = build_algebra(m, n, F)
        rng = random.Random(m + n)
        for _ in range(40):
            inside = rng.sample(alg.units, rng.randrange(1, alg.dim))
            want = None
            for x, y in itertools.product(inside, inside):
                br = super_commutator(alg, alg.unit_matrix(*x), alg.unit_matrix(*y),
                                      alg.parity(*x), alg.parity(*y))
                out = [u for u in alg.units
                       if br.data[u[0] - 1, u[1] - 1] % 5 and u not in inside]
                if out:
                    want = (x, y, out[0])
                    break
            assert alg.bracket_escape(inside, inside, set(inside)) == want

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_element_parity_matches_the_unit_walk(self, data):
        # random zero, even, odd and mixed elements over F_5 and F_25
        f = data.draw(st.sampled_from([F, F25]), label="field")
        alg = build_algebra(*data.draw(st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)])), f)
        kind = data.draw(st.sampled_from([None, 0, 1, "zero"]), label="parity")
        blocks = {None: [alg.even_units, alg.odd_units], 0: [alg.even_units],
                  1: [alg.odd_units], "zero": []}[kind]
        x = np.zeros((alg.d, alg.d), dtype=np.int64)
        for units in blocks:
            for (i, j) in units:
                x[i - 1, j - 1] = data.draw(st.integers(0, f.q - 1))
            i, j = data.draw(st.sampled_from(units), label="forced nonzero")
            x[i - 1, j - 1] = data.draw(st.integers(1, f.q - 1))
        x = Matrix(f, x)
        want = 0 if kind == "zero" else kind
        assert alg.element_parity(x) == _bracket_oracle.element_parity(alg, x) == want

    def test_super_anticommutativity(self):
        # [x, y] = -(-1)^{p(x)p(y)} [y, x]
        alg = build_algebra(2, 1, F)
        for u in alg.units:
            for v in alg.units:
                x, y = alg.unit_matrix(*u), alg.unit_matrix(*v)
                rhs = alg.bracket(y, x)
                if not (alg.parity(*u) and alg.parity(*v)):
                    rhs = -rhs
                assert alg.bracket(x, y) == rhs

    def test_super_jacobi_all_triples(self):
        alg = build_algebra(1, 1, F)
        for u, v, w in itertools.product(alg.units, repeat=3):
            x, y, z = (alg.unit_matrix(*t) for t in (u, v, w))
            a, b, c = alg.parity(*u), alg.parity(*v), alg.parity(*w)
            lhs = alg.bracket(x, alg.bracket(y, z))
            t1 = alg.bracket(alg.bracket(x, y), z)
            t2 = alg.bracket(y, alg.bracket(x, z))
            if a and b:
                t2 = -t2
            assert lhs == t1 + t2

    def test_ad_matrix_represents_bracket(self):
        alg = build_algebra(2, 1, F)
        rng = random.Random(0)
        for block in (alg.even_units, alg.odd_units):
            data = np.zeros((3, 3), dtype=np.int64)
            for (i, j) in block:
                data[i - 1, j - 1] = rng.randrange(5)
            x = Matrix(F, data)
            adx = alg.ad_matrix(x)
            for t, u in enumerate(alg.units):
                col = adx.data[:, t]
                expect = alg.bracket(x, alg.unit_matrix(*u))
                got = Matrix.zeros(F, 3, 3)
                for s, w in enumerate(alg.units):
                    got.data[w[0] - 1, w[1] - 1] = col[s]
                assert got == expect


class TestRestrictedStructure:
    def test_p_power_is_matrix_power_on_even(self):
        alg = build_algebra(2, 2, F)
        rng = random.Random(1)
        for _ in range(25):
            data = np.zeros((4, 4), dtype=np.int64)
            for (i, j) in alg.even_units:
                data[i - 1, j - 1] = rng.randrange(5)
            x = Matrix(F, data)
            assert p_power(alg, x) == x.power(5)

    def test_restrictedness_ad_compatibility(self):
        # ad(x^[p]) = ad(x)^p for even x
        alg = build_algebra(1, 1, F)
        for u in alg.even_units:
            x = alg.unit_matrix(*u)
            assert alg.ad_matrix(p_power(alg, x)) == alg.ad_matrix(x).power(5)

    def test_supertrace_vanishes_on_brackets(self):
        alg = build_algebra(2, 1, F)
        for u in alg.units:
            for v in alg.units:
                b = alg.bracket(alg.unit_matrix(*u), alg.unit_matrix(*v))
                assert supertrace(alg, b).idx == 0

    def test_supertrace_sign_convention(self):
        alg = build_algebra(2, 1, F)
        x = Matrix(F, np.diag([1, 1, 1]).astype(np.int64))
        # str = tr(block m) - tr(block n) = 2 - 1
        assert supertrace(alg, x).idx == 1


class TestRootSystem:
    def test_counts(self):
        rs = build_algebra(2, 2, F).root_system()
        assert len(rs.positive) == 6
        assert len(rs.positive_even) == 2
        assert len(rs.positive_odd) == 4
        assert [r.key for r in rs.simple] == [(1, 2), (2, 3), (3, 4)]
        assert [r.parity for r in rs.simple] == [0, 1, 0]

    def test_positive_order_is_height_then_lex(self):
        rs = build_algebra(2, 1, F).root_system()
        assert [r.key for r in rs.positive] == [(1, 2), (2, 3), (1, 3)]

    def test_coroot_is_bracket_of_root_vectors(self):
        for (m, n) in [(1, 1), (2, 1)]:
            alg = build_algebra(m, n, F)
            rs = alg.root_system()
            for r in rs.positive:
                e = alg.unit_matrix(*rs.e_unit(r))
                f = alg.unit_matrix(*rs.f_unit(r))
                assert alg.bracket(e, f) == rs.coroot_matrix(r)

    def test_rho_values(self):
        # rho(h_alpha) = 1 on simple coroots; frozen coordinate vectors
        rs11 = build_algebra(1, 1, F).root_system()
        assert list(rs11.rho) == [1, 0]
        rs21 = build_algebra(2, 1, F).root_system()
        assert list(rs21.rho) == [2, 1, 0]
        for rs in (rs11, rs21):
            for s in rs.simple:
                assert rs.rho_value(s) == 1

    def test_reflect_root_involution(self):
        rs = build_algebra(2, 2, F).root_system()
        alpha = rs.root(1, 2)
        for r in rs.roots:
            assert reflect(rs, alpha, reflect(rs, alpha, r)) == r

    def test_reflect_weight(self):
        rs = build_algebra(2, 1, F).root_system()
        alpha = rs.root(1, 2)
        lam = Weight(F, [3, 1, 4])
        mu = reflect(rs, alpha, lam)
        # s_alpha swaps the first two coordinates for gl parts
        assert list(mu.coords) == [1, 3, 4]
        with pytest.raises(OddReflectionOnWeight):
            reflect(rs, rs.root(2, 3), lam)

    def test_weyl_move_to_simple(self):
        rs = build_algebra(2, 2, F).root_system()
        beta = rs.root(1, 4)  # odd, not simple
        word, image = weyl_move_to_simple(rs, beta)
        assert image.parity == 1 and image in rs.simple
        cur = beta
        for s in word:
            cur = reflect(rs, s, cur)
        assert cur == image


class TestCharacter:
    def test_rejects_odd_support(self):
        alg = build_algebra(1, 1, F)
        with pytest.raises(InvalidSupport):
            Character(alg, {(1, 2): 1})

    def test_classification(self):
        alg = build_algebra(2, 1, F)
        rs = alg.root_system()
        chi0 = Character(alg, {})
        cls = classify_character(rs, chi0)
        assert cls.semisimple and cls.borel_vanishing and cls.nplus_vanishing

        semis = classify_character(rs, Character(alg, {(1, 1): 2}))
        assert semis.semisimple and semis.nplus_vanishing
        assert not semis.borel_vanishing

        levi = classify_character(rs, Character(alg, {(2, 1): 1}))
        assert levi.standard_levi
        assert [r.key for r in levi.levi_set] == [(1, 2)]
        assert not levi.semisimple

        # a non-simple even lower unit needs m >= 3: E(3,1) in gl(3|1)
        alg31 = build_algebra(3, 1, F)
        rs31 = alg31.root_system()
        nonlevi = classify_character(rs31, Character(alg31, {(3, 1): 1}))
        assert nonlevi.borel_vanishing and not nonlevi.standard_levi


class TestWeightVariety:
    def test_zero_chi_gives_prime_field_points(self):
        alg = build_algebra(1, 1, F)
        alg2, chi2, weights = weight_variety(alg, Character(alg, {}))
        assert alg2.field is F
        assert len(weights) == 25
        assert weights_in_variety(alg2, chi2, weights).all()

    def test_nonzero_chi_forces_extension(self):
        alg = build_algebra(1, 1, F)
        chi = Character(alg, {(1, 1): 1})
        alg2, chi2, weights = weight_variety(alg, chi)
        assert alg2.field.k == 5
        assert len(weights) == 25
        assert weights_in_variety(alg2, chi2, weights).all()
        for w in weights:
            # first coordinate solves an Artin-Schreier equation with c != 0,
            # so it cannot lie in the prime subfield
            assert w.value(1) >= 5

    def test_variety_membership_is_exact(self):
        alg = build_algebra(1, 1, F)
        lams = [Weight(F, [2, 3]), Weight(F, [0, 4])]
        assert weights_in_variety(alg, Character(alg, {}), lams).tolist() == [True, True]
        # 2^5 - 2 = 0 != 1^5 over F_5; 0 and 4 solve x^5 - x = 0 only
        chi = Character(alg, {(1, 1): 1})
        assert weights_in_variety(alg, chi, lams).tolist() == [False, False]
