"""Baby Verma modules and simplicity polynomials.

Independent oracles: the module axioms are checked literally against the
bracket and the chi-reduction; dimensions against the PBW counting formula;
f_direct against the hand-computed value lambda_1 + lambda_2 for gl(1|1)
and the frozen closed formula for gl(2|1).
"""

import itertools

import numpy as np
import pytest

from glmn import verma
from glmn.ffield import make_field
from glmn.linalg import Matrix
from glmn.algebra import (build_algebra, Character, Weight, reflect,
                          weight_variety)
from glmn.verma import (ModuleRep, build_baby_verma, build_even_verma,
                        build_simple_g0_module, build_graded_verma,
                        f_direct, f_formula, f1_direct, maximal_vectors,
                        induced_hom)
from glmn.analysis import is_simple
from glmn.errors import (ChiNotBorelCompatible, LambdaNotInX, NotMaximal,
                         NotG0Module)

F = make_field(5)


def all_weights(d):
    return [Weight(F, c) for c in itertools.product(range(5), repeat=d)]


class TestVerifyAxioms:
    """Each broken module fails exactly one of the three checks."""

    def _natural(self, parity=(0, 1), chi=None, scale=None):
        # gl(1|1) on F^(1|1): E(i,j) acts by its own matrix
        alg = build_algebra(1, 1, F)
        action = {u: alg.unit_matrix(*u) for u in alg.units}
        if scale:
            unit, c = scale
            action[unit] = action[unit].scale(c)
        return ModuleRep(alg, Character(alg, chi or {}), alg.units,
                         [action[u].data for u in alg.units], parity)

    def test_natural_module_passes(self):
        assert self._natural().verify_axioms()

    def test_entry_breaking_parity_fails(self):
        # same matrices, so brackets and p-th powers still hold, but E(1,2)
        # now maps an even vector to an even vector
        assert not self._natural(parity=(0, 0)).verify_axioms()

    def test_wrong_bracket_fails(self):
        # [2 E(1,2), E(2,1)] = 2 (E(1,1) + E(2,2)), not E(1,1) + E(2,2)
        assert not self._natural(scale=((1, 2), 2)).verify_axioms()

    def test_wrong_pth_power_fails(self):
        # E(1,1)^p = E(1,1), which differs from E(1,1) + chi(E(1,1))^p
        assert not self._natural(chi={(1, 1): 1}).verify_axioms()

    @pytest.mark.parametrize("mutation,failing", [
        ({"parity": (0, 0)}, "_parity_blocks_hold"),
        ({"scale": ((1, 2), 2)}, "_brackets_hold"),
        ({"chi": {(1, 1): 1}}, "_pth_powers_hold")])
    def test_each_mutation_fails_only_its_own_check(self, mutation, failing):
        M = self._natural(**mutation)
        checks = ("_parity_blocks_hold", "_brackets_hold", "_pth_powers_hold")
        # each check on the stack of M alone
        assert [c for c in checks
                if not getattr(verma, c)(M, M.actions[None])[0]] == [failing]


class TestConstruction:
    def test_dimension_formula(self):
        # dim Z = p^{#even positive} * 2^{#odd positive}
        # gl(1|1): 2^1; gl(2|1): 5*2^2; gl(2|2): 5^2*2^4
        for (m, n, expect) in [(1, 1, 2), (2, 1, 20), (2, 2, 400)]:
            alg = build_algebra(m, n, F)
            chi = Character(alg, {})
            Z = build_baby_verma(alg, chi, Weight(F, [0] * (m + n)))
            assert Z.dim == expect

    @pytest.mark.parametrize("m,n,chi_vals", [
        (1, 1, {}), (2, 1, {}), (2, 1, {(2, 1): 2}), (1, 1, {(1, 1): 0})])
    def test_axioms(self, m, n, chi_vals):
        alg = build_algebra(m, n, F)
        chi = Character(alg, chi_vals)
        Z = build_baby_verma(alg, chi, Weight(F, [1] * (m + n)))
        assert Z.verify_axioms()

    def test_mapping_and_array_give_equal_actions(self):
        alg = build_algebra(2, 1, F)
        Z = build_baby_verma(alg, Character(alg, {}), Weight(F, [1, 0, 2]))
        from_array = ModuleRep(alg, Z.chi, Z.units, Z.actions, Z.parity)
        # a mapping is stacked by its caller in the order of units, whatever
        # its own order, as a list of matrices or as one array
        mapping = {u: Matrix(F, Z.matrix(u)) for u in reversed(Z.units)}
        for action in ([mapping[u].data for u in Z.units],
                       np.stack([mapping[u].data for u in Z.units])):
            from_mapping = ModuleRep(alg, Z.chi, Z.units, action, Z.parity)
            assert np.array_equal(from_mapping.actions, from_array.actions)
        assert np.array_equal(from_array.actions, Z.actions)
        assert np.shares_memory(Z.stacked_action, Z.actions)

    def test_highest_vector_behavior(self):
        alg = build_algebra(2, 1, F)
        chi = Character(alg, {})
        lam = Weight(F, [3, 1, 4])
        Z = build_baby_verma(alg, chi, lam)
        rs = alg.root_system()
        v = Z.highest_vector
        for r in rs.positive:
            assert not Z.act(rs.e_unit(r), v).any()
        for i in range(1, 4):
            assert (Z.act((i, i), v) == F.mul(lam.value(i), v)).all()

    def test_rejects_non_borel_chi(self):
        alg = build_algebra(2, 1, F)
        with pytest.raises(ChiNotBorelCompatible):
            build_baby_verma(alg, Character(alg, {(1, 2): 1}), Weight(F, [0, 0, 0]))

    def test_rejects_lambda_outside_variety(self):
        alg = build_algebra(1, 1, F)
        chi = Character(alg, {(1, 1): 1})
        alg2, chi2, weights = weight_variety(alg, chi)
        bad = Weight(alg2.field, [0, 0])  # 0^p - 0 != 1
        with pytest.raises(LambdaNotInX):
            build_baby_verma(alg2, chi2, bad)


class TestSimplicityPolynomials:
    def test_gl11_f_is_sum_of_coordinates(self):
        alg = build_algebra(1, 1, F)
        chi = Character(alg, {})
        for lam in all_weights(2):
            Z = build_baby_verma(alg, chi, lam)
            assert f_direct(Z).idx == F.add(lam.value(1), lam.value(2))

    def test_gl11_formula_agrees(self):
        rs = build_algebra(1, 1, F).root_system()
        for lam in all_weights(2):
            polys = f_formula(rs, lam)
            # single odd root, rho contributes 1: factor lam_1+lam_2+1-1
            assert polys.f_formula.idx == F.add(lam.value(1), lam.value(2))
            assert polys.f0.idx == 1

    def test_gl21_frozen_formula(self):
        # f_formula = [(l1-l2+1)^4 - 1](l1+l3+1)(l2+l3)
        rs = build_algebra(2, 1, F).root_system()
        for lam in all_weights(3):
            l1, l2, l3 = (lam.value(i) for i in (1, 2, 3))
            even = F.sub(F.power(F.add(F.sub(l1, l2), 1), 4), 1)
            odd = F.mul(F.add(F.add(l1, l3), 1), F.add(l2, l3))
            assert f_formula(rs, lam).f_formula.idx == F.mul(even, odd)

    def test_gl21_direct_equals_formula(self):
        # the PBW constant is exactly 1 in our generator order; spot-check
        alg = build_algebra(2, 1, F)
        chi = Character(alg, {})
        rs = alg.root_system()
        for coords in [(0, 0, 0), (1, 2, 3), (4, 0, 1), (2, 2, 2), (3, 4, 4)]:
            lam = Weight(F, coords)
            Z = build_baby_verma(alg, chi, lam)
            assert f_direct(Z).idx == f_formula(rs, lam).f_formula.idx

    def test_f1_direct_gl11(self):
        alg = build_algebra(1, 1, F)
        chi = Character(alg, {})
        for lam in all_weights(2):
            Z = build_baby_verma(alg, chi, lam)
            assert f1_direct(Z).idx == F.add(lam.value(1), lam.value(2))


class TestMaximalVectors:
    def test_simple_verma_has_one_line(self):
        alg = build_algebra(1, 1, F)
        chi = Character(alg, {})
        lam = Weight(F, [1, 3])  # l1+l2 = 4 != 0: simple
        Z = build_baby_verma(alg, chi, lam)
        mv = maximal_vectors(Z)
        assert len(mv) == 1
        w, sub, par = mv[0]
        assert w == lam and sub.dim == 1 and par == 0

    def test_nonsimple_verma_has_two_lines(self):
        alg = build_algebra(1, 1, F)
        chi = Character(alg, {})
        lam = Weight(F, [2, 3])  # l1+l2 = 0
        Z = build_baby_verma(alg, chi, lam)
        mv = sorted(maximal_vectors(Z), key=lambda t: t[2])
        assert len(mv) == 2
        # the second line is f v, of weight lam - alpha and odd parity
        w1, sub1, par1 = mv[1]
        assert par1 == 1
        assert list(w1.coords) == [F.sub(2, 1), F.add(3, 1)]

    def test_maximal_vector_definition(self):
        alg = build_algebra(2, 1, F)
        chi = Character(alg, {})
        Z = build_baby_verma(alg, chi, Weight(F, [0, 1, 2]))
        rs = alg.root_system()
        for w, sub, par in maximal_vectors(Z):
            for row in sub.basis:
                for r in rs.positive:
                    assert not Z.act(rs.e_unit(r), row).any()
                for i in range(1, 4):
                    assert (Z.act((i, i), row) == F.mul(w.value(i), row)).all()


class TestInducedHom:
    def test_identity_hom(self):
        alg = build_algebra(1, 1, F)
        chi = Character(alg, {})
        lam = Weight(F, [1, 3])
        Z = build_baby_verma(alg, chi, lam)
        T, rank = induced_hom(Z, Z, Z.highest_vector)
        assert rank == Z.dim
        assert T == T.identity(F, Z.dim)

    def test_singular_vector_hom(self):
        alg = build_algebra(1, 1, F)
        chi = Character(alg, {})
        lam = Weight(F, [2, 3])  # f v is maximal
        Z = build_baby_verma(alg, chi, lam)
        rs = alg.root_system()
        u = Z.act(rs.f_unit(rs.positive[0]), Z.highest_vector)
        mu = Weight(F, [F.sub(2, 1), F.add(3, 1)])
        source = build_baby_verma(alg, chi, mu)
        T, rank = induced_hom(source, Z, u)
        assert rank == 1  # f u = f^2 v = 0 kills the other column

    def test_columns_match_words_on_levi_weights(self):
        """Each column, built from its lexicographic predecessor, equals
        the PBW word of its label applied to u: gl(2|1), chi(E21) = 1,
        u = f_alpha^(a+1) v for every Levi root alpha and every weight."""
        from glmn.algebra import classify_character
        from glmn.kw import dot_action
        alg = build_algebra(2, 1, F)
        chi = Character(alg, {(2, 1): 1})
        _, _, weights = weight_variety(alg, chi)
        rs = alg.root_system()
        levi = classify_character(rs, chi).levi_set
        checked = 0
        for lam in weights:
            Z = build_baby_verma(alg, chi, lam)
            for alpha in levi:
                u = Z.highest_vector
                for _ in range(int(rs.weight_on_coroot(lam, alpha)) + 1):
                    u = Z.act(rs.f_unit(alpha), u)
                source = build_baby_verma(alg, chi, dot_action(rs, [alpha], lam))
                T, _ = induced_hom(source, Z, u)
                words = np.array([Z.apply_word(
                    [(rs.f_unit(r), e) for r, e in zip(source.ctx.f_order, mono)], u)
                    for mono, _ in source.labels]).T
                assert np.array_equal(T.data, words)
                checked += 1
        assert checked == len(weights) * len(levi) > 0

    def test_rejects_non_maximal(self):
        alg = build_algebra(1, 1, F)
        chi = Character(alg, {})
        lam = Weight(F, [1, 3])
        Z = build_baby_verma(alg, chi, lam)
        rs = alg.root_system()
        u = Z.act(rs.f_unit(rs.positive[0]), Z.highest_vector)
        mu = Weight(F, [0, 4])
        source = build_baby_verma(alg, chi, mu)
        with pytest.raises(NotMaximal):
            induced_hom(source, Z, u)


class TestGradedVerma:
    def test_even_verma_dimension(self):
        alg = build_algebra(2, 1, F)
        chi = Character(alg, {})
        M = build_even_verma(alg, chi, Weight(F, [1, 0, 2]))
        assert M.dim == 5  # one even positive root
        assert sorted(M.units) == sorted(alg.even_units)
        assert M.verify_axioms()

    def test_simple_g0_module_is_simple(self):
        alg = build_algebra(2, 1, F)
        chi = Character(alg, {})
        M = build_simple_g0_module(alg, chi, Weight(F, [1, 0, 2]))
        assert M.verify_axioms()
        assert is_simple(M)

    def test_graded_verma_dimension_and_axioms(self):
        alg = build_algebra(2, 1, F)
        chi = Character(alg, {})
        M = build_simple_g0_module(alg, chi, Weight(F, [1, 0, 2]))
        Z = build_graded_verma(alg, chi, M)
        assert Z.dim == 4 * M.dim  # 2^{#odd positive roots}
        assert Z.verify_axioms()

    def test_graded_verma_rejects_non_g0_module(self):
        alg = build_algebra(2, 1, F)
        chi = Character(alg, {})
        Z = build_baby_verma(alg, chi, Weight(F, [0, 0, 0]))
        with pytest.raises(NotG0Module):
            build_graded_verma(alg, chi, Z)

    def test_zero_set_symmetry_under_dot_reflection(self):
        # f(lam) = 0 iff f(s_alpha^{-1}(lam + alpha)) = 0, alpha = eps1-eps2
        alg = build_algebra(2, 1, F)
        rs = alg.root_system()
        alpha = rs.root(1, 2)
        for coords in [(0, 0, 0), (1, 2, 3), (4, 0, 1), (2, 4, 2), (3, 3, 1)]:
            lam = Weight(F, coords)
            shifted = Weight(F, [F.add(lam.value(1), 1), F.sub(lam.value(2), 1),
                                 lam.value(3)])
            mu = reflect(rs, alpha, shifted)
            z1 = f_formula(rs, lam).f_formula.idx == 0
            z2 = f_formula(rs, mu).f_formula.idx == 0
            assert z1 == z2
