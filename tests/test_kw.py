"""Character decomposition, Levi data, Phi' ordering and the parabolic
induction pipeline.

Oracles: Phi' membership is recomputed from coroot values by hand; Levi
closure is literal bracket arithmetic; the dimension formula of the
reduction is checked against the product count; conjugation is verified
by evaluating chi on explicitly conjugated matrix units.
"""

import numpy as np
import pytest

from glmn import analysis, kw
from glmn.ffield import make_field
from glmn.linalg import Matrix, inverse
from glmn.algebra import build_algebra, Character, Weight, weight_variety
from glmn.analysis import is_simple
from glmn.kw import (decompose_character, levi_data, order_phi_prime,
                     build_levi_verma, build_kw_module, kw_verify,
                     dot_action, levi_scan, conjugate_character,
                     normalize_character, phi_prime_roots, chi_on_coroot)
from glmn.errors import (NotNormalized, NotStandardLevi, NotNormalizable,
                         SingularG, OddInput)

F = make_field(5)


class TestDecomposition:
    def test_split_parts(self):
        alg = build_algebra(2, 1, F)
        rs = alg.root_system()
        # chi(h) = 0 for eps1-eps2, so a value on its f-vector is allowed
        chi = Character(alg, {(1, 1): 2, (2, 2): 2, (2, 1): 3})
        dec = decompose_character(rs, chi)
        assert dec.chi_s.values == {(1, 1): 2, (2, 2): 2}
        assert dec.chi_n.values == {(2, 1): 3}

    def test_rejects_chi_on_nplus(self):
        alg = build_algebra(2, 1, F)
        rs = alg.root_system()
        with pytest.raises(NotNormalized):
            decompose_character(rs, Character(alg, {(1, 2): 1}))

    def test_rejects_chi_on_f_of_phi_prime(self):
        # chi(h_alpha) != 0 and chi(f_alpha) != 0 for alpha = eps1-eps2
        alg = build_algebra(2, 1, F)
        rs = alg.root_system()
        with pytest.raises(NotNormalized):
            decompose_character(rs, Character(alg, {(1, 1): 1, (2, 1): 1}))


class TestPhiPrime:
    def test_membership_matches_coroot_values(self):
        alg = build_algebra(2, 1, F)
        rs = alg.root_system()
        chi = Character(alg, {(1, 1): 1, (2, 2): 1, (3, 3): 4})
        phi = phi_prime_roots(rs, chi)
        # h for eps1-eps2 pairs to 1-1 = 0; odd coroots pair to 1+4 = 0:
        # wait, odd coroot for eps_i - delta_1 is E(i,i) + E(3,3)
        for r in rs.positive:
            expect = chi_on_coroot(rs, chi, r) != 0
            assert (r in phi) == expect

    def test_order_covers_phi_prime_with_certificates(self):
        alg = build_algebra(2, 1, F)
        rs = alg.root_system()
        chi = Character(alg, {(1, 1): 1, (2, 2): 1, (3, 3): 1})
        po = order_phi_prime(rs, chi)
        assert sorted(r.key for r in po.order) == \
            sorted(r.key for r in phi_prime_roots(rs, chi))
        # steps record one positive system per reflection plus the final one
        assert len(po.steps) == len(po.order) + 1

    def test_levi_data_counts(self):
        alg = build_algebra(2, 1, F)
        rs = alg.root_system()
        chi = Character(alg, {(1, 1): 1, (2, 2): 1, (3, 3): 1})
        ld = levi_data(rs, chi)
        # both odd positives are in Phi' (chi(h) = 2), eps1-eps2 is not
        assert sorted(r.key for r in ld.phi_prime) == [(1, 3), (2, 3)]
        assert (ld.n_even, ld.n_odd) == (0, 2)
        assert (1, 2) in ld.levi_prime and (2, 1) in ld.levi_prime
        assert sorted(ld.nilradical) == [(1, 3), (2, 3)]


class TestReduction:
    def test_gl11_dimension_and_simplicity(self):
        alg = build_algebra(1, 1, F)
        chi = Character(alg, {(1, 1): 1})
        alg2, chi2, weights = weight_variety(alg, chi)
        rep = kw_verify(alg2, chi2, weights[0])
        assert rep["phi_prime"] == [(1, 2)]
        assert rep["dim_m_prime"] == 1
        assert rep["dim_m"] == rep["predicted_dim"] == 2
        assert rep["induced_simple"]
        assert rep["chi_l_nilpotent"]

    def test_kw_module_equals_formula_gl21(self):
        alg = build_algebra(2, 1, F)
        chi = Character(alg, {(1, 1): 1, (2, 2): 1, (3, 3): 1})
        alg2, chi2, weights = weight_variety(alg, chi)
        rep = kw_verify(alg2, chi2, weights[0])
        assert rep["dim_n"] == [0, 2]
        assert rep["dim_m"] == 4 * rep["dim_m_prime"]
        assert rep["induced_simple"]

    def test_levi_verma_is_module_for_levi_units(self):
        alg = build_algebra(2, 1, F)
        rs = alg.root_system()
        chi = Character(alg, {(1, 1): 1, (2, 2): 1, (3, 3): 1})
        alg2, chi2, weights = weight_variety(alg, chi)
        rs2 = alg2.root_system()
        ld = levi_data(rs2, chi2)
        ZL = build_levi_verma(alg2, chi2, weights[0], ld.phi_prime)
        assert ZL.dim == 5  # one even root in the Levi
        assert ZL.verify_axioms()


class TestDotAction:
    def test_definition(self):
        rs = build_algebra(2, 1, F).root_system()
        alpha = rs.root(1, 2)
        lam = Weight(F, [3, 1, 2])
        mu = dot_action(rs, [alpha], lam)
        # mu = s(lam + rho) - rho with rho = (2, 1, 0)
        shifted = [F.add(3, 2), F.add(1, 1), F.add(2, 0)]
        swapped = [shifted[1], shifted[0], shifted[2]]
        expect = [F.sub(swapped[0], 2), F.sub(swapped[1], 1), swapped[2]]
        assert list(mu.coords) == expect

    def test_identity_word(self):
        rs = build_algebra(2, 1, F).root_system()
        lam = Weight(F, [3, 1, 2])
        assert dot_action(rs, [], lam) == lam


class TestLeviScan:
    def test_gl21_standard_levi(self):
        alg = build_algebra(2, 1, F)
        chi = Character(alg, {(2, 1): 1})
        lam = Weight(F, [3, 1, 2])
        rep = levi_scan(alg, chi, lam)
        assert rep["I"] == [(1, 2)]
        entry = rep["alphas"][0]
        assert entry["a"] == F.sub(3, 1)
        assert entry["rank"] == 20 and entry["isomorphism"]
        assert entry["heads_match"]
        assert rep["radical_absorbs_all"]
        assert rep["outside_vectors_generate"]

    def test_one_alpha_takes_two_simple_heads(self, monkeypatch):
        # the head of Z is found once per weight, the source's once per
        # alpha: one dual_core each
        alg = build_algebra(2, 1, F)
        chi = Character(alg, {(2, 1): 1})
        heads = []
        real_dual_core = analysis.dual_core

        def counting_dual_core(M):
            heads.append(M.dim)
            return real_dual_core(M)

        monkeypatch.setattr(analysis, "dual_core", counting_dual_core)
        monkeypatch.setattr(kw, "dual_core", counting_dual_core)
        rep = levi_scan(alg, chi, Weight(F, [3, 1, 2]))
        assert len(rep["alphas"]) == 1
        assert heads == [20, 20]

    def test_descent_report_equals_the_certified_one(self, monkeypatch):
        # with the top coordinate hidden, Z takes the descent and Prop 5.17
        # spins every line of the dual pieces; the report must not change
        alg = build_algebra(2, 1, F)
        chi = Character(alg, {(2, 1): 1})
        lam = Weight(F, [0, 0, 0])
        rep = levi_scan(alg, chi, lam)
        assert rep["radical_dim"] == 10
        lines = []
        real_is_local = kw._is_local

        def counting_is_local(S):
            lines.append(S.dim)
            return real_is_local(S)

        monkeypatch.setattr(analysis, "_top_coordinate", lambda M: None)
        monkeypatch.setattr(kw, "_top_coordinate", lambda M: None)
        monkeypatch.setattr(kw, "_is_local", counting_is_local)
        descended = levi_scan(alg, chi, lam)
        assert lines == [10]
        assert list(descended) == list(rep)
        for key in rep:
            assert descended[key] == rep[key], key

    def test_rejects_non_levi_chi(self):
        alg = build_algebra(1, 1, F)
        chi = Character(alg, {(1, 1): 1})
        alg2, chi2, weights = weight_variety(alg, chi)
        with pytest.raises(NotStandardLevi):
            levi_scan(alg2, chi2, weights[0])


class TestConjugation:
    def test_conjugation_definition(self):
        # evaluate (g.chi)(x) = chi(g^-1 x g) directly on even units
        alg = build_algebra(2, 1, F)
        chi = Character(alg, {(1, 1): 2, (2, 1): 3})
        gm = np.array([[1, 2], [0, 1]], dtype=np.int64)
        gn = np.array([[3]], dtype=np.int64)
        new = conjugate_character(alg, (gm, gn), chi)
        full = np.zeros((3, 3), dtype=np.int64)
        full[:2, :2] = gm
        full[2:, 2:] = gn
        g = Matrix(F, full)
        ginv = inverse(g)
        for (i, j) in alg.even_units:
            conj = ginv @ alg.unit_matrix(i, j) @ g
            acc = 0
            for (a, b) in alg.even_units:
                acc = F.add(acc, F.mul(int(conj.data[a - 1, b - 1]),
                                       chi.value((a, b))))
            assert new.value((i, j)) == acc

    def test_orbit_is_invertible(self):
        alg = build_algebra(2, 1, F)
        chi = Character(alg, {(2, 1): 1})
        gm = np.array([[2, 1], [1, 1]], dtype=np.int64)
        gn = np.array([[1]], dtype=np.int64)
        moved = conjugate_character(alg, (gm, gn), chi)
        g_full = np.zeros((3, 3), dtype=np.int64)
        g_full[:2, :2] = gm
        g_full[2:, 2:] = gn
        back = conjugate_character(alg, inverse(Matrix(F, g_full)), moved)
        assert back == chi

    def test_rejects_singular_and_odd_g(self):
        alg = build_algebra(1, 1, F)
        chi = Character(alg, {})
        with pytest.raises(SingularG):
            conjugate_character(alg, Matrix(F, np.zeros((2, 2), dtype=np.int64)),
                                chi)
        odd = Matrix(F, np.array([[1, 1], [0, 1]], dtype=np.int64))
        with pytest.raises(OddInput):
            conjugate_character(alg, odd, chi)

    def test_normalize_semisimplifiable_character(self):
        # chi with a diagonalizable avatar: E(2,1) value plus distinct
        # diagonal makes the block diagonalizable
        alg = build_algebra(2, 1, F)
        chi = Character(alg, {(1, 1): 1, (2, 2): 2, (2, 1): 3})
        g, new = normalize_character(alg, chi)
        assert all(i >= j for (i, j) in new.values)
        assert all(i == j for (i, j) in new.values)  # fully semisimple here

    def test_normalize_rejects_nilpotent_avatar(self):
        alg = build_algebra(2, 1, F)
        chi = Character(alg, {(2, 1): 3})
        with pytest.raises(NotNormalizable):
            normalize_character(alg, chi)
