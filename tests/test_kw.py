"""Character decomposition, Levi data, Phi' ordering and the parabolic
induction pipeline.

Oracles: Phi' membership is recomputed from coroot values by hand; Levi
closure is literal bracket arithmetic; the dimension formula of the
reduction is checked against the product count; conjugation is verified
by evaluating chi on explicitly conjugated matrix units.
"""

import contextlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _bracket_oracle
from _line_oracle import is_local_by_dual_spins, is_simple_by_lines
from glmn import analysis, kw
from glmn.cli import main
from glmn.ffield import make_field
from glmn.linalg import Matrix, Subspace, inverse
from glmn.algebra import build_algebra, Character, Weight, weight_variety
from glmn.analysis import SimplicityVerdict, is_simple
from glmn.verma import build_baby_verma
from glmn.kw import (decompose_character, levi_data, order_phi_prime,
                     build_levi_verma, kw_verify,
                     dot_action, levi_scan, levi_scans, conjugate_character,
                     normalize_character, phi_prime_roots, chi_on_coroot)
from glmn.errors import (ClosureFailure, IntertwinerCheckFailed, NoMaximalVector,
                         NotNormalized, NotStandardLevi, NotNormalizable, SingularG, OddInput)

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

    def test_chi_on_coroot_hand_values(self):
        alg = build_algebra(2, 1, F)
        rs = alg.root_system()
        chi = Character(alg, {(1, 1): 1, (2, 2): 2, (3, 3): 3, (2, 1): 4})
        # h = E11 - E22 for eps1-eps2 and E(i,i) + E33 for eps_i - delta_1;
        # the value on E21 plays no part
        assert {r.key: chi_on_coroot(rs, chi, r) for r in rs.positive} == \
            {(1, 2): 4, (1, 3): 4, (2, 3): 0}

    def test_certify_prefix_names_the_escaping_bracket(self):
        alg = build_algebra(2, 1, F)
        rs = alg.root_system()
        by_f = {rs.f_unit(r): r for r in rs.positive}
        by_e = {rs.e_unit(r): r for r in rs.positive}
        # [E32, E21] = E31
        with pytest.raises(ClosureFailure, match=r"^prefix not closed: .* hits \(3, 1\)$"):
            kw._certify_prefix(rs, [by_f[(3, 2)], by_f[(2, 1)]], [])
        # [E12, E31] = -E32
        with pytest.raises(ClosureFailure, match=r"^prefix not normalized: "
                           r"\[\(1, 2\), \(3, 1\)\] hits \(3, 2\)$"):
            kw._certify_prefix(rs, [by_f[(3, 1)]], [by_e[(1, 2)]])
        kw._certify_prefix(rs, [by_f[(3, 1)], by_f[(3, 2)]], [by_e[(1, 2)]])

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
        # l = [l', l'] is the span of the bracket walk over l', for this chi
        # over F_5 and over the field weight_variety extends to, and for the
        # other normalized chi of this file
        ext, chi_ext, _ = weight_variety(alg, chi)
        cases = [(alg, chi.values), (ext, chi_ext.values)] + [
            (build_algebra(m, n, F), values) for m, n, values in [
                (1, 1, {(1, 1): 1}), (2, 1, {}), (2, 1, {(2, 1): 1}),
                (2, 1, {(1, 1): 1, (2, 2): 1, (3, 3): 4}),
                (2, 1, {(1, 1): 2, (2, 2): 2, (2, 1): 3}),
                (2, 2, {(2, 1): 1, (4, 3): 1}), (3, 1, {(2, 1): 1, (3, 2): 1})]]
        for alg_, values in cases:
            ld = levi_data(alg_.root_system(), Character(alg_, values))
            assert ld.levi == _bracket_oracle.bracket_span(alg_, ld.levi_prime)


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


    def test_kw_verify_reflects_an_even_root(self, tmp_path, capsys):
        # chi(E11) = 1 puts eps1 - eps2 and the odd eps1 - delta1 in Phi';
        # the even root is simple first, so its reflection is the even one
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 5, "m": 2, "n": 1, "chi": {"E(1,1)": 1},
                                   "tasks": ["kw-verify"], "seed": 1}))
        with mock.patch.object(kw, "_reflect_system", wraps=kw._reflect_system) as spy:
            assert main(["kw", "--config", str(cfg)]) == 0
        assert [call.args[1].key for call in spy.call_args_list[:2]] == [(1, 2), (1, 3)]
        reports = json.loads(capsys.readouterr().out)["tasks"][0]["record"]["reports"]
        assert len(reports) == 5
        for rep in reports:
            assert rep["phi_prime"] == [[1, 2], [1, 3]] and rep["induced_simple"]
            n0, n1 = rep["dim_n"]
            assert rep["dim_m"] == 5 ** n0 * 2 ** n1 * rep["dim_m_prime"] == rep["predicted_dim"]


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
        # the heads of Z and of the source (one alpha) come from one
        # dual_cores pass, which simple_heads makes, and Z_L's simplicity
        # from another, which levi_scans makes: one R per module, one pass
        # per stage
        alg = build_algebra(2, 1, F)
        chi = Character(alg, {(2, 1): 1})
        passes = []
        real_dual_cores = analysis.dual_cores

        def counting_dual_cores(Ms):
            passes.append([M.dim for M in Ms])
            return real_dual_cores(Ms)

        monkeypatch.setattr(analysis, "dual_cores", counting_dual_cores)
        monkeypatch.setattr(kw, "dual_cores", counting_dual_cores)
        rep = levi_scan(alg, chi, Weight(F, [3, 1, 2]))
        assert len(rep["alphas"]) == 1
        assert passes == [[20, 20], [5]]

    def test_descent_report_equals_the_certified_one(self, monkeypatch):
        # with the top coordinate hidden, Z and Z_L take the socle line; the
        # report must not change, and its locality is the line oracle's
        alg = build_algebra(2, 1, F)
        chi = Character(alg, {(2, 1): 1})
        lam = Weight(F, [0, 0, 0])
        rep = levi_scan(alg, chi, lam)
        assert rep["radical_dim"] == 10
        monkeypatch.setattr(analysis, "_top_coordinate", lambda M: None)
        descended = levi_scan(alg, chi, lam)
        assert list(descended) == list(rep)
        for key in rep:
            assert descended[key] == rep[key], key
        assert rep["radical_absorbs_all"] == is_local_by_dual_spins(
            build_baby_verma(alg, chi, lam))

    @pytest.mark.parametrize("hidden", [False, True], ids=["certified", "descended"])
    @pytest.mark.parametrize("value", [1, 2])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_locality_matches_line_oracle(self, value, hidden, data):
        """Prop 5.17 read off Z_L equals the oracle's locality of Z, also
        when Z's R comes from the socle line."""
        alg = build_algebra(2, 1, F)
        chi = Character(alg, {(2, 1): value})
        _, _, weights = weight_variety(alg, chi)
        lam = weights[data.draw(st.integers(0, len(weights) - 1), label="weight")]
        hide = mock.patch.object(analysis, "_top_coordinate", lambda M: None)
        with hide if hidden else contextlib.nullcontext():
            rep = levi_scan(alg, chi, lam)
        local = is_local_by_dual_spins(build_baby_verma(alg, chi, lam))
        assert rep["radical_absorbs_all"] == rep["outside_vectors_generate"] == local

    @pytest.mark.parametrize("m,n,chi,levi_keys,dim", [
        (2, 2, {(2, 1): 1, (4, 3): 1}, {(1, 2), (3, 4)}, 25),
        (3, 1, {(2, 1): 1, (3, 2): 1}, {(1, 2), (2, 3), (1, 3)}, 125)],
        ids=["gl22-E21-E43", "gl31-E21-E32"])
    @pytest.mark.parametrize("lam", [[0, 0, 0, 0], [1, 2, 3, 4]])
    def test_levi_verma_is_simple(self, m, n, chi, levi_keys, dim, lam):
        # chi is regular nilpotent on the Levi, whose positive roots are
        # levi_keys; Z_L is induced over those alone
        alg = build_algebra(m, n, F)
        rs = alg.root_system()
        phi = [r for r in rs.positive if r.key not in levi_keys]
        ZL = build_levi_verma(alg, Character(alg, chi), Weight(F, lam), phi)
        assert ZL.dim == dim
        assert is_simple(ZL).simple and is_simple_by_lines(ZL).simple

    def test_levi_verma_not_simple_is_refused(self, monkeypatch, tmp_path, capsys):
        # no verdict is reported where Z_L is not simple: levi_scan raises,
        # and the CLI exits 1 with one task-failed line
        alg = build_algebra(2, 1, F)
        chi = Character(alg, {(2, 1): 1})
        # every Z_L verdict comes from one dual_cores pass: report a nonzero R
        monkeypatch.setattr(kw, "dual_cores", lambda Ms: [
            Subspace(M.field, M.dim, M.basis_vector(0)[None]) for M in Ms])
        with pytest.raises(NotStandardLevi, match=r"lambda = \[3, 1, 2\]"):
            levi_scan(alg, chi, Weight(F, [3, 1, 2]))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 5, "m": 2, "n": 1, "chi": {"E(2,1)": 1},
                                   "lambda": [3, 1, 2], "tasks": ["levi-scan"]}))
        code = main(["levi", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("task failed:") and captured.err.count("\n") == 1

    def test_reports_over_f25_are_those_over_f5(self, tmp_path, capsys):
        # a standard-Levi chi vanishes on h, so X^chi is F_5^3 over either
        # field and each lambda(h_alpha) lies in F_5: the reports differ only
        # in the length of each lambda digit list
        reports = []
        for degree in (1, 2):
            cfg = tmp_path / f"cfg{degree}.json"
            cfg.write_text(json.dumps({"p": 5, "m": 2, "n": 1, "field_degree": degree,
                                       "chi": {"E(2,1)": 1}, "tasks": ["levi-scan"], "seed": 3}))
            assert main(["levi", "--config", str(cfg)]) == 0
            reports.append(json.loads(capsys.readouterr().out)["tasks"][0]["record"]["reports"])
        f5, f25 = reports
        for rep in f25:
            assert [d[1:] for d in rep["lambda"]] == [[0]] * 3
            rep["lambda"] = [d[:1] for d in rep["lambda"]]
        assert f25 == f5 and len(f5) == 5

    def test_staged_reports_equal_one_weight_at_a_time(self):
        # all 125 gl(2|1) weights at chi(E21) = 1, staged on one algebra and
        # one weight at a time on a fresh one, whose memos start empty
        alg = build_algebra(2, 1, F)
        _, chi, weights = weight_variety(alg, Character(alg, {(2, 1): 1}))
        assert len(weights) == 125
        staged = levi_scans(alg, chi, weights)
        alg1 = build_algebra(2, 1, F)
        chi1 = Character(alg1, {(2, 1): 1})
        assert staged == [levi_scan(alg1, chi1, Weight(F, lam.coords)) for lam in weights]
        assert sum(len(r["alphas"]) for r in staged) == 125

    @pytest.mark.parametrize("fail_zl,fail_hom,fail_head,first,want", [
        ((40, 90), (), (), 40, NotStandardLevi),
        ((90,), (70,), (), 70, IntertwinerCheckFailed),
        ((30,), (70,), (), 30, NotStandardLevi),
        ((), (3, 124), (), 3, IntertwinerCheckFailed),
        ((), (70,), (100,), 70, IntertwinerCheckFailed),
        ((), (), (5, 100), 5, NoMaximalVector),
        # weight 70's source is Z(s_alpha . lambda) at weight 90's lambda
        ((), (75,), (90,), 70, NoMaximalVector)])
    def test_staged_error_is_the_first_weights(self, monkeypatch, fail_zl, fail_hom,
                                               fail_head, first, want):
        """levi_scans raises what levi_scan raises at the first weight, in
        order, whose check fails: an R of Z_L made nonzero, an induced map
        made to fail its intertwiner check, or a head of Z(lambda) made to
        have no maximal vector, which the staged scan meets in an earlier
        stage than the other two."""
        alg = build_algebra(2, 1, F)
        _, chi, weights = weight_variety(alg, Character(alg, {(2, 1): 1}))
        keys = [tuple(lam.coords.tolist()) for lam in weights]
        bad_zl, bad_hom = {keys[t] for t in fail_zl}, {keys[t] for t in fail_hom}
        bad_head = {keys[t] for t in fail_head}
        real_cores, real_hom, real_spaces = kw.dual_cores, kw.induced_hom, kw._candidate_spaces

        def cores(Ms):
            return [Subspace(M.field, M.dim, M.basis_vector(0)[None])
                    if tuple(M.lam.coords.tolist()) in bad_zl else R
                    for M, R in zip(Ms, real_cores(Ms))]

        def hom(source, target, u):
            if tuple(target.lam.coords.tolist()) in bad_hom:
                raise IntertwinerCheckFailed(f"at {[int(c) for c in target.lam.coords]}")
            return real_hom(source, target, u)

        def spaces(M):
            if tuple(M.lam.coords.tolist()) in bad_head:
                raise NoMaximalVector(f"at {[int(c) for c in M.lam.coords]}")
            return real_spaces(M)

        monkeypatch.setattr(kw, "dual_cores", cores)
        monkeypatch.setattr(kw, "induced_hom", hom)
        monkeypatch.setattr(kw, "_candidate_spaces", spaces)
        errors = []
        for run in (lambda: levi_scans(alg, chi, weights),
                    lambda: [levi_scan(alg, chi, lam) for lam in weights]):
            with pytest.raises((NotStandardLevi, IntertwinerCheckFailed,
                                NoMaximalVector)) as info:
                run()
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        assert errors[0][0] is want
        lam = weights[first] if first in fail_zl + fail_hom + fail_head else weights[fail_head[0]]
        assert str([int(c) for c in lam.coords]) in errors[0][1]

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

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2)])
    @pytest.mark.parametrize("q", [5, 25, 7])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_conjugation_matches_the_triple_products(self, m, n, q, data):
        # random chi and g, as a Matrix or a pair of blocks, singular or with
        # an odd entry now and then: the same Character or the same error
        f = make_field(5, 2) if q == 25 else make_field(q)
        alg = build_algebra(m, n, f)
        entry = st.integers(0, f.q - 1)
        chi = Character(alg, {u: data.draw(entry) for u in alg.even_units})
        g = np.zeros((alg.d, alg.d), dtype=np.int64)
        for i, j in alg.even_units:
            g[i - 1, j - 1] = data.draw(entry)
        g[np.diag_indices(alg.d)] = [data.draw(st.integers(1, f.q - 1)) for _ in range(alg.d)]
        form = data.draw(st.sampled_from(["matrix", "blocks", "singular", "odd"]))
        if form == "singular":
            g[data.draw(st.integers(0, alg.d - 1))] = 0
        if form == "odd":
            i, j = data.draw(st.sampled_from(alg.odd_units))
            g[i - 1, j - 1] = data.draw(st.integers(1, f.q - 1))
        g = (g[:m, :m], g[m:, m:]) if form == "blocks" else Matrix(f, g)
        want = _bracket_oracle.outcome(_bracket_oracle.conjugate_character, alg, g, chi)
        got = _bracket_oracle.outcome(conjugate_character, alg, g, chi)
        assert got == want
        if form in ("singular", "odd"):
            assert got is {"singular": SingularG, "odd": OddInput}[form]

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

    def test_normalize_nilpotent_avatar_to_a_jordan_block(self):
        # chi(E21) = 3: one Jordan block of eigenvalue 0, whose chain puts
        # the value 1 on E21; chi(E12) = 1 and chi(E31) = 1 go the same way
        for m, chi, g in [(2, {(2, 1): 3}, [[2, 0], [0, 1]]),
                          (2, {(1, 2): 1}, [[0, 1], [1, 0]]),
                          (3, {(3, 1): 1}, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])]:
            alg = build_algebra(m, 1, F)
            got, new = normalize_character(alg, Character(alg, chi))
            assert new.values == {(2, 1): 1}
            assert np.array_equal(got.data[:m, :m], g) and got.data[m, m] == 1

    def test_normalize_refuses_eigenvalues_outside_the_field(self):
        # x^2 - 2 has no root mod 5; over F_25 it splits
        for field, refused in ((F, True), (make_field(5, 2), False)):
            alg = build_algebra(2, 1, field)
            chi = Character(alg, {(1, 2): 1, (2, 1): 2})
            if refused:
                with pytest.raises(NotNormalizable):
                    normalize_character(alg, chi)
            else:
                _, new = normalize_character(alg, chi)
                assert sorted(new.values) == [(1, 1), (2, 2)]


def _splits_by_brute_force(field, block):
    """Whether sum over lambda in the field of dim ker (block - lambda)^2 is
    2, for a 2 x 2 index array, from the rank of each square: 0 when it is
    0, 2 when its determinant is nonzero, 1 otherwise."""
    f, total = field, 0
    for lam in range(f.q):
        a, b, c, d = (int(x) for x in block.reshape(-1))
        a, d = f.sub(a, lam), f.sub(d, lam)
        sq = [f.add(f.mul(a, a), f.mul(b, c)), f.add(f.mul(a, b), f.mul(b, d)),
              f.add(f.mul(c, a), f.mul(d, c)), f.add(f.mul(c, b), f.mul(d, d))]
        det = f.sub(f.mul(sq[0], sq[3]), f.mul(sq[1], sq[2]))
        total += 2 if not any(sq) else 0 if det else 1
    return total == 2


NORMAL_FIELDS = {"F5": make_field(5), "F25": make_field(5, 2), "F3125": make_field(5, 5)}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_normalized_chi_is_in_standard_levi_form(data):
    """200 random chi on gl(2|1) and gl(2|2) over F_5, F_25 and F_3125: g
    conjugates chi to the result on every even unit, which vanishes on N+
    and off the diagonal lies on the E(i+1, i) alone; a refusal is exactly
    a 2 x 2 even block whose eigenvalues are not in the field."""
    field = NORMAL_FIELDS[data.draw(st.sampled_from(sorted(NORMAL_FIELDS)), label="field")]
    alg = build_algebra(2, data.draw(st.sampled_from([1, 2]), label="n"), field)
    entry = st.integers(0, field.q - 1)
    chi = Character(alg, {u: data.draw(entry, label=f"chi{u}") for u in alg.even_units})
    m = alg.m
    avatar = np.zeros((alg.d, alg.d), dtype=np.int64)
    for (i, j), v in chi.values.items():
        avatar[j - 1, i - 1] = v
    blocks = [avatar[lo:hi, lo:hi] for lo, hi in ((0, m), (m, alg.d)) if hi - lo == 2]
    splits = all(_splits_by_brute_force(field, b) for b in blocks)
    try:
        g, new = normalize_character(alg, chi)
    except NotNormalizable:
        assert not splits
        return
    assert splits
    moved = conjugate_character(alg, g, chi)
    assert all(moved.value(u) == new.value(u) for u in alg.even_units)
    assert all(i >= j for i, j in new.values)
    assert all(i == j or i == j + 1 for i, j in new.values)
