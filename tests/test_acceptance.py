"""Acceptance gate: eleven numbered criteria, one printed pass/fail line
each.  All comparisons are exact finite-field equality; oracle verdicts
come from exhaustive or seeded spinning, never from the formula under test.
"""

import itertools
import random

import numpy as np
import pytest

from glmn.ffield import make_field
from glmn.algebra import (build_algebra, Character, Weight, reflect,
                          weight_variety)
from glmn.enveloping import (ReductionContext, PBWElement, multiply,
                             ad_action, normalize)
from glmn.verma import (build_baby_verma, build_simple_g0_module,
                        build_graded_verma, f_direct, f_formula, f1_direct,
                        maximal_vectors)
from glmn.analysis import spin, is_simple, simple_head
from glmn.series import regular_module, frobenius_gram
from glmn.kw import kw_verify, levi_scan, levi_data
from glmn.checks import structure_task

F = make_field(5)


from _criteria import announce
from _series_oracle import trivial_submodules


def all_weights(d):
    return [Weight(F, c) for c in itertools.product(range(5), repeat=d)]


def sample_weights(weights, count, seed):
    rng = random.Random(seed)
    return rng.sample(weights, min(count, len(weights)))


def test_criterion_01_structure_suite():
    ok = True
    for (m, n) in [(1, 1), (2, 1), (2, 2)]:
        alg = build_algebra(m, n, F)
        rec, passed = structure_task({"seed": 11}, alg, Character(alg, {}), [])
        ok = ok and passed and rec["all_pass"]
        ok = ok and rec["checked"]["supertrace"] == len(alg.units) ** 2
        ok = ok and rec["checked"]["ad_p_power"] >= 50
    announce(1, ok, "anticommutativity/Jacobi/restrictedness/supertrace "
                    "for gl(1|1), gl(2|1), gl(2|2) at p=5")


def test_criterion_02_pbw_counts():
    alg11 = build_algebra(1, 1, F)
    ctx = ReductionContext(alg11, Character(alg11, {}))
    ok = len(ctx.admissible_monomials()) == 100
    for (m, n) in [(1, 1), (2, 1), (2, 2)]:
        alg = build_algebra(m, n, F)
        rs = alg.root_system()
        Z = build_baby_verma(alg, Character(alg, {}),
                             Weight(F, [1] * (m + n)))
        expect = (5 ** len(rs.positive_even)) * (2 ** len(rs.positive_odd))
        ok = ok and Z.dim == expect
    announce(2, ok, "u(gl(1|1)) has 100 PBW monomials; "
                    "dim Z = p^{N0} 2^{N1} for every built Verma")


def test_criterion_03_gl11_simplicity_scan():
    alg = build_algebra(1, 1, F)
    chi = Character(alg, {})
    rs = alg.root_system()
    ok = True
    simple_count = 0
    for lam in all_weights(2):
        Z = build_baby_verma(alg, chi, lam)
        fd = f_direct(Z).idx
        hand = F.add(lam.value(1), lam.value(2))
        ff = f_formula(rs, lam).f_formula.idx
        verdict = bool(is_simple(Z))
        simple_count += verdict
        ok = ok and fd == hand == ff and verdict == (fd != 0)
    ok = ok and simple_count == 20
    announce(3, ok, "gl(1|1), chi=0: oracle simple iff f_direct != 0 on all "
                    "25 weights; exactly 20 simple; f = l1+l2 with c = 1")


def test_criterion_04_gl21_simplicity_scan():
    alg = build_algebra(2, 1, F)
    chi = Character(alg, {})
    rs = alg.root_system()
    ok = True
    simple_count = 0
    c = None
    for lam in all_weights(3):
        Z = build_baby_verma(alg, chi, lam)
        fd = f_direct(Z).idx
        l1, l2, l3 = (lam.value(i) for i in (1, 2, 3))
        frozen = F.mul(F.sub(F.power(F.add(F.sub(l1, l2), 1), 4), 1),
                       F.mul(F.add(F.add(l1, l3), 1), F.add(l2, l3)))
        ok = ok and f_formula(rs, lam).f_formula.idx == frozen
        verdict = bool(is_simple(Z))
        simple_count += verdict
        ok = ok and verdict == (fd != 0)
        if frozen != 0:
            this = F.mul(fd, F.inv(frozen))
            c = this if c is None else c
            ok = ok and this == c
        else:
            ok = ok and fd == 0
    ok = ok and simple_count == 20 and c is not None and c != 0
    announce(4, ok, "gl(2|1), chi=0: oracle iff f_direct != 0 on all 125 "
                    "weights; 20 simple; f_direct = c * frozen formula, "
                    "one c != 0")


def test_criterion_05_gl11_nonzero_semisimple_chi():
    alg = build_algebra(1, 1, F)
    chi = Character(alg, {(1, 1): 1})
    alg2, chi2, weights = weight_variety(alg, chi)
    f = alg2.field
    ok = f.k == 5 and len(weights) == 25
    for lam in weights:
        Z = build_baby_verma(alg2, chi2, lam)
        fd = f_direct(Z).idx
        ok = ok and fd == f.add(lam.value(1), lam.value(2))
        verdict = bool(is_simple(Z))
        ok = ok and verdict == (fd != 0) and verdict
    announce(5, ok, "gl(1|1), chi(E11)=1 over F_{5^5}: f_direct = l1+l2 "
                    "iff oracle simple, row by row, and all 25 rows simple")


def test_criterion_06_property_suites_gl21():
    alg = build_algebra(2, 1, F)
    chi = Character(alg, {})
    rs = alg.root_system()
    alpha = rs.root(1, 2)
    ok = True
    cprime = None
    for lam in all_weights(3):
        Z = build_baby_verma(alg, chi, lam)
        fd = f_direct(Z).idx
        # zero-set symmetry under lam -> s_alpha^{-1}(lam + alpha)
        shifted = Weight(F, [F.add(lam.value(1), 1), F.sub(lam.value(2), 1),
                             lam.value(3)])
        mu = reflect(rs, alpha, shifted)
        Zmu = build_baby_verma(alg, chi, mu)
        ok = ok and (fd == 0) == (f_direct(Zmu).idx == 0)
        # pointwise divisibility implications
        for r in rs.simple:
            x = F.add(rs.weight_on_coroot(lam, r), rs.rho_value(r))
            if r.parity == 0 and x != 0:
                ok = ok and fd == 0
            if r.parity == 1 and x == 1:
                ok = ok and fd == 0
        # f1_direct * f0 = c' * f_direct with a single c'
        polys = f_formula(rs, lam)
        lhs = F.mul(f1_direct(Z).idx, polys.f0.idx)
        if fd != 0:
            this = F.mul(lhs, F.inv(fd))
            cprime = this if cprime is None else cprime
            ok = ok and this == cprime
        else:
            ok = ok and lhs == 0
        # graded Verma simplicity iff f1_direct != 0
        M = build_simple_g0_module(alg, chi, lam)
        ZM = build_graded_verma(alg, chi, M)
        ok = ok and bool(is_simple(ZM)) == (f1_direct(Z).idx != 0)
    ok = ok and cprime is not None and cprime != 0
    announce(6, ok, "gl(2|1), chi=0: dot-reflection zero-set symmetry, "
                    "divisibility implications, f1*f0 = c'*f, graded "
                    "simplicity iff f1 != 0, over all 125 weights")


def test_criterion_07_graded_verma_simple_nonzero_chi():
    alg = build_algebra(2, 1, F)
    chi = Character(alg, {(1, 1): 1, (2, 2): 1, (3, 3): 1})
    alg2, chi2, weights = weight_variety(alg, chi)
    rs = alg2.root_system()
    f = alg2.field
    ok = True
    # chi(h_alpha) = 2 for both odd positive coroots
    from glmn.kw import chi_on_coroot
    for r in rs.positive_odd:
        ok = ok and chi_on_coroot(rs, chi2, r) == 2
    for lam in sample_weights(weights, 10, seed=77):
        M = build_simple_g0_module(alg2, chi2, lam)
        ZM = build_graded_verma(alg2, chi2, M)
        ok = ok and bool(is_simple(ZM))
    announce(7, ok, "gl(2|1), chi = diag(1,1,1) over F_{5^5}: graded Verma "
                    "simple at 10 sampled weights")


def test_criterion_08_reduction_dimension_formula():
    alg = build_algebra(1, 1, F)
    chi = Character(alg, {(1, 1): 1})
    alg2, chi2, weights = weight_variety(alg, chi)
    rep = kw_verify(alg2, chi2, weights[0])
    ok = (rep["dim_m"] == 2 and rep["dim_m_prime"] == 1
          and rep["induced_simple"])
    alg21 = build_algebra(2, 1, F)
    chi21 = Character(alg21, {(1, 1): 1, (2, 2): 1, (3, 3): 1})
    alg3, chi3, weights3 = weight_variety(alg21, chi21)
    rs3 = alg3.root_system()
    ld = levi_data(rs3, chi3)
    ok = ok and sorted(r.key for r in ld.phi_prime) == [(1, 3), (2, 3)]
    for lam in sample_weights(weights3, 5, seed=78):
        rep = kw_verify(alg3, chi3, lam)
        ok = ok and rep["dim_m"] == 4 * rep["dim_m_prime"]
        ok = ok and rep["induced_simple"]
    announce(8, ok, "dim M = p^{N0} 2^{N1} dim M' and induced module "
                    "oracle-simple: gl(1|1) chi(E11)=1 and gl(2|1) with "
                    "Phi' = {eps1-d1, eps2-d1}")


def test_criterion_09_unipotent_suite():
    ok = True
    rng = random.Random(79)
    for (m, n, sub) in [(1, 1, [(2, 1)]), (2, 1, [(2, 1), (3, 2), (3, 1)])]:
        alg = build_algebra(m, n, F)
        chi = Character(alg, {})
        _, nondeg = frobenius_gram(alg, sub, chi)
        ok = ok and nondeg
        left = regular_module(alg, sub, chi, side="left")
        right = regular_module(alg, sub, chi, side="right")
        tl, tr = trivial_submodules(left), trivial_submodules(right)
        ok = ok and tl.dim == 1 and tr.dim == 1 and tl == tr
        # Leibniz identity for ad on sampled homogeneous elements
        ctx = left.ctx
        monos = {par: [x for x in ctx.admissible_monomials()
                       if ctx.mono_parity(x) == par] for par in (0, 1)}
        for unit in alg.units:
            a = alg.unit_matrix(*unit)
            pa = alg.parity(*unit)
            for _ in range(5):
                pu = rng.randrange(2)
                u = PBWElement(ctx, {monos[pu][rng.randrange(len(monos[pu]))]: 1})
                pv = rng.randrange(2)
                v = PBWElement(ctx, {monos[pv][rng.randrange(len(monos[pv]))]: 1})
                lhs = ad_action(ctx, a, multiply(ctx, u, v))
                rhs = multiply(ctx, ad_action(ctx, a, u), v)
                tail = multiply(ctx, u, ad_action(ctx, a, v))
                rhs = rhs - tail if (pa and pu) else rhs + tail
                ok = ok and lhs == rhs
        # scalar behavior of ad on the trivial line v_L
        top_t = int(np.nonzero(tl.basis[0])[0][0])
        vL = PBWElement(ctx, {left.labels[top_t]: 1})
        normalizers = list(alg.diag_units) + [tuple(u) for u in sub]
        for unit in normalizers:
            img = ad_action(ctx, alg.unit_matrix(*unit), vL)
            terms = dict(img.terms)
            ok = ok and set(terms) <= set(vL.terms)
            if unit[0] != unit[1]:  # ad of a unipotent element is nilpotent
                ok = ok and not terms
    announce(9, ok, "u(N-, 0) of gl(1|1) and gl(2|1): Frobenius Gram "
                    "invertible, unique trivial line with v_L = v_R, "
                    "ad Leibniz identity, nilpotent ad acts by scalar 0")


def test_criterion_10_standard_levi_suite():
    alg = build_algebra(2, 1, F)
    chi = Character(alg, {(2, 1): 1})
    alg2, chi2, weights = weight_variety(alg, chi)
    ok = True
    for lam in sample_weights(weights, 10, seed=80):
        rep = levi_scan(alg2, chi2, lam)
        for entry in rep["alphas"]:
            ok = ok and entry["rank"] == 20 and entry["isomorphism"]
            ok = ok and entry["heads_match"]
        ok = ok and rep["radical_absorbs_all"]
        ok = ok and rep["outside_vectors_generate"]
    announce(10, ok, "gl(2|1), chi(E21)=1: f^(a+1)v maximal, induced hom "
                     "rank 20 (isomorphism), unique maximal submodule "
                     "certified, heads isomorphic, 10 sampled weights")


def test_criterion_11_spin_reaches_bottom_vector():
    alg = build_algebra(2, 1, F)
    chi = Character(alg, {})
    rng = random.Random(82)
    ok = True
    lams = [Weight(F, c) for c in [(1, 2, 3), (0, 1, 2), (3, 3, 1),
                                   (2, 0, 0), (4, 4, 4)]]
    checked = 0
    for lam in lams:
        Z = build_baby_verma(alg, chi, lam)
        bottom_t = max(range(Z.dim), key=lambda t: sum(Z.labels[t][0]))
        bottom = Z.basis_vector(bottom_t)
        for _ in range(10):
            w = np.array([rng.randrange(5) for _ in range(Z.dim)],
                         dtype=np.int64)
            if not w.any():
                w[0] = 1
            ok = ok and spin(Z, w).contains(bottom)
            checked += 1
        _, head = simple_head(Z)
        lines = sum(sub.dim for _, sub, _ in maximal_vectors(head))
        ok = ok and lines == 1
    ok = ok and checked == 50
    announce(11, ok, "semisimple-chi Vermas: 50 seeded spins contain the "
                     "bottom monomial vector; simple heads have exactly "
                     "one maximal-vector line")
