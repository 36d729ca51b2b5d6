"""Spinning, simplicity, heads and composition series.

The main oracle is exhaustive: for small modules we spin every one of the
q^d - 1 nonzero vectors and compare with is_simple, which only inspects
candidate lines.  Structural outputs (quotients, restrictions, series) are
checked by their defining identities.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glmn.ffield import make_field
from glmn.linalg import Subspace, matvec
from glmn.algebra import build_algebra, Character, Weight
from glmn.verma import build_baby_verma
from glmn.analysis import spin, is_simple, simple_head
from glmn.series import (composition_series, quotient_module, restrict_module,
                         trivial_submodules, regular_module, frobenius_gram,
                         shifted_joint_kernel)
from glmn import enveloping, series
from glmn.errors import (BudgetExceeded, ZeroVector, NotClosed,
                         ShiftInconsistent)
from test_block_spin import is_action_closed
from _bracket_oracle import outcome, shifted_scalars
from _gram_oracle import pbw_gram
from _line_oracle import witness

F = make_field(5)


def _must_not_run(*args, **kwargs):
    raise AssertionError("called before the budget check")


def _must_not_multiply(*args, **kwargs):
    raise AssertionError("a PBW product outside regular_module")


def brute_graded_simple(M):
    """Exhaustive oracle: every nonzero vector's graded closure is all of M.

    Direct span-growing loop; shares no candidate-selection logic with
    is_simple.
    """
    for coords in itertools.product(range(F.q), repeat=M.dim):
        w = np.array(coords, dtype=np.int64)
        if not w.any():
            continue
        # homogeneous components
        frontier = []
        for par in (0, 1):
            c = np.where(M.parity == par, w, 0)
            if c.any():
                frontier.append(c)
        span = Subspace(F, M.dim)
        while frontier:
            v = frontier.pop()
            if span.contains(v):
                continue
            span = span.add_vectors(v)
            for u in M.units:
                img = M.act(u, v)
                if img.any():
                    frontier.append(img)
        if span.dim < M.dim:
            return False
    return True


class TestSpin:
    def test_contains_components_and_is_closed(self):
        alg = build_algebra(2, 1, F)
        chi = Character(alg, {})
        Z = build_baby_verma(alg, chi, Weight(F, [1, 2, 3]))
        w = Z.basis_vector(0)
        w = F.add(w, Z.basis_vector(3))
        s = spin(Z, w)
        for par in (0, 1):
            c = np.where(Z.parity == par, w, 0)
            if c.any():
                assert s.contains(c)
        assert is_action_closed(Z, s)

    def test_spin_of_highest_vector_is_everything(self):
        alg = build_algebra(1, 1, F)
        chi = Character(alg, {})
        Z = build_baby_verma(alg, chi, Weight(F, [2, 2]))
        assert spin(Z, Z.highest_vector).dim == Z.dim

    def test_rejects_zero(self):
        alg = build_algebra(1, 1, F)
        Z = build_baby_verma(alg, Character(alg, {}), Weight(F, [0, 0]))
        with pytest.raises(ZeroVector):
            spin(Z, np.zeros(Z.dim, dtype=np.int64))


class TestIsSimpleAgainstBruteForce:
    def test_gl11_all_weights(self):
        alg = build_algebra(1, 1, F)
        chi = Character(alg, {})
        for coords in itertools.product(range(5), repeat=2):
            Z = build_baby_verma(alg, chi, Weight(F, coords))
            assert bool(is_simple(Z)) == brute_graded_simple(Z)

    def test_verdict_metadata(self):
        alg = build_algebra(1, 1, F)
        chi = Character(alg, {})
        v = is_simple(build_baby_verma(alg, chi, Weight(F, [2, 3])))
        assert not v.simple
        assert witness(build_baby_verma(alg, chi, Weight(F, [2, 3]))) is not None
        assert not v.probabilistic
        v2 = is_simple(build_baby_verma(alg, chi, Weight(F, [1, 3])))
        assert v2.simple


class TestQuotientRestrict:
    def _nonsimple(self):
        alg = build_algebra(1, 1, F)
        chi = Character(alg, {})
        Z = build_baby_verma(alg, chi, Weight(F, [2, 3]))
        rs = alg.root_system()
        u = Z.act(rs.f_unit(rs.positive[0]), Z.highest_vector)
        return Z, spin(Z, u)

    def test_quotient_axioms_and_dims(self):
        Z, sub = self._nonsimple()
        Q, proj, lift = quotient_module(Z, sub)
        assert Q.dim == Z.dim - sub.dim
        assert Q.verify_axioms()
        # proj is a module map: proj(x . v) = x . proj(v)
        for u in Z.units:
            for t in range(Z.dim):
                v = Z.basis_vector(t)
                assert (proj(Z.act(u, v)) == Q.act(u, proj(v))).all()

    def test_restrict_axioms(self):
        Z, sub = self._nonsimple()
        R, basis = restrict_module(Z, sub)
        assert R.dim == sub.dim
        assert R.verify_axioms()
        # embedding intertwines: R's action in coordinates matches Z's
        for u in Z.units:
            for t, b in enumerate(basis):
                img = Z.act(u, b)
                back = matvec(F, basis.T, R.act(u, np.eye(R.dim, dtype=np.int64)[t]))
                assert (img == back).all()


class TestHeadAndSeries:
    def test_head_of_simple_module_is_itself(self):
        alg = build_algebra(1, 1, F)
        Z = build_baby_verma(alg, Character(alg, {}), Weight(F, [1, 3]))
        R, head = simple_head(Z)
        assert R.dim == 0 and head.dim == Z.dim

    def test_head_is_simple_and_dims_add(self):
        alg = build_algebra(1, 1, F)
        Z = build_baby_verma(alg, Character(alg, {}), Weight(F, [2, 3]))
        R, head = simple_head(Z)
        assert R.dim + head.dim == Z.dim
        assert is_simple(head)

    def test_series_of_nonsimple_verma(self):
        alg = build_algebra(1, 1, F)
        Z = build_baby_verma(alg, Character(alg, {}), Weight(F, [2, 3]))
        cs = composition_series(Z)
        assert sum(d for d, _ in cs.factors) == Z.dim
        assert [d for d, _ in cs.factors] == [1, 1]
        # chain is descending and action-closed
        dims = [c.dim for c in cs.chain]
        assert dims == sorted(dims, reverse=True)
        for c in cs.chain:
            if c.dim:
                assert is_action_closed(Z, c)

    def test_regular_module_series_is_uniform(self):
        # u(N-, chi) with chi(E(2,1)) = 2: twenty 1-dimensional factors
        alg = build_algebra(2, 1, F)
        sub = [(2, 1), (3, 2), (3, 1)]
        M = regular_module(alg, sub, Character(alg, {(2, 1): 2}))
        cs = composition_series(M)
        assert [d for d, _ in cs.factors] == [1] * 20


class TestUnipotentAlgebra:
    @pytest.mark.parametrize("m,n,sub,expect_dim", [
        (1, 1, [(2, 1)], 2),
        (2, 1, [(2, 1), (3, 2), (3, 1)], 20)])
    def test_regular_module_and_trivial_line(self, m, n, sub, expect_dim):
        alg = build_algebra(m, n, F)
        chi = Character(alg, {})
        left = regular_module(alg, sub, chi, side="left")
        right = regular_module(alg, sub, chi, side="right")
        assert left.dim == right.dim == expect_dim
        assert left.verify_axioms()
        tl = trivial_submodules(left)
        tr = trivial_submodules(right)
        assert tl.dim == 1 and tr.dim == 1
        # same line: the top monomial spans both
        assert tl == tr
        top = np.zeros(expect_dim, dtype=np.int64)
        top_label = max(range(expect_dim), key=lambda t: sum(left.labels[t]))
        top[top_label] = 1
        assert tl.contains(top)

    def test_frobenius_gram_nondegenerate(self):
        for (m, n, sub) in [(1, 1, [(2, 1)]), (2, 1, [(2, 1), (3, 2), (3, 1)])]:
            alg = build_algebra(m, n, F)
            G, nondeg = frobenius_gram(alg, sub, Character(alg, {}))
            assert nondeg

    def test_frobenius_gram_refuses_before_listing_monomials(self, monkeypatch):
        # gl(3|2): u(n^-) has dimension 5^4 * 2^6 = 40,000, refused from the
        # caps before any monomial of u(sub) is listed
        alg = build_algebra(3, 2, F)
        rs = alg.root_system()
        sub = [rs.f_unit(r) for r in rs.positive]
        monkeypatch.setattr(series, "sub_enveloping_basis", _must_not_run)
        with pytest.raises(BudgetExceeded, match="40000"):
            frobenius_gram(alg, sub, Character(alg, {}))

    @pytest.mark.parametrize("m, n, chi, sub", [
        (1, 1, {}, None),
        (2, 1, {}, None),
        (2, 1, {(2, 1): 2}, None),
        (2, 2, {}, None),
        (2, 2, {(2, 1): 1, (4, 3): 1}, None),
        (1, 1, {}, [(1, 1), (2, 2), (2, 1)]),  # the Borel subalgebra
    ])
    def test_frobenius_gram_equals_the_pbw_products(self, m, n, chi, sub):
        alg = build_algebra(m, n, F)
        rs = alg.root_system()
        sub = sub or [rs.f_unit(r) for r in rs.positive]
        G, nondeg = frobenius_gram(alg, sub, Character(alg, chi))
        assert np.array_equal(G.data, pbw_gram(alg, sub, Character(alg, chi)))
        assert nondeg

    def test_frobenius_gram_makes_no_product_of_its_own(self, monkeypatch):
        # every PBW product is straightened by regular_module: once the left
        # module is built, a call of multiply fails the test
        alg = build_algebra(2, 1, F)
        real, built = series.regular_module, []

        def left_module_then_no_products(*args, **kwargs):
            M = real(*args, **kwargs)
            built.append(M)
            monkeypatch.setattr(series, "multiply", _must_not_multiply)
            monkeypatch.setattr(enveloping, "multiply", _must_not_multiply)
            return M

        monkeypatch.setattr(series, "regular_module", left_module_then_no_products)
        G, nondeg = frobenius_gram(alg, [(2, 1), (3, 2), (3, 1)], Character(alg, {}))
        assert nondeg and G.rows == 20 and len(built) == 1

    def test_shifted_kernel_matches_trivial_for_zero_chi(self):
        alg = build_algebra(2, 1, F)
        M = regular_module(alg, [(2, 1), (3, 2), (3, 1)], Character(alg, {}))
        assert shifted_joint_kernel(M) == trivial_submodules(M)

    def test_shift_inconsistent_chi(self):
        # chi(E(3,1)) != 0 but E(3,1) = [E(3,2), E(2,1)]: no 1-dim module.
        # E(3,1) must be even for chi, so use gl(3|1).
        alg = build_algebra(3, 1, F)
        M = regular_module(alg, [(2, 1), (3, 2), (3, 1)],
                           Character(alg, {(3, 1): 1}))
        with pytest.raises(ShiftInconsistent):
            shifted_joint_kernel(M)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_shifted_scalars_match_the_bracket_walk(self, data):
        # units of n- or n+ of gl(1|1) to gl(3|1) over F_5 and F_25, all or
        # some, and chi on their even units; on gl(3|1) a value on E(3,1) =
        # [E(3,2), E(2,1)] (or E(1,3) on n+) leaves no one-dimensional module.
        # _shifted_scalars reads only the algebra, chi and the units of M
        f = data.draw(st.sampled_from([F, make_field(5, 2)]), label="field")
        alg = build_algebra(*data.draw(st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 1)])), f)
        lower = data.draw(st.booleans(), label="n-")
        units = [(i, j) for i, j in alg.units if (i > j if lower else i < j)]
        if data.draw(st.booleans(), label="some units"):
            units = data.draw(st.lists(st.sampled_from(units), min_size=1, unique=True))
        entry = st.one_of(st.just(0), st.integers(1, f.q - 1))
        values = {u: data.draw(entry) for u in units if alg.parity(*u) == 0}
        M = SimpleNamespace(algebra=alg, field=f, units=units, chi=Character(alg, values))
        got = outcome(series._shifted_scalars, M)
        assert got == outcome(shifted_scalars, M)
        if (alg.m, len(units)) == (3, 6) and values.get((3, 1) if lower else (1, 3)):
            assert got is ShiftInconsistent

    def test_not_closed(self):
        alg = build_algebra(2, 1, F)
        with pytest.raises(NotClosed):
            regular_module(alg, [(2, 1), (3, 2)], Character(alg, {}))
