"""The cached induction plan against a per-build straightening oracle, and
the shared ReductionContext cache.

build_induced places a weight-free plan, straightened once per context.
The oracle below is the construction it replaced: for every unit and free
monomial a fresh product u * (monomial), then each term's tail applied to
every inner basis vector, rightmost generator first.  Every builder's
module is rebuilt by the oracle from its inner module on a context
constructed directly, outside the cache, and compared on its units.  The plan
itself, which derives u * f_i m' from the columns of m', is compared with
the PBW product of every unit and free monomial (_plan_oracle), on the
contexts of the baby, even, graded, Levi and Kac-Weisfeiler builds.
"""

import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _plan_oracle import pbw_plan
from _series_oracle import stacked_action

from glmn import cli, kw, verma
from glmn.analysis import simple_head
from glmn.algebra import (Character, build_algebra, classify_character,
                          weight_variety)
from glmn.errors import GlmnError
from glmn.enveloping import (PBWElement, ReductionContext, multiply,
                             reduction_context)
from glmn.ffield import make_field
from glmn.linalg import matvec


def oracle_induced(ctx, free_roots, inner_dim, inner_parity, inner_actions):
    """(action arrays by unit, parity, labels) of the induced module."""
    f = ctx.field
    nfree = len(free_roots)
    free_monos = [tuple(t) for t in
                  itertools.product(*[range(c) for c in ctx.caps[:nfree]])]
    mono_index = {m: t for t, m in enumerate(free_monos)}
    dim = len(free_monos) * inner_dim
    parity = np.zeros(dim, dtype=np.int64)
    labels = []
    for t, mono in enumerate(free_monos):
        mp = sum(e for e, par in zip(mono, ctx.parities[:nfree]) if par) % 2
        for w in range(inner_dim):
            parity[t * inner_dim + w] = (mp + inner_parity[w]) % 2
            labels.append((mono, w))

    def tail_apply(exps, w):
        vec = np.zeros(inner_dim, dtype=np.int64)
        vec[w] = 1
        for pos in range(ctx.ngens - 1, nfree - 1, -1):
            e = exps[pos]
            if not e:
                continue
            mat = inner_actions.get(pos)
            if mat is None:
                return None
            for _ in range(e):
                vec = matvec(f, mat, vec)
            if not vec.any():
                return None
        return vec

    action = {}
    for u in ctx.algebra.units:
        gen = PBWElement.generator(ctx, u)
        mat = np.zeros((dim, dim), dtype=np.int64)
        for mono in free_monos:
            exps = list(ctx.zero_exps)
            exps[:nfree] = mono
            prod = multiply(ctx, gen, PBWElement(ctx, {tuple(exps): 1}))
            base = mono_index[mono] * inner_dim
            for w in range(inner_dim):
                col = base + w
                for exps, c in prod.terms.items():
                    vec = tail_apply(exps, w)
                    if vec is None:
                        continue
                    row0 = mono_index[exps[:nfree]] * inner_dim
                    seg = slice(row0, row0 + inner_dim)
                    mat[seg, col] = f.add(mat[seg, col], f.mul(c, vec))
        action[u] = mat
    return action, parity, labels


# (m, n, chi) over F_5; a diagonal chi extends the field to F_{5^5}
SETTINGS = {
    "gl11-F5-chi0": (1, 1, {}),
    "gl11-F5^5-diag": (1, 1, {(1, 1): 1, (2, 2): 1}),
    "gl21-F5-E21": (2, 1, {(2, 1): 1}),
    "gl21-F5^5-diag": (2, 1, {(1, 1): 1, (2, 2): 1, (3, 3): 1}),
}


@functools.lru_cache(maxsize=None)
def setting(name):
    m, n, chi = SETTINGS[name]
    alg = build_algebra(m, n, make_field(5))
    return weight_variety(alg, Character(alg, chi))


_ORACLE_CONTEXTS = {}


def oracle_context(ctx):
    """A context equal to ctx but not shared with the library's cache."""
    if ctx not in _ORACLE_CONTEXTS:
        _ORACLE_CONTEXTS[ctx] = ReductionContext(ctx.algebra, ctx.chi,
                                                 ctx.f_order)
    return _ORACLE_CONTEXTS[ctx]


def build_all(alg, chi, lam):
    """Every builder at lam, as (inner module, induced module) pairs."""
    line = next(verma.weight_lines(alg, chi, [lam]))
    E = verma.build_even_verma(alg, chi, lam)
    phi = kw.levi_data(alg.root_system(), chi).phi_prime
    L = kw.build_levi_verma(alg, chi, lam, phi)
    return [(line, verma.build_baby_verma(alg, chi, lam)), (line, E),
            (E, verma.build_graded_verma(alg, chi, E)), (line, L),
            (L, verma.induce(alg, chi, phi, L))]


@pytest.mark.parametrize("name", sorted(SETTINGS))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_builders_match_oracle(name, data):
    alg, chi, weights = setting(name)
    lam = data.draw(st.sampled_from(weights), label="lambda")
    pairs = build_all(alg, chi, lam)
    assert len(pairs) == 5
    for inner, Z in pairs:
        ctx = Z.ctx
        assert ctx is reduction_context(alg, chi, ctx.f_order)
        nfree = len(Z.labels[0][0])
        inner_actions = {pos: inner.matrix(u) for pos, u in enumerate(ctx.units)
                         if pos >= nfree and u in inner.units}
        action, parity, labels = oracle_induced(
            oracle_context(ctx), ctx.f_order[:nfree], inner.dim, inner.parity,
            inner_actions)
        assert set(Z.units) <= set(action)
        for u in Z.units:
            assert np.array_equal(Z.matrix(u), action[u]), u
        assert np.array_equal(Z.parity, parity)
        # the labels are the layout's tuple, shared by every build
        assert Z.labels == tuple(labels)


def test_every_build_carries_its_weight_and_context():
    alg, chi, weights = setting("gl21-F5-E21")
    rs = alg.root_system()
    lam = weights[3]
    phi = kw.levi_data(rs, chi).phi_prime
    levi = [r for r in rs.positive if r not in phi]
    Z = verma.build_baby_verma(alg, chi, lam)
    E = verma.build_even_verma(alg, chi, lam)
    M = verma.build_simple_g0_module(alg, chi, lam)
    G = verma.build_graded_verma(alg, chi, M)
    L = kw.build_levi_verma(alg, chi, lam, phi)
    head = simple_head(L)[1]
    K = verma.induce(alg, chi, phi, head)
    assert all(X.lam is lam for X in (Z, E, M, G, L, head, K))
    for X, free in ((Z, rs.positive), (E, rs.positive_even),
                    (G, rs.positive_odd), (L, levi), (K, phi)):
        rest = [r for r in rs.positive if r not in free]
        assert X.ctx is reduction_context(alg, chi, list(free) + rest)
    assert E.units == alg.even_units
    assert sorted(L.units) == sorted(alg.diag_units + [
        u for r in levi for u in (rs.e_unit(r), rs.f_unit(r))])
    assert Z.units == G.units == K.units == alg.units


class TestContextCache:
    def test_equal_character_shares_context(self):
        alg = build_algebra(2, 1, make_field(5))
        a = reduction_context(alg, Character(alg, {(1, 1): 2, (2, 1): 1}))
        b = reduction_context(alg, Character(alg, {(2, 1): 1, (1, 1): 2}))
        assert a is b
        # an explicit canonical order is the default order
        assert reduction_context(alg, Character(alg, {(1, 1): 2, (2, 1): 1}),
                                 alg.root_system().positive) is a

    def test_distinct_chi_order_or_algebra(self):
        alg = build_algebra(2, 1, make_field(5))
        rs = alg.root_system()
        chi = Character(alg, {(1, 1): 2})
        base = reduction_context(alg, chi)
        assert reduction_context(alg, Character(alg, {(1, 1): 3})) is not base
        assert reduction_context(alg, Character(alg, {})) is not base
        other_order = rs.positive_odd + rs.positive_even
        assert reduction_context(alg, chi, other_order) is not base
        assert reduction_context(alg, chi, other_order).f_order == other_order
        alg2 = build_algebra(2, 1, make_field(5))
        ctx2 = reduction_context(alg2, Character(alg2, {(1, 1): 2}))
        assert ctx2 is not base and ctx2.algebra is alg2

    def test_graded_scan_builds_two_contexts(self, monkeypatch):
        # even-part and graded Vermas straighten in two f orders; in gl(2|1)
        # the even-part order (even roots first) is the canonical one, and
        # the scan needs one context per order, not one per weight
        built = []
        real_init = ReductionContext.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(ReductionContext, "__init__", counting_init)
        alg = build_algebra(2, 1, make_field(5))
        chi = Character(alg, {})
        _, _, weights = weight_variety(alg, chi)
        cols = cli._run_scan(alg, chi, weights[:6], graded=True, semisimple=True)
        assert all(len(col) == 6 for col in cols.values())
        assert len(built) == 2
        rs = built[0].rs
        assert sorted(tuple(r.key for r in c.f_order) for c in built) == \
            sorted([tuple(r.key for r in rs.positive),
                    tuple(r.key for r in rs.positive_odd + rs.positive_even)])


def test_second_build_reuses_the_coefficient_matrix():
    # a new algebra has no context yet, so its first build makes the plan
    m, n, chi = SETTINGS["gl21-F5^5-diag"]
    alg = build_algebra(m, n, make_field(5))
    alg, chi, weights = weight_variety(alg, Character(alg, chi))
    line = next(verma.weight_lines(alg, chi, weights[:1]))
    first = verma.induce(alg, chi, alg.root_system().positive, line)
    ctx = first.ctx
    plan = ctx._plans[ctx.nf]
    coef = plan[3]
    with mock.patch.object(verma, "multiply",
                           side_effect=AssertionError("straightened again")):
        second = verma.induce(alg, chi, alg.root_system().positive, line)
    assert ctx._plans[ctx.nf] is plan and plan[3] is coef
    assert np.array_equal(stacked_action(second), stacked_action(first))


PLAN_SETTINGS = [(1, 1, {}), (1, 1, {(1, 1): 1}), (2, 1, {}), (2, 1, {(2, 1): 1}),
                 (2, 1, {(1, 1): 1, (2, 2): 1, (3, 3): 1}), (2, 2, {}),
                 (2, 2, {(2, 1): 1, (4, 3): 1}), (3, 1, {}), (3, 1, {(2, 1): 1})]


def plan_root_sets(alg, chi):
    """The free roots of each build in alg at chi: baby, even and graded
    Vermas; for a standard Levi chi the Levi Verma of levi_scans; where
    levi_data applies the Kac-Weisfeiler module and the Levi Verma of
    kw_verify."""
    rs = alg.root_system()
    sets = {"baby": rs.positive, "even": rs.positive_even, "graded": rs.positive_odd}
    cc = classify_character(rs, chi)
    if cc.standard_levi:
        levi = {r.key for r in cc.levi_set}
        sets["levi"] = [r for r in rs.positive
                        if all((k, k + 1) in levi for k in range(r.i, r.j))]
    try:
        phi = kw.levi_data(rs, chi).phi_prime
    except GlmnError:
        return sets
    keys = {r.key for r in phi}
    sets.update({"kw": phi, "kw-levi": [r for r in rs.positive if r.key not in keys]})
    return sets


@pytest.mark.parametrize("m,n,chi", PLAN_SETTINGS,
                         ids=lambda v: str(v).replace(" ", ""))
def test_derived_plan_equals_the_pbw_products(m, n, chi):
    alg, chi, _ = weight_variety(build_algebra(m, n, make_field(5)),
                                 Character(build_algebra(m, n, make_field(5)), chi))
    rs = alg.root_system()
    sets = plan_root_sets(alg, chi)
    assert {"baby", "even", "graded"} <= set(sets)
    for name, roots in sets.items():
        keys = {r.key for r in roots}
        order = list(roots) + [r for r in rs.positive if r.key not in keys]
        # a context outside the cache, so both plans are made here
        ctx = ReductionContext(alg, chi, order)
        got = verma._induction_plan(ctx, len(roots))
        want = pbw_plan(ReductionContext(alg, chi, order), len(roots))
        assert got[0] == want[0] and got[2] == want[2], name
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[3], want[3]), name
