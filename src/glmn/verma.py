"""Baby Verma modules and their graded relatives as explicit matrices.

Every module here is a ModuleRep: one action matrix per acting matrix
unit, a parity per basis vector, and the character chi.  Baby Vermas,
even-part Vermas and graded baby Vermas are all produced by one induced
construction: pick a set of "free" negative root vectors whose monomials
form the basis, and evaluate the straightened tail of each product on an
inner module (a one-dimensional weight line, or a g_0bar-module).

The straightening does not depend on the inner module.  Each shared
ReductionContext keeps an induction plan per number of free roots: for
every acting unit u and free monomial m, the terms c * m' * t of u * m in
normal form, with m' a free monomial and t the remaining tail.  Building a
module only multiplies out each distinct tail t on the inner module once
and adds c * t into the (m', m) block of u's matrix.
"""

from __future__ import annotations

import itertools

import numpy as np

from .algebra import Weight, weight_in_variety
from .enveloping import PBWElement, multiply, reduction_context
from .errors import (ChiNotBorelCompatible, EigenvaluesOutsideField,
                     IntertwinerCheckFailed, LambdaNotInX, NonScalarResult,
                     NotG0Module, NotMaximal, ZeroVector)
from .ffield import FieldElement
from .linalg import Matrix, Subspace, eigenspaces, kernel_arr, matmul, matvec


class ModuleRep:
    """A finite-dimensional u(g, chi)-module given by action matrices."""

    def __init__(self, algebra, chi, units, action, parity, labels=None,
                 highest_vector=None):
        self.algebra = algebra
        self.field = algebra.field
        self.chi = chi
        self.units = list(units)
        self.action = dict(action)
        self.parity = np.asarray(parity, dtype=np.int64)
        self.labels = labels
        if highest_vector is not None:
            highest_vector = np.asarray(highest_vector, dtype=np.int64)
        self.highest_vector = highest_vector
        self.dim = len(self.parity)

    def matrix(self, unit):
        return self.action[tuple(unit)]

    def act(self, unit, vec):
        return matvec(self.field, self.action[tuple(unit)].data, vec)

    def act_element(self, x, vec):
        """Action of a Matrix algebra element (a combination of units)."""
        f = self.field
        out = np.zeros(self.dim, dtype=np.int64)
        for (i, j) in self.units:
            c = int(x.data[i - 1, j - 1])
            if c:
                out = f.add(out, f.mul(c, self.act((i, j), vec)))
        return out

    def apply_word(self, word, vec):
        """Apply a product of units, written left to right, to a vector.

        word entries are (unit, exponent); the rightmost factor acts first.
        """
        for unit, exp in reversed(list(word)):
            for _ in range(exp):
                vec = self.act(unit, vec)
        return vec

    def basis_vector(self, t):
        v = np.zeros(self.dim, dtype=np.int64)
        v[t] = 1
        return v

    def verify_axioms(self):
        """Bracket compatibility, chi-reduction, and parity blocks."""
        alg = self.algebra
        f = self.field
        p = f.p
        # parity block structure: x of parity s maps parity t to t+s
        shift = self.parity[:, None] - self.parity[None, :]
        for u in self.units:
            if np.any(self.action[u].data[(shift - alg.parity(*u)) % 2 != 0]):
                return False
        for x in self.units:
            mx = self.action[x]
            for y in self.units:
                my = self.action[y]
                sign = -1 if alg.parity(*x) and alg.parity(*y) else 1
                comm = (mx @ my) + (my @ mx) if sign == -1 else (mx @ my) - (my @ mx)
                expect = Matrix.zeros(f, self.dim, self.dim)
                for c, unit in alg.bracket_table[(x, y)]:
                    if unit in self.action:
                        expect = expect + self.action[unit].scale(c)
                    elif c:
                        return False
                if comm != expect:
                    return False
        for x in self.units:
            if alg.parity(*x):
                continue
            i, j = x
            mp = self.action[x].power(p)
            expect = Matrix.zeros(f, self.dim, self.dim)
            if i == j:
                expect = self.action[x]
            scal = f.power(self.chi.value(x), p)
            if scal:
                expect = expect + Matrix.identity(f, self.dim).scale(scal)
            if mp != expect:
                return False
        return True

    def __repr__(self):
        return f"ModuleRep(dim={self.dim} over {self.algebra!r})"


class InducedModule(ModuleRep):
    """A module built by inducing along a free set of negative roots."""

    def __init__(self, ctx, **kw):
        super().__init__(ctx.algebra, ctx.chi, ctx.algebra.units, **kw)
        self.ctx = ctx


class BabyVerma(InducedModule):
    """Z^chi(lambda): induced from the weight line of a Borel."""

    def __init__(self, ctx, lam=None, **kw):
        super().__init__(ctx, **kw)
        self.lam = lam


class GradedBabyVerma(InducedModule):
    """Z^chi(M): induced from a g_0bar-module M with g_1 acting by zero."""

    def __init__(self, ctx, M=None, **kw):
        super().__init__(ctx, **kw)
        self.M = M
        self.lam = getattr(M, "lam", None)


class SimplicityPolynomials:
    """The values f(lambda), f0, f1 at one weight."""

    __slots__ = ("f_direct", "f_formula", "f0", "f1")

    def __init__(self, f_formula, f0, f1, f_direct=None):
        self.f_formula = f_formula
        self.f0 = f0
        self.f1 = f1
        self.f_direct = f_direct

    def __repr__(self):
        return (f"SimplicityPolynomials(f_direct={self.f_direct}, "
                f"f_formula={self.f_formula}, f0={self.f0}, f1={self.f1})")


def _check_borel(chi):
    for (i, j) in chi.values:
        if i < j:
            raise ChiNotBorelCompatible(f"chi(E({i},{j})) must vanish")


def _induction_plan(ctx, nfree):
    """The inner-module-free part of build_induced, straightened once.

    Returns (free monomials, entries), where entries[u] holds one tuple
    (column monomial, row monomial, tail exponents, coefficient) per term
    of u * (column monomial) in normal form: the term is coefficient *
    (row monomial) * (tail), the tail covering positions nfree onwards.
    Monomials are given by their index in the free monomial list.
    """
    plan = ctx._plans.get(nfree)
    if plan is not None:
        return plan
    free_monos = [tuple(t) for t in
                  itertools.product(*[range(c) for c in ctx.caps[:nfree]])]
    mono_index = {m: t for t, m in enumerate(free_monos)}
    rest = ctx.zero_exps[nfree:]
    entries = {}
    for u in ctx.algebra.units:
        gen = PBWElement.generator(ctx, u)
        terms = []
        for col, mono in enumerate(free_monos):
            prod = multiply(ctx, gen, PBWElement(ctx, {mono + rest: 1}))
            for exps, c in prod.terms.items():
                terms.append((col, mono_index[exps[:nfree]], exps[nfree:], c))
        entries[u] = tuple(terms)
    plan = ctx._plans[nfree] = (free_monos, entries)
    return plan


def build_induced(ctx, free_roots, inner_dim, inner_parity, inner_actions,
                  klass=InducedModule, inner_highest=None, **extra):
    """Induced module on the basis (free f-monomials) x (inner basis).

    free_roots must be a prefix of ctx.f_order.  inner_actions maps a
    generator position (at or past the free block) to an inner_dim x
    inner_dim index array, with missing positions acting by zero.
    inner_highest, when given, is the highest vector of the inner module
    in its own coordinates.
    """
    f = ctx.field
    nfree = len(free_roots)
    assert [r.key for r in ctx.f_order[:nfree]] == [r.key for r in free_roots]
    free_monos, entries = _induction_plan(ctx, nfree)
    dim = len(free_monos) * inner_dim
    parity = np.zeros(dim, dtype=np.int64)
    labels = []
    for t, mono in enumerate(free_monos):
        mp = sum(e for e, par in zip(mono, ctx.parities[:nfree]) if par) % 2
        for w in range(inner_dim):
            parity[t * inner_dim + w] = (mp + inner_parity[w]) % 2
            labels.append((mono, w))

    tails = {}

    def tail_matrix(tail):
        """The tail acting on the inner module, None when it acts by zero.

        The product runs over positions in order, so the rightmost
        generator of the monomial acts first.
        """
        if tail in tails:
            return tails[tail]
        mat = np.eye(inner_dim, dtype=np.int64)
        for pos, e in enumerate(tail, start=nfree):
            if not e:
                continue
            factor = inner_actions.get(pos)
            if factor is None:
                mat = None
                break
            for _ in range(e):
                mat = matmul(f, mat, factor)
            if not mat.any():
                mat = None
                break
        tails[tail] = mat
        return mat

    action = {}
    for u, terms in entries.items():
        mat = np.zeros((dim, dim), dtype=np.int64)
        for col, row, tail, c in terms:
            block = tail_matrix(tail)
            if block is None:
                continue
            rows = slice(row * inner_dim, (row + 1) * inner_dim)
            cols = slice(col * inner_dim, (col + 1) * inner_dim)
            mat[rows, cols] = f.add(mat[rows, cols], f.mul(c, block))
        action[u] = Matrix(f, mat)
    hv = np.zeros(dim, dtype=np.int64)
    if inner_highest is not None:
        hv[:inner_dim] = np.asarray(inner_highest, dtype=np.int64)
    else:
        hv[0] = 1
    return klass(ctx, action=action, parity=parity, labels=labels,
                 highest_vector=hv, **extra)


def build_baby_verma(algebra, chi, lam):
    """Z^chi(lambda) on the basis of negative-root PBW monomials."""
    _check_borel(chi)
    if not weight_in_variety(algebra, chi, lam):
        raise LambdaNotInX(f"{lam!r} not in the weight variety of chi")
    ctx = reduction_context(algebra, chi)
    nfree = ctx.nf
    inner = {}
    for i in range(algebra.d):
        inner[nfree + i] = np.array([[lam.value(i + 1)]], dtype=np.int64)
    # e generators absent: they annihilate the highest line
    Z = build_induced(ctx, ctx.f_order, 1, [0], inner, klass=BabyVerma, lam=lam)
    return Z


def build_even_verma(algebra, chi, lam):
    """The g_0bar baby Verma: even-root monomials over the weight line.

    Returned as a ModuleRep whose acting units are the even units only.
    """
    _check_borel(chi)
    rs = algebra.root_system()
    order = rs.positive_even + rs.positive_odd
    ctx = reduction_context(algebra, chi, f_order=order)
    inner = {}
    for i in range(algebra.d):
        inner[ctx.nf + i] = np.array([[lam.value(i + 1)]], dtype=np.int64)
    Z = build_induced(ctx, rs.positive_even, 1, [0], inner)
    action = {u: Z.action[u] for u in algebra.even_units}
    M = ModuleRep(algebra, chi, algebra.even_units, action, Z.parity,
                  labels=Z.labels, highest_vector=Z.highest_vector)
    M.lam = lam
    return M


def _is_g0_module(M):
    alg = M.algebra
    if sorted(M.units) != sorted(alg.even_units):
        return False
    return M.verify_axioms()


def build_simple_g0_module(algebra, chi, lam):
    """The simple u(g_0bar, chi)-module of highest weight lambda.

    Constructed as the simple head of the even-part baby Verma.
    """
    from .analysis import simple_head
    Z = build_even_verma(algebra, chi, lam)
    _, M = simple_head(Z)
    M.lam = lam
    return M


def build_graded_verma(algebra, chi, M):
    """Z^chi(M) = u(g) tensor M over g_0bar + g_1, with g_1 M = 0."""
    _check_borel(chi)
    if not _is_g0_module(M):
        raise NotG0Module("M does not satisfy the g_0bar module axioms")
    rs = algebra.root_system()
    order = rs.positive_odd + rs.positive_even
    ctx = reduction_context(algebra, chi, f_order=order)
    nfree = len(rs.positive_odd)
    inner = {}
    for t, r in enumerate(ctx.f_order):
        if t >= nfree:
            inner[t] = M.matrix(rs.f_unit(r)).data
    for i in range(algebra.d):
        inner[ctx.nf + i] = M.matrix((i + 1, i + 1)).data
    for t, r in enumerate(ctx.e_order):
        if r.parity == 0:
            inner[ctx.nf + ctx.nh + t] = M.matrix(rs.e_unit(r)).data
        # odd positive root vectors (g_1) act by zero on M
    inner_parity = list(M.parity)
    return build_induced(ctx, rs.positive_odd, M.dim, inner_parity, inner,
                         klass=GradedBabyVerma, M=M,
                         inner_highest=M.highest_vector)


def _scalar_at_highest(Z, result):
    hv = Z.highest_vector
    f = Z.field
    t = int(np.nonzero(hv)[0][0])
    c = f.mul(int(result[t]), f.inv(int(hv[t])))
    if (result != f.mul(c, hv)).any():
        raise NonScalarResult("image is not proportional to the highest vector")
    return FieldElement(f, c)


def f_direct(Z):
    """f(lambda) read off the action matrices of a baby Verma.

    Applies the full negative monomial, then the full positive monomial
    (both over the positive roots in ascending height order, exponents
    pbar - 1), to the highest vector and returns the coefficient of v.
    """
    rs = Z.algebra.root_system()
    p = Z.field.p
    v = Z.highest_vector
    fword = [(rs.f_unit(r), (2 if r.parity else p) - 1) for r in rs.positive]
    eword = [(rs.e_unit(r), (2 if r.parity else p) - 1) for r in rs.positive]
    w = Z.apply_word(fword, v)
    w = Z.apply_word(eword, w)
    return _scalar_at_highest(Z, w)


def f_formula(rs, lam):
    """The closed form of Thm 3.7 split into even and odd factors."""
    f = rs.algebra.field
    p = f.p
    f0 = 1
    for r in rs.positive_even:
        x = f.add(rs.weight_on_coroot(lam, r), rs.rho_value(r))
        f0 = f.mul(f0, f.sub(f.power(x, p - 1), 1))
    f1 = 1
    for r in rs.positive_odd:
        x = f.add(rs.weight_on_coroot(lam, r), rs.rho_value(r))
        f1 = f.mul(f1, f.sub(x, 1))
    return SimplicityPolynomials(
        f_formula=FieldElement(f, f.mul(f0, f1)),
        f0=FieldElement(f, f0),
        f1=FieldElement(f, f1))


def f1_direct(Z):
    """Coefficient of v in e_1...e_l f_1...f_l v over the odd roots."""
    rs = Z.algebra.root_system()
    v = Z.highest_vector
    fword = [(rs.f_unit(r), 1) for r in rs.positive_odd]
    eword = [(rs.e_unit(r), 1) for r in rs.positive_odd]
    w = Z.apply_word(fword, v)
    w = Z.apply_word(eword, w)
    return _scalar_at_highest(Z, w)


def _restrict_action(field, basis_sub, mat):
    """Matrix of mat on an invariant Subspace, in its canonical basis."""
    imgs = matmul(field, basis_sub.basis, np.asarray(mat).T)
    if np.any(basis_sub.reduce(imgs)):
        raise ValueError("vector not in subspace")
    return imgs[:, basis_sub.pivots].T


def _joint_eigen_split(field, mats, space):
    """Split an invariant Subspace into joint eigenspaces of commuting mats.

    Yields (eigenvalue tuple, Subspace).  Raises EigenvaluesOutsideField
    when some restriction is not split over the field.
    """
    pieces = [((), space)]
    for mat in mats:
        nxt = []
        for vals, sub in pieces:
            if sub.dim == 0:
                continue
            r = _restrict_action(field, sub, mat)
            pairs, complete = eigenspaces(field, r)
            if not complete:
                raise EigenvaluesOutsideField(
                    "Cartan eigenvalues lie outside the scalar field")
            for eig, ker in pairs:
                if ker.dim == 0:
                    continue
                nxt.append((vals + (eig,),
                            Subspace(field, space.ambient,
                                     matmul(field, ker.basis, sub.basis))))
        pieces = nxt
    return pieces


def maximal_vectors(M):
    """Weight lines annihilated by all positive root vectors.

    Returns a list of (Weight, Subspace, parity) with the Subspace in the
    module's coordinates, one entry per occurring weight and parity.
    """
    alg = M.algebra
    rs = alg.root_system()
    field = M.field
    have = set(M.units)
    e_units = [rs.e_unit(r) for r in rs.positive if rs.e_unit(r) in have]
    stacked = np.vstack([M.matrix(u).data for u in e_units]) if e_units \
        else np.zeros((0, M.dim), dtype=np.int64)
    ker = Subspace(field, M.dim, kernel_arr(field, stacked))
    out = []
    for par in (0, 1):
        sel = np.eye(M.dim, dtype=np.int64)[M.parity == par]
        part = ker.intersect(Subspace(field, M.dim, sel))
        if part.dim == 0:
            continue
        hmats = [M.matrix((i, i)).data for i in range(1, alg.d + 1)]
        for vals, sub in _joint_eigen_split(field, hmats, part):
            out.append((Weight(field, vals), sub, par))
    return out


def induced_hom(source, target, u):
    """The u(g, chi)-homomorphism Z^chi(mu) -> target sending v to u.

    u must be a homogeneous maximal vector of weight mu = source.lam in
    the target.  Returns (Matrix, rank); the intertwining property is
    checked on every acting unit.
    """
    from .linalg import row_reduce
    alg = source.algebra
    rs = alg.root_system()
    field = source.field
    u = np.asarray(u, dtype=np.int64)
    if not u.any():
        raise ZeroVector("u must be nonzero")
    pars = set(target.parity[u != 0])
    if len(pars) != 1:
        raise NotMaximal("u is not parity homogeneous")
    hom_parity = pars.pop()
    for r in rs.positive:
        if target.act(rs.e_unit(r), u).any():
            raise NotMaximal(f"e_{rs.e_unit(r)} does not annihilate u")
    for i in range(1, alg.d + 1):
        if (target.act((i, i), u) != field.mul(source.lam.value(i), u)).any():
            raise NotMaximal(f"u is not a weight vector of weight lambda at E({i},{i})")
    cols = np.zeros((target.dim, source.dim), dtype=np.int64)
    for t, (mono, _) in enumerate(source.labels):
        word = [(rs.f_unit(r), e) for r, e in zip(source.ctx.f_order, mono)]
        cols[:, t] = target.apply_word(word, u)
    T = Matrix(field, cols)
    for unit in source.units:
        lhs = T @ source.matrix(unit)
        rhs = target.matrix(unit) @ T
        if hom_parity and alg.parity(*unit):
            rhs = -rhs
        if lhs != rhs:
            raise IntertwinerCheckFailed(f"map does not intertwine E{unit}")
    _, rank = row_reduce(T)
    return T, rank
