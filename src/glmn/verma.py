"""Baby Verma modules and their graded relatives as explicit matrices.

Every module here is a ModuleRep: one (U, dim, dim) array of action
matrices, a parity per basis vector, and the character chi.  Every
induced module comes from one entry point, induce(algebra, chi,
free_roots, inner): u(g, chi) tensored with a ModuleRep inner over the
subalgebra of inner's units and the root vectors outside f_alpha, alpha in
free_roots.  The free monomials times inner's basis form the basis.  The
baby Verma Z^chi(lambda) and the Levi Vermas, the even-part Verma among
them, induce from the weight line of lambda, and the graded baby Verma
Z^chi(M) from a g_0bar-module M; kw_verify induces the same way.

The straightening does not depend on the inner module.  Each shared
ReductionContext keeps an induction plan per number of free roots: for
every unit u and free monomial m, the terms c * m' * t of u * m in normal
form, with m' a free monomial and t the remaining tail, each column
derived from a shorter monomial's, gathered into a coefficient matrix
with one row per (u, m', m) block that some term reaches and one column
per distinct tail.  A layout per inner dimension, inner parity and acting
units holds the basis parity, labels, block positions and the plan rows of
those units.  The builders (build_baby_vermas, build_graded_vermas, ...)
yield stacks of modules of one layout (_induced_stacks): one _plan_blocks
multiplies each tail out on the stack's inner modules once and forms
every block in one product, and build_induced places each module once,
over the units it acts by.  axioms_hold checks the g_0bar-module axioms
of a stack of modules in a few batched products.

Every module built here has diagonal Cartan matrices, so its weight spaces
are coordinate blocks: maximal vectors are one kernel of the e-actions,
split by the (parity, weight) at each basis row's pivot, with no
eigenvalues to solve for.
"""

from __future__ import annotations

import collections
import itertools
import math

import numpy as np

from .algebra import Weight, weights_in_variety
from .enveloping import PBWElement, multiply, reduction_context
from .errors import (ChiNotBorelCompatible, IntertwinerCheckFailed,
                     LambdaNotInX, NonScalarResult, NotG0Module, NotMaximal,
                     NotWeightBasis, ZeroVector)
from .ffield import FieldElement
from .linalg import (Matrix, _matmul, kernel, matmul, matrix_power, matvec,
                     row_reduce)


# Entries of one stack of matrices or one product of them: the axiom checks
# go in chunks that stay below it (_slices: one unit per product in a large
# module), and a stacked build or spin (_stacks) takes as many modules at
# once as keep their actions, or spin factors, below it.  It is this low so
# that a scan's peak memory stays near that of one module at a time.
STACK_ENTRIES = 1 << 15


class ModuleRep:
    """A finite-dimensional u(g, chi)-module given by action matrices.

    The action is one (U, dim, dim) index array, actions, whose slice t is
    the matrix of units[t].  The action is read-only once the module is built.
    """

    def __init__(self, algebra, chi, units, actions, parity, labels=None,
                 highest_vector=None, lam=None, ctx=None):
        """actions is the (U, dim, dim) array, in the order of units.  lam
        is the highest weight, and ctx the ReductionContext whose f order
        the labels' monomials follow, where either is known."""
        self.algebra = algebra
        self.field = algebra.field
        self.chi = chi
        self.units = [tuple(u) for u in units]
        self.parity = np.asarray(parity, dtype=np.int64)
        self.dim = len(self.parity)
        U, n = len(self.units), self.dim
        # a view: freezing it leaves the caller's array writeable
        self.actions = np.ascontiguousarray(actions, dtype=np.int64).reshape(U, n, n)
        self.actions.flags.writeable = False
        self._index = {u: t for t, u in enumerate(self.units)}
        self.labels = labels
        if highest_vector is not None:
            highest_vector = np.asarray(highest_vector, dtype=np.int64)
        self.highest_vector = highest_vector
        self.lam = lam
        self.ctx = ctx

    def matrix(self, unit):
        return self.actions[self._index[tuple(unit)]]

    def matrices(self, units):
        """The matrices of the given units, in that order, as one
        (len(units), dim, dim) array."""
        return self.actions[[self._index[tuple(u)] for u in units]]

    def act(self, unit, vec):
        return matvec(self.field, self.matrix(unit), vec)

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
        """Parity blocks, bracket compatibility and chi-reduction."""
        return bool(axioms_hold([self])[0])

    def __repr__(self):
        return f"ModuleRep(dim={self.dim} over {self.algebra!r})"


def axioms_hold(modules):
    """verify_axioms for modules that share algebra, chi, units and parity,
    one bool each.  Each check reads the (B, U, dim, dim) stack of their
    actions, with the field, units and parity of the first, M."""
    M = modules[0]
    assert all(N.chi.values == M.chi.values and N.units == M.units
               and np.array_equal(N.parity, M.parity) for N in modules)
    actions = np.stack([N.actions for N in modules])
    return (_parity_blocks_hold(M, actions) & _brackets_hold(M, actions)
            & _pth_powers_hold(M, actions))


def _parity_blocks_hold(M, actions):
    """A unit of parity s maps parity t to parity t + s."""
    odd = _axiom_table(M.algebra, tuple(M.units))[0]
    shift = (M.parity[:, None] - M.parity[None, :]) % 2
    return ~actions[:, shift != odd[:, None, None]].any(axis=1)


def _brackets_hold(M, actions):
    """The supercommutator of every two units acts as their bracket.

    The left units x go in chunks C, as many as keep every product of the
    B modules below STACK_ENTRIES entries (one unit at least).  One batched
    product of C's units, stacked, with all units side by side gives x y
    for x in C and every y, and one of all units, stacked, with C's side by
    side gives y x; when C holds every unit, the first product already
    holds y x.  The expected brackets are C's block of the (U, U, U)
    bracket coefficients of _axiom_table times every module's flattened
    units, one more product: a stack of small modules takes two products.
    """
    f = M.field
    odd, coef, _, _ = _axiom_table(M.algebra, tuple(M.units))
    B, U, n, _ = actions.shape
    if coef is None:
        return np.zeros(B, dtype=bool)
    stacked = actions.reshape(B, U * n, n)
    side_by_side = actions.transpose(0, 2, 1, 3).reshape(B, n, U * n)
    flat = actions.transpose(1, 0, 2, 3).reshape(U, B * n * n)
    ok = np.ones(B, dtype=bool)
    for C in _slices(U, B * U * n * n):
        c = C.stop - C.start
        rows = slice(C.start * n, C.stop * n)
        xy = _matmul(f, stacked[:, rows], side_by_side)
        yx = xy if c == U else _matmul(f, stacked, side_by_side[:, :, rows])
        # [m, a, b] holds x_a x_b and x_b x_a of module m, a in C, b any
        xy = xy.reshape(B, c, n, U, n).transpose(0, 1, 3, 2, 4)
        yx = np.ascontiguousarray(yx.reshape(B, U, n, c, n).transpose(0, 3, 1, 2, 4))
        # two odd units anticommute: [x, y] = x y + y x
        both = odd[C, None] & odd[None, :]
        yx[:, both] = f.neg(yx[:, both])
        expect = matmul(f, coef[C].reshape(c * U, U), flat)
        ok &= (f.sub(xy, yx) == expect.reshape(c, U, B, n, n).transpose(2, 0, 1, 3, 4)
               ).reshape(B, -1).all(axis=1)
    return ok


def _pth_powers_hold(M, actions):
    """x^p - x^[p] acts as chi(x)^p for every even unit x.

    The (module, even unit) pairs go in chunks whose stack of matrices stays
    below STACK_ENTRIES entries, each raised to the p-th power in one
    batched matrix_power.  x^[p] is x for a Cartan unit and 0 otherwise.
    """
    f = M.field
    _, _, even, cartan = _axiom_table(M.algebra, tuple(M.units))
    B, _, n, _ = actions.shape
    scal = f.power(np.array([M.chi.value(u) for u in M.units], dtype=np.int64), f.p)
    good = np.ones(B * len(even), dtype=bool)
    for C in _slices(len(good), n * n):
        pair = np.arange(C.start, C.stop)
        t = even[pair % len(even)]
        mats = actions[pair // len(even), t]
        # chi(x)^p times the identity: its index on the diagonal, 0 off it
        expect = f.add(np.where(cartan[t, None, None], mats, 0),
                       scal[t, None, None] * np.eye(n, dtype=np.int64))
        good[pair] = (matrix_power(f, mats, f.p) == expect).reshape(len(pair), -1).all(axis=1)
    return good.reshape(B, len(even)).all(axis=1)


def _axiom_table(algebra, units):
    """ModuleRep's axiom tables for the tuple units, kept in algebra._axiom_tables:
    the odd mask, the (U, U, U) array whose [a, b, c] is the coefficient of
    units[c] in [units[a], units[b]] (None when a bracket leaves the units),
    the even indices and the Cartan mask."""
    if units not in algebra._axiom_tables:
        odd = np.array([algebra.parity(*u) for u in units], dtype=bool)
        index = {u: t for t, u in enumerate(units)}
        # the units of one bracket are distinct, their coefficients nonzero
        terms = [(a, b, index.get(unit), c) for a, x in enumerate(units)
                 for b, y in enumerate(units) for c, unit in algebra.bracket_table[x, y]]
        coef = None
        if all(t is not None for _, _, t, _ in terms):
            coef = np.zeros((len(units),) * 3, dtype=np.int64)
            for a, b, t, c in terms:
                coef[a, b, t] = c
        algebra._axiom_tables[units] = (odd, coef, np.flatnonzero(~odd),
                                        np.array([i == j for i, j in units]))
    return algebra._axiom_tables[units]


# The values f(lambda), f0, f1 at one weight.
SimplicityPolynomials = collections.namedtuple("SimplicityPolynomials", "f_formula f0 f1")


def _check_borel(chi):
    for (i, j) in chi.values:
        if i < j:
            raise ChiNotBorelCompatible(f"chi(E({i},{j})) must vanish")


def _induction_plan(ctx, nfree):
    """The inner-module-free part of build_induced, straightened once.

    Every term of u * (column monomial) in normal form is c * (row
    monomial) * (tail), the tail covering positions nfree onwards.  Returns
    (free monomials, slots, tails, coef): slots is a (G, 3) array of the
    (unit, row monomial, column monomial) triples that some term reaches,
    sorted, tails lists the distinct tails, sorted, and coef is the (G,
    len(tails)) array of field indices whose entry [g, s] is the coefficient
    of the term with slot g and tail s.  Units are given by their index in
    algebra.units and monomials by their index in the free monomial list.

    u * 1 is the generator u.  A longer monomial is m = f_i m', i its first
    position with a nonzero exponent, and u f_i m' = (-1)^{|u||f_i|} f_i (u
    m') + [u, f_i] m'.  A term n t of u m' (n free, t its tail) gives (f_i
    n) t, where f_i n is straightened once per (i, n) and is a sum of free
    monomials, since the free roots are closed under the bracket; [u, f_i]
    m' is read off the columns of m' already built.
    """
    plan = ctx._plans.get(nfree)
    if plan is not None:
        return plan
    f, alg = ctx.field, ctx.algebra
    frees = ctx.units[:nfree]
    assert not alg.bracket_escape(frees, frees, set(frees)), "free roots not closed"
    free_monos = [tuple(t) for t in
                  itertools.product(*[range(c) for c in ctx.caps[:nfree]])]
    index = {m: t for t, m in enumerate(free_monos)}
    units, rest = alg.units, ctx.zero_exps[nfree:]
    unit_index = {u: t for t, u in enumerate(units)}
    add, mul, f_times = f.add, f.mul, {}  # f_times[i, n]: the terms of f_i n
    # cols[m][u]: {(row monomial, tail): coefficient} of u * m
    cols = [[{(index[e[:nfree]], e[nfree:]): 1} for e in
             (tuple(int(t == ctx.unit_to_pos[u]) for t in range(ctx.ngens)) for u in units)]]
    for m in free_monos[1:]:
        i = next(i for i, e in enumerate(m) if e)
        prev = cols[index[m[:i] + (m[i] - 1,) + m[i + 1:]]]
        col = []
        for u, terms in zip(units, prev):
            acc, odd = {}, alg.parity(*u) and ctx.parities[i]
            for (n, t), c in terms.items():
                if (i, n) not in f_times:
                    e = free_monos[n]
                    # f_i n is a monomial when no generator of n precedes f_i
                    prod = ({e[:i] + (e[i] + 1,) + e[i + 1:] + rest: 1}
                            if not any(e[:i]) and e[i] + 1 < ctx.caps[i] else
                            multiply(ctx, PBWElement.generator(ctx, frees[i]),
                                     PBWElement(ctx, {e + rest: 1})).terms)
                    f_times[i, n] = [(index[e[:nfree]], c2) for e, c2 in prod.items()]
                c = f.neg(c) if odd else c
                for n2, c2 in f_times[i, n]:
                    acc[n2, t] = add(acc[n2, t], mul(c, c2)) if (n2, t) in acc else mul(c, c2)
            for cw, w in alg.bracket_table[(u, frees[i])]:
                for key, c in prev[unit_index[w]].items():
                    acc[key] = add(acc[key], mul(cw, c)) if key in acc else mul(cw, c)
            col.append({key: c for key, c in acc.items() if c})
        cols.append(col)
    terms = sorted((ui, n, col, t, c) for col, units_terms in enumerate(cols)
                   for ui, d in enumerate(units_terms) for (n, t), c in d.items())
    slots = sorted({term[:3] for term in terms})
    tails = sorted({term[3] for term in terms})
    slot_index, tail_index = {g: t for t, g in enumerate(slots)}, {s: t for t, s in enumerate(tails)}
    coef = np.zeros((len(slots), len(tails)), dtype=np.int64)
    for ui, n, col, t, c in terms:
        coef[slot_index[ui, n, col], tail_index[t]] = c
    slots = np.array(slots, dtype=np.int64).reshape(-1, 3)
    plan = ctx._plans[nfree] = (free_monos, slots, tails, coef)
    return plan


def _tail_matrix(field, tail, start, inner_actions, shape):
    """A tail acting on a stack of inner modules, as a (B, d, d) array.

    tail[t] is the exponent of the generator at position start + t.  The
    product runs over positions in order, so the rightmost generator of the
    monomial acts first; it stops at the first factor that is zero on every
    module.
    """
    mat = None
    for pos, e in enumerate(tail, start=start):
        if not e:
            continue
        factor = inner_actions.get(pos)
        if factor is None:
            return np.zeros(shape, dtype=np.int64)
        for _ in range(e):
            mat = factor if mat is None else _matmul(field, mat, factor)
        if not mat.any():
            return mat
    return np.broadcast_to(np.eye(shape[-1], dtype=np.int64), shape) if mat is None else mat


Layout = collections.namedtuple(
    "Layout", "parity labels nfree d units scatter tails coef")


def _layout(ctx, nfree, d, inner_parity, units):
    """The Layout of modules induced from inner modules of dimension d and
    parity inner_parity over the first nfree roots of the f order, acting
    by the tuple units in that order, kept in ctx._layouts by (nfree, d,
    inner parity bytes, units): the read-only parity, the labels (free
    monomial, inner index) as a tuple, the flat indices of the plan blocks
    of units' slots in the (len(units), dim, dim) action, and the rows of
    the plan's coefficient matrix for those slots (coef) with the tails
    they reach (tails), so a build multiplies out only what the module acts
    by."""
    inner_parity = np.asarray(inner_parity, dtype=np.int64)
    key = (nfree, d, inner_parity.tobytes(), units)
    if key not in ctx._layouts:
        free_monos, slots, tails, coef = _induction_plan(ctx, nfree)
        parity = np.add.outer([ctx.mono_parity(m) for m in free_monos],
                              inner_parity).reshape(-1) % 2
        parity.flags.writeable = False
        dim, where = len(parity), np.full(len(ctx.algebra.units), -1)
        where[[ctx.algebra.units.index(u) for u in units]] = np.arange(len(units))
        g = np.flatnonzero(where[slots[:, 0]] >= 0)
        reached = np.flatnonzero(coef[g].any(axis=0))
        at = where[slots[g, 0]]
        # block g fills rows of monomial slots[g, 1], columns of slots[g, 2]
        rows, cols = (slots[g, 1:, None] * d + np.arange(d)).swapaxes(0, 1)
        scatter = (at[:, None, None] * dim + rows[:, :, None]) * dim + cols[:, None, :]
        ctx._layouts[key] = Layout(
            parity, tuple((m, w) for m in free_monos for w in range(d)), nfree, d, units,
            scatter.reshape(-1), [tails[t] for t in reached], coef[np.ix_(g, reached)])
    return ctx._layouts[key]


def _plan_blocks(ctx, layout, inner_actions, B):
    """The (B, G, d * d) plan blocks of B inner modules under layout, G its
    slots: inner_actions maps a generator position (at or past the free
    block) to the (B, d, d) stack of their matrices, with missing positions
    acting by zero.  One tail pass multiplies every tail of the layout out
    on the stacks, and one product of its (G, tails) coefficient matrix with
    the (tails, B * d * d) stack forms every block of every module."""
    f, d, tails = ctx.field, layout.d, layout.tails
    stack = [_tail_matrix(f, tail, layout.nfree, inner_actions, (B, d, d)) for tail in tails]
    blocks = matmul(f, layout.coef, np.reshape(stack, (len(tails), B * d * d)))
    return blocks.reshape(len(layout.coef), B, d * d).swapaxes(0, 1)


def build_induced(ctx, layout, blocks, inner_highest=None, lam=None):
    """The module of layout with the (G, inner dim^2) plan blocks blocks of
    one _plan_blocks, placed by one scatter over the layout's units.

    inner_highest, when given, is the inner module's highest vector in its
    own coordinates, and lam the result's highest weight.
    """
    dim, d = len(layout.parity), layout.d
    actions = np.zeros((len(layout.units), dim, dim), dtype=np.int64)
    actions.reshape(-1)[layout.scatter] = blocks.reshape(-1)
    hv = np.zeros(dim, dtype=np.int64)
    hv[:d] = np.eye(1, d, dtype=np.int64)[0] if inner_highest is None else inner_highest
    return ModuleRep(ctx.algebra, ctx.chi, layout.units, actions, layout.parity,
                     labels=layout.labels, highest_vector=hv, lam=lam, ctx=ctx)


def induce(algebra, chi, free_roots, inner, units=None):
    """u(g, chi) tensored with the ModuleRep inner over the subalgebra
    spanned by every generator but f_alpha, alpha in free_roots.

    The f block is free_roots followed by the other positive roots in
    canonical order.  Each unit of inner acts through its matrix and every
    other generator past the free block by zero.  The result carries
    inner's highest weight and highest vector.  It acts by every unit of
    the algebra, or by units, in that order, where given.
    """
    return next(_induce_all(algebra, chi, free_roots, [inner], units))[0]


def _induce_all(algebra, chi, free_roots, inners, units=None):
    """induce for each of inners, an iterable of modules, yielding one list
    of modules per _induced_stacks stack: one stacked _plan_blocks of the
    stack's layout, then build_induced places each module once, over the
    acting units alone."""
    order = list(free_roots) + [r for r in algebra.root_system().positive
                                if r not in free_roots]
    ctx, nfree = reduction_context(algebra, chi, f_order=order), len(free_roots)
    units = tuple(map(tuple, algebra.units if units is None else units))
    for stack in _induced_stacks(algebra, free_roots, inners):
        layout = _layout(ctx, nfree, stack[0].dim, stack[0].parity, units)
        acting = {pos: np.stack([M.matrix(u) for M in stack])
                  for pos, u in enumerate(ctx.units) if u in stack[0]._index}
        # no name keeps built modules or plan blocks while the next stack builds
        yield [build_induced(ctx, layout, block, M.highest_vector, M.lam)
               for M, block in zip(stack, _plan_blocks(ctx, layout, acting, len(stack)))]


def _induced_stacks(algebra, free_roots, inners):
    """_stacks of inners by layout (dim, parity, units), at the entries of the
    actions induced from them over free_roots."""
    grow = math.prod(2 if r.parity else algebra.field.p for r in free_roots)
    return _stacks(inners, lambda M: (M.dim, M.parity.tobytes(), M.units),
                   lambda M: len(algebra.units) * (M.dim * grow) ** 2)


def _stacks(items, key, entries):
    """The iterable items, taken as needed, in lists of consecutive items of
    one key, as many as keep their entries, entries(item) each, within
    STACK_ENTRIES (one at least)."""
    for _, run in itertools.groupby(items, key):
        for first in run:
            size = max(1, STACK_ENTRIES // max(entries(first), 1))
            yield [first, *itertools.islice(run, size - 1)]


def _slices(n, entries):
    """range(n) in slices, cut as _stacks cuts n items of entries each."""
    size = max(1, STACK_ENTRIES // max(entries, 1))
    return [slice(s, min(s + size, n)) for s in range(0, n, size)]


def weight_lines(algebra, chi, lams):
    """The one-dimensional module of the Cartan units, E(i,i) acting by
    lambda(i), for each lambda of lams in order, once all of them are checked
    to lie in X^chi (LambdaNotInX names the first that does not)."""
    lams = list(lams)
    if lams and not (inside := weights_in_variety(algebra, chi, lams)).all():
        raise LambdaNotInX(f"{lams[int(np.argmin(inside))]!r} not in the weight variety of chi")
    return (ModuleRep(algebra, chi, algebra.diag_units, [[[c]] for c in lam.coords.tolist()],
                      [0], highest_vector=[1], lam=lam) for lam in lams)


def build_baby_verma(algebra, chi, lam):
    """Z^chi(lambda) on the basis of negative-root PBW monomials."""
    return next(build_baby_vermas(algebra, chi, [lam]))[0]


def build_baby_vermas(algebra, chi, lams):
    """build_baby_verma at each lambda of lams, in order: an iterator of
    stacks (lists, _induce_all), each built once the last is consumed."""
    _check_borel(chi)
    # e generators absent: they annihilate the highest line
    return _induce_all(algebra, chi, algebra.root_system().positive,
                       weight_lines(algebra, chi, lams))


def levi_parts(algebra, phi):
    """The positive roots outside phi, in order, and the units of their Levi
    l': h and those roots' e and f vectors, in the algebra's order."""
    rs = algebra.root_system()
    roots = [r for r in rs.positive if r not in phi]
    vectors = {u for r in roots for u in (rs.e_unit(r), rs.f_unit(r))}
    return roots, [u for u in algebra.units if u[0] == u[1] or u in vectors]


def build_levi_verma(algebra, chi, lam, phi):
    """The baby Verma of the Levi l' of the positive roots outside phi
    (levi_parts) at lambda, acting by the units of l' alone."""
    return next(build_levi_vermas(algebra, chi, [lam], phi))[0]


def build_levi_vermas(algebra, chi, lams, phi):
    """build_levi_verma at each lambda of lams, in stacks as build_baby_vermas."""
    roots, units = levi_parts(algebra, phi)
    return _induce_all(algebra, chi, roots, weight_lines(algebra, chi, lams), units=units)


def build_even_verma(algebra, chi, lam):
    """The g_0bar baby Verma: even-root monomials over the weight line,
    acting by the even units alone."""
    return next(build_even_vermas(algebra, chi, [lam]))[0]


def build_even_vermas(algebra, chi, lams):
    """build_even_verma at each lambda of lams: the Levi Vermas of g_0bar,
    whose roots are the even ones and whose units are algebra.even_units."""
    _check_borel(chi)
    return build_levi_vermas(algebra, chi, lams, algebra.root_system().positive_odd)


def build_simple_g0_module(algebra, chi, lam):
    """The simple u(g_0bar, chi)-module of highest weight lambda.

    Constructed as the simple head of the even-part baby Verma.
    """
    return build_simple_g0_modules(algebra, chi, [lam])[0]


def build_simple_g0_modules(algebra, chi, lams):
    """build_simple_g0_module at each lambda of lams: simple_heads by stack."""
    from .analysis import simple_heads
    return [head for heads in map(simple_heads, build_even_vermas(algebra, chi, lams))
            for _, head in heads]


def build_graded_verma(algebra, chi, M):
    """Z^chi(M) = u(g) tensor M over g_0bar + g_1, with g_1 M = 0."""
    return next(build_graded_vermas(algebra, chi, [M]))[0]


def build_graded_vermas(algebra, chi, Ms):
    """build_graded_verma at each M of Ms, in stacks as build_baby_vermas:
    one axioms_hold per stack of Z(M) of each layout (dim, parity, units) of
    M, all before any build (NotG0Module if one fails), then each run of Ms
    of one layout stacked alone; Ms sorted by layout make the fewest."""
    _check_borel(chi)
    # odd positive root vectors (g_1) are not units of M: they act by zero
    odd = algebra.root_system().positive_odd
    groups = {}
    for M in Ms:
        groups.setdefault((M.dim, M.parity.tobytes(), tuple(M.units)), []).append(M)
    if any(sorted(units) != sorted(algebra.even_units) or not all(
            axioms_hold(stack).all() for stack in _induced_stacks(algebra, odd, group))
           for (_, _, units), group in groups.items()):
        raise NotG0Module("M does not satisfy the g_0bar module axioms")
    return _induce_all(algebra, chi, odd, Ms)


def _top_coefficient(Z, roots):
    """The coefficient of v in e-word f-word v, each word running over
    roots in order with exponents cap - 1 (p - 1 even, 1 odd)."""
    rs, f, hv = Z.algebra.root_system(), Z.field, Z.highest_vector
    caps = [(2 if r.parity else f.p) - 1 for r in roots]
    w = Z.apply_word([(rs.f_unit(r), e) for r, e in zip(roots, caps)], hv)
    w = Z.apply_word([(rs.e_unit(r), e) for r, e in zip(roots, caps)], w)
    t = int(np.nonzero(hv)[0][0])
    c = f.mul(int(w[t]), f.inv(int(hv[t])))
    if (w != f.mul(c, hv)).any():
        raise NonScalarResult("image is not proportional to the highest vector")
    return FieldElement(f, c)


def f_direct(Z):
    """f(lambda) read off the action matrices of a baby Verma.

    Applies the full negative monomial, then the full positive monomial
    (both over the positive roots in ascending height order, exponents
    pbar - 1), to the highest vector and returns the coefficient of v.
    """
    return _top_coefficient(Z, Z.algebra.root_system().positive)


def f_formula(rs, lam):
    """The closed form of Thm 3.7 split into even and odd factors."""
    values = f_formulas(rs, lam.coords[None])
    return SimplicityPolynomials(*(FieldElement(rs.algebra.field, int(v[0])) for v in values))


def f_formulas(rs, coords):
    """f_formula at each row of coords, a (B, d) index array of weights, as
    index arrays (f, f0, f1) from field-array operations: f0 is the product
    of x^(p-1) - 1 over the even positive roots, f1 of x - 1 over the odd."""
    f = rs.algebra.field
    f0 = f1 = np.ones(len(coords), dtype=np.int64)
    for r in rs.positive:
        (i, j), sign = rs.e_unit(r), f.add if r.parity else f.sub
        x = sign(f.add(coords[:, i - 1], rs.rho_value(r)), coords[:, j - 1])
        if r.parity:
            f1 = f.mul(f1, f.sub(x, 1))
        else:
            f0 = f.mul(f0, f.sub(f.power(x, f.p - 1), 1))
    return f.mul(f0, f1), f0, f1


def f1_direct(Z):
    """Coefficient of v in e_1...e_l f_1...f_l v over the odd roots."""
    return _top_coefficient(Z, Z.algebra.root_system().positive_odd)


def cartan_diagonal(M):
    """The (d, dim) array whose column c holds the eigenvalues of the
    Cartan units E(1,1), ..., E(d,d) at basis vector c, or None when some
    Cartan matrix has an off-diagonal entry.  Every unit E(i,i) must act.
    Both are read from views of the action, which is not copied.
    """
    hmats = [M.matrix(u) for u in M.algebra.diag_units]
    diag = np.array([np.diagonal(h) for h in hmats])
    if sum(map(np.count_nonzero, hmats)) != np.count_nonzero(diag):
        return None
    return diag


def maximal_vectors(M, *, forms=False):
    """Weight lines annihilated by all positive root vectors, of M or, with
    forms, of its dual M*: the forms f with f A = 0 for each e-unit's A.

    Returns a list of (Weight, Subspace, parity) with the Subspace in the
    module's coordinates, one entry per occurring weight and parity, sorted
    by parity and then by the weight's indices.

    Every module built here acts by diagonal Cartan matrices, so its weight
    spaces and parity parts are coordinate blocks, M*'s too.  Each e-action
    maps a block into another, so the joint kernel of the e-actions is the
    sum of its intersections with the blocks: one kernel, split by the
    (parity, weight) read at each basis row's pivot, gives every piece.
    Raises NotWeightBasis when a Cartan matrix has an off-diagonal entry.
    """
    rs = M.algebra.root_system()
    e_units = [rs.e_unit(r) for r in rs.positive if rs.e_unit(r) in M.units]
    stacked = np.empty((len(e_units), M.dim, M.dim), dtype=np.int64)
    for t, u in enumerate(e_units):
        stacked[t] = M.matrix(u).T if forms else M.matrix(u)
    diag = cartan_diagonal(M)
    if diag is None:
        raise NotWeightBasis("a Cartan matrix is not diagonal in the module's basis")
    ker = kernel(M.field, stacked.reshape(len(e_units) * M.dim, M.dim))
    keys = list(zip(M.parity.tolist(), map(tuple, diag.T.tolist())))
    return [(Weight(M.field, vals), sub, par) for (par, vals), sub in ker.split(keys)]


def _pbw_layers(monos, last=False):
    """(one, layers): the position of 1 among the PBW monomials monos, and
    (i, ts, prevs) per (degree, i) in that order.  Each m_t of a layer is
    x_i m_prev, i its first nonzero position, or with last, m_prev x_i, i
    its last: its column (row) under an action is x_i's matrix times (after)
    that of m_prev, one product per layer, a degree after the one before."""
    index = {m: t for t, m in enumerate(monos)}
    steps = {}
    for m, t in index.items():
        if nonzero := [i for i, e in enumerate(m) if e]:
            i = nonzero[-1] if last else nonzero[0]
            steps.setdefault((sum(m), i), []).append((t, index[m[:i] + (m[i] - 1,) + m[i + 1:]]))
    one = index[(0,) * len(monos[0])]
    return one, [(i, *map(list, zip(*pairs))) for (_, i), pairs in sorted(steps.items())]


def induced_hom(source, target, u):
    """The u(g, chi)-homomorphism Z^chi(mu) -> target sending v to u.

    u must be a homogeneous maximal vector of weight mu = source.lam in
    the target.  Returns (Matrix, rank); the intertwining property is
    checked on every acting unit.
    """
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
    f_units = [rs.f_unit(r) for r in source.ctx.f_order]
    cols = np.zeros((target.dim, source.dim), dtype=np.int64)
    one, layers = _pbw_layers([mono for mono, _ in source.labels])
    cols[:, one] = u
    for i, ts, prevs in layers:
        cols[:, ts] = matmul(field, target.matrix(f_units[i]), cols[:, prevs])
    # the units in chunks whose products stay within STACK_ENTRIES entries,
    # all of them at once in a small module: two stacked products each
    for C in _slices(len(source.units), target.dim * source.dim):
        batch = source.units[C]
        lhs = _matmul(field, cols, source.matrices(batch))
        rhs = _matmul(field, target.matrices(batch), cols)
        if hom_parity:
            odd = np.array([alg.parity(*unit) for unit in batch], dtype=bool)
            rhs[odd] = field.neg(rhs[odd])
        bad = (lhs != rhs).reshape(len(batch), -1).any(axis=1)
        if bad.any():
            raise IntertwinerCheckFailed(f"map does not intertwine E{batch[bad.argmax()]}")
    T = Matrix(field, cols)
    _, rank = row_reduce(T)
    return T, rank
