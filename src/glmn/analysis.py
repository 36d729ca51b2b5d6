"""Brute-force module oracles.

Everything here works on explicit action matrices: spinning vectors into
graded submodules, testing graded simplicity through maximal vectors,
peeling simple heads, composition series, regular modules of nilpotent
subalgebras, joint-kernel trivial submodules and the Frobenius form.

Generating candidates come from two sources.  Modules with a full Cartan
action use weight-space maximal vectors.  Modules over a nilpotent
subalgebra of strictly upper or lower triangular units have a single
one-dimensional simple module, on which a unit x acts by the scalar
chi(x); its isotypic socle (the joint kernel of the shifted actions)
plays the role of the maximal-vector space.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from .enveloping import PBWElement, multiply, reduction_context
from .errors import (BudgetExceeded, NoMaximalVector, NotClosed,
                     ShiftInconsistent, ZeroVector)
from .linalg import Matrix, Subspace, kernel_arr, matmul, row_reduce
from .verma import ModuleRep, maximal_vectors

LINE_BUDGET = 10 ** 4


class GradedSubmodule:
    """A submodule split into its even and odd parts."""

    __slots__ = ("module", "even_part", "odd_part")

    def __init__(self, module, even_part=None, odd_part=None):
        f = module.field
        n = module.dim
        self.module = module
        self.even_part = even_part if even_part is not None else Subspace(f, n)
        self.odd_part = odd_part if odd_part is not None else Subspace(f, n)

    @property
    def dim(self):
        return self.even_part.dim + self.odd_part.dim

    def total(self):
        return self.even_part.add(self.odd_part)

    def contains(self, vec):
        return self.total().contains(vec)

    def basis_rows(self):
        return np.vstack([self.even_part.basis, self.odd_part.basis])

    def union(self, other):
        return GradedSubmodule(self.module,
                               self.even_part.add(other.even_part),
                               self.odd_part.add(other.odd_part))

    def add_rows(self, rows):
        """Smallest graded space containing self and homogeneous rows."""
        M = self.module
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, M.dim)
        nonzero = rows != 0
        odd = (nonzero & (M.parity == 1)).any(axis=1)
        even = (nonzero & (M.parity == 0)).any(axis=1)
        assert not (odd & even).any(), "rows must be parity homogeneous"
        ev, od = self.even_part, self.odd_part
        if even.any():
            ev = ev.add_vectors(rows[even])
        if odd.any():
            od = od.add_vectors(rows[odd])
        return GradedSubmodule(M, ev, od)

    def is_action_closed(self):
        tot = self.total()
        return not np.any(tot.reduce(_unit_images(self.module, tot.basis)))

    def __repr__(self):
        return (f"GradedSubmodule(even={self.even_part.dim}, "
                f"odd={self.odd_part.dim} of dim {self.module.dim})")


def _homogeneous_components(M, w):
    comps = []
    for par in (0, 1):
        c = np.where(M.parity == par, w, 0)
        if c.any():
            comps.append(c)
    return comps


def _stacked_action(M):
    """The action matrices of M's units stacked into one (U * dim, dim) array."""
    if not M.units:
        return np.zeros((0, M.dim), dtype=np.int64)
    return np.vstack([M.matrix(u).data for u in M.units])


def _unit_images(M, rows, stacked=None):
    """The images u.v of every row v under every unit u, as rows.

    One product with the stacked action; the images of a row under all
    units come out consecutively.
    """
    if stacked is None:
        stacked = _stacked_action(M)
    return matmul(M.field, rows, stacked.T).reshape(-1, M.dim)


def _added_rows(old, new):
    """The basis rows of new whose pivots are not pivots of old."""
    known = set(old.pivots)
    return new.basis[[t for t, c in enumerate(new.pivots) if c not in known]]


def spin(M, w):
    """Smallest graded submodule containing w.

    w is split into its homogeneous components, and their span is grown in
    rounds.  Each round maps the basis rows the previous round added
    through every unit in one product and inserts all the images in one
    block.  The added rows are the grown basis rows whose pivots are new:
    they vanish at every old pivot, so with the old space they span the
    new one.  Spinning stops when a round adds nothing or the submodule is
    the whole module.
    """
    w = np.asarray(w, dtype=np.int64)
    if not w.any():
        raise ZeroVector("cannot spin the zero vector")
    stacked = _stacked_action(M)
    sub = GradedSubmodule(M).add_rows(_homogeneous_components(M, w))
    added = sub.basis_rows()
    while len(added) and sub.dim < M.dim:
        grown = sub.add_rows(_unit_images(M, added, stacked))
        added = np.vstack([_added_rows(sub.even_part, grown.even_part),
                           _added_rows(sub.odd_part, grown.odd_part)])
        sub = grown
    return sub


def _shifted_scalars(M):
    """The scalar a_x = chi(x) by which each unit acts on the simple
    module of a nilpotent (strictly triangular) subalgebra.

    Raises ShiftInconsistent when chi does not vanish on brackets of the
    subalgebra, in which case no one-dimensional module exists.
    """
    alg = M.algebra
    f = M.field
    chi = M.chi
    for x in M.units:
        assert x[0] != x[1], "nilpotent subalgebra expected"
        for y in M.units:
            acc = 0
            for c, unit in alg.bracket_table[(x, y)]:
                acc = f.add(acc, f.mul(c, chi.value(unit)))
            if acc:
                raise ShiftInconsistent(
                    "chi does not vanish on the derived subalgebra; no "
                    "one-dimensional module to shift by")
    return {x: chi.value(x) for x in M.units}


def shifted_joint_kernel(M):
    """Joint kernel of x - a_x over the acting units (the socle of a
    module over a nilpotent subalgebra)."""
    f = M.field
    scalars = _shifted_scalars(M)
    blocks = []
    eye = np.eye(M.dim, dtype=np.int64)
    for u in M.units:
        blocks.append(f.sub(M.matrix(u).data, f.mul(scalars[u], eye)))
    stacked = np.vstack(blocks) if blocks else np.zeros((0, M.dim), dtype=np.int64)
    return Subspace(f, M.dim, kernel_arr(f, stacked))


def trivial_submodules(M):
    """Joint kernel of all action matrices."""
    return Subspace(M.field, M.dim, kernel_arr(M.field, _stacked_action(M)))


def _has_cartan(M):
    alg = M.algebra
    return all((i, i) in M.action for i in range(1, alg.d + 1))


def _candidate_spaces(M):
    """Spaces whose lines are the generating candidates of Lemma 2.4.

    Returns a list of (fingerprint, Subspace, parity).
    """
    if _has_cartan(M):
        return [(("weight",) + lam.key(), sub, par)
                for lam, sub, par in maximal_vectors(M)]
    ker = shifted_joint_kernel(M)
    scalars = tuple(int(v) for v in _shifted_scalars(M).values())
    out = []
    f = M.field
    for par in (0, 1):
        sel = np.eye(M.dim, dtype=np.int64)[M.parity == par]
        part = ker.intersect(Subspace(f, M.dim, sel))
        if part.dim:
            out.append((("shifted",) + scalars, part, par))
    return out


def _line_representatives(field, sub, line_budget, rng):
    """One vector per line of a Subspace, exhaustive when the projective
    count fits the budget, otherwise a seeded sample.

    Returns (list of vectors, probabilistic flag).
    """
    d = sub.dim
    q = field.q
    coeffs = []
    # a single line is never sampled
    sampled = d > 1 and (q ** d - 1) // (q - 1) > line_budget
    if not sampled:
        for lead in range(d):
            for tail in itertools.product(range(q), repeat=d - 1 - lead):
                coeffs.append((0,) * lead + (1,) + tail)
    else:
        for _ in range(64):
            c = [rng.randrange(q) for _ in range(d)]
            coeffs.append(c if any(c) else [1] + c[1:])
    coeffs = np.array(coeffs, dtype=np.int64).reshape(-1, d)
    return list(matmul(field, coeffs, sub.basis)), sampled


class SimplicityVerdict:
    """Outcome of the graded simplicity oracle."""

    __slots__ = ("simple", "witness", "witness_fingerprint", "witness_parity",
                 "probabilistic")

    def __init__(self, simple, witness=None, witness_fingerprint=None,
                 witness_parity=None, probabilistic=False):
        self.simple = simple
        self.witness = witness
        self.witness_fingerprint = witness_fingerprint
        self.witness_parity = witness_parity
        self.probabilistic = probabilistic

    def __bool__(self):
        return self.simple

    def __repr__(self):
        return (f"SimplicityVerdict(simple={self.simple}, "
                f"probabilistic={self.probabilistic})")


def is_simple(M, line_budget=LINE_BUDGET, seed=0):
    """Graded simplicity by spinning every maximal-vector line."""
    rng = random.Random(seed)
    spaces = _candidate_spaces(M)
    if not spaces:
        raise NoMaximalVector("module has no generating candidates")
    probabilistic = False
    for fingerprint, sub, par in spaces:
        reps, sampled = _line_representatives(M.field, sub, line_budget, rng)
        probabilistic = probabilistic or sampled
        for v in reps:
            if spin(M, v).dim < M.dim:
                return SimplicityVerdict(False, witness=v,
                                         witness_fingerprint=fingerprint,
                                         witness_parity=par,
                                         probabilistic=probabilistic)
    return SimplicityVerdict(True, probabilistic=probabilistic)


def quotient_module(M, sub):
    """The quotient of M by a graded submodule.

    Returns (Q, proj, lift): proj maps ambient vectors to quotient
    coordinates and lift is a linear section.
    """
    f = M.field
    total = sub.total()
    free = np.delete(np.arange(M.dim), total.pivots)

    def proj(vec):
        return total.reduce(vec)[..., free]

    def lift(vec):
        vec = np.asarray(vec, dtype=np.int64)
        out = np.zeros(vec.shape[:-1] + (M.dim,), dtype=np.int64)
        out[..., free] = vec
        return out

    # column free[t] of an action matrix is the image of lift(e_t); its
    # projection is column t of the quotient's matrix
    m, U = len(free), len(M.units)
    cols = _stacked_action(M)[:, free].reshape(U, M.dim, m)
    blocks = proj(cols.transpose(0, 2, 1).reshape(U * m, M.dim)).reshape(U, m, m)
    action = {u: Matrix(f, blocks[i].T) for i, u in enumerate(M.units)}
    Q = ModuleRep(M.algebra, M.chi, M.units, action, M.parity[free],
                  highest_vector=None)
    if M.highest_vector is not None:
        hv = proj(M.highest_vector)
        if hv.any():
            Q.highest_vector = hv
    if getattr(M, "lam", None) is not None:
        Q.lam = M.lam
    return Q, proj, lift


def restrict_module(M, sub):
    """M restricted to a graded submodule, with the embedding rows."""
    f = M.field
    space = Subspace(f, M.dim, sub.basis_rows())
    basis, d = space.basis, space.dim
    # coords raises unless every image lies in the submodule
    coeffs = space.coords(_unit_images(M, basis)).reshape(d, len(M.units), d)
    action = {u: Matrix(f, coeffs[:, i].T) for i, u in enumerate(M.units)}
    parity = M.parity[space.pivots]
    R = ModuleRep(M.algebra, M.chi, M.units, action, parity)
    return R, basis


def simple_head(M, line_budget=LINE_BUDGET, seed=0):
    """The unique simple quotient, with the submodule it quotients by.

    Iteratively collects spins of non-generating maximal vectors into a
    radical part R and quotients, until the quotient is simple.  Returns
    (R: GradedSubmodule of M, head: ModuleRep).
    """
    rng = random.Random(seed)
    R = GradedSubmodule(M)
    while True:
        Q, proj, lift = quotient_module(M, R)
        if Q.dim == 0:
            raise NoMaximalVector("module shrank to zero while peeling")
        grew = False
        for fingerprint, subspace, par in _candidate_spaces(Q):
            reps, _ = _line_representatives(Q.field, subspace, line_budget, rng)
            for v in reps:
                s = spin(Q, v)
                if s.dim < Q.dim:
                    bigger = R.add_rows(lift(s.basis_rows()))
                    if bigger.dim > R.dim:
                        # grow one proper spin at a time: the quotient and
                        # the lift become stale as soon as R changes
                        R = bigger
                        grew = True
                        break
            if grew:
                break
        if not grew:
            return R, Q


class CompositionSeries:
    """Descending chain of graded submodules with simple quotients."""

    __slots__ = ("chain", "factors")

    def __init__(self, chain, factors):
        self.chain = chain
        self.factors = factors

    @property
    def length(self):
        return len(self.factors)

    def __repr__(self):
        return f"CompositionSeries(factors={self.factors})"


def composition_series(M, line_budget=LINE_BUDGET, seed=0):
    """Peel simple heads until nothing is left.

    factors records (dim, fingerprint) per simple factor, top first;
    chain records the corresponding graded submodules of M, descending.
    """
    chain = []
    factors = []
    current = M
    # rows of the current module's basis expressed in M's coordinates
    embed = np.eye(M.dim, dtype=np.int64)
    while current.dim:
        R, head = simple_head(current, line_budget, seed)
        fps = sorted({fp for fp, _, _ in _candidate_spaces(head)})
        factors.append((head.dim, tuple(fps)))
        rows_local = R.basis_rows()
        if R.dim == 0:
            chain.append(GradedSubmodule(M))
            break
        rows_global = matmul(M.field, rows_local, embed)
        sub_global = GradedSubmodule(M).add_rows(rows_global)
        chain.append(sub_global)
        current, basis_local = restrict_module(current, R)
        embed = matmul(M.field, basis_local, embed)
    return CompositionSeries(chain, factors)


def _sub_positions(ctx, sub_units):
    pos = []
    for u in sub_units:
        if tuple(u) not in ctx.unit_to_pos:
            raise NotClosed(f"{u} is not a basis matrix unit")
        pos.append(ctx.unit_to_pos[tuple(u)])
    return pos


def _check_closed(algebra, sub_units):
    have = {tuple(u) for u in sub_units}
    for x in have:
        for y in have:
            for c, unit in algebra.bracket_table[(x, y)]:
                if c and unit not in have:
                    raise NotClosed(f"[{x}, {y}] leaves the span (unit {unit})")


def sub_enveloping_basis(algebra, chi, sub_units):
    """PBW monomial basis of u(sub, chi) inside the big context."""
    ctx = reduction_context(algebra, chi)
    positions = _sub_positions(ctx, sub_units)
    ranges = []
    for pos in range(ctx.ngens):
        ranges.append(range(ctx.caps[pos]) if pos in positions else range(1))
    monos = [tuple(t) for t in itertools.product(*ranges)]
    return ctx, positions, monos


def regular_module(algebra, sub_units, chi, side="left"):
    """Left or right regular module of u(sub, chi) on its PBW basis."""
    _check_closed(algebra, sub_units)
    ctx, positions, monos = sub_enveloping_basis(algebra, chi, sub_units)
    f = ctx.field
    index = {m: t for t, m in enumerate(monos)}
    dim = len(monos)
    gens = {tuple(u): PBWElement.generator(ctx, u) for u in sub_units}
    action = {}
    for u in sub_units:
        u = tuple(u)
        mat = np.zeros((dim, dim), dtype=np.int64)
        for m, t in index.items():
            b = PBWElement(ctx, {m: 1})
            prod = multiply(ctx, gens[u], b) if side == "left" \
                else multiply(ctx, b, gens[u])
            for exps, c in prod.terms.items():
                assert exps in index, "product left the subalgebra"
                mat[index[exps], t] = f.add(int(mat[index[exps], t]), c)
        action[u] = Matrix(f, mat)
    parity = np.array([ctx.mono_parity(m) for m in monos], dtype=np.int64)
    M = ModuleRep(algebra, chi, [tuple(u) for u in sub_units], action, parity,
                  labels=monos)
    M.ctx = ctx
    return M


def frobenius_gram(algebra, sub_units, chi, dim_budget=4096):
    """Gram matrix of the top-coefficient form on u(sub, chi).

    The form sends (a, b) to the coefficient of the monomial with all
    exponents maximal in a*b.  Returns (Matrix, nondegenerate flag).
    """
    _check_closed(algebra, sub_units)
    ctx, positions, monos = sub_enveloping_basis(algebra, chi, sub_units)
    f = ctx.field
    dim = len(monos)
    if dim > dim_budget:
        raise BudgetExceeded(f"dim u(sub) = {dim} > {dim_budget}")
    top = tuple(ctx.caps[pos] - 1 if pos in positions else 0
                for pos in range(ctx.ngens))
    gram = np.zeros((dim, dim), dtype=np.int64)
    elts = [PBWElement(ctx, {m: 1}) for m in monos]
    for a in range(dim):
        for b in range(dim):
            prod = multiply(ctx, elts[a], elts[b])
            gram[a, b] = prod.terms.get(top, 0)
    G = Matrix(f, gram)
    _, rank = row_reduce(G)
    return G, rank == dim
