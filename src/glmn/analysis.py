"""Module analysis on explicit action matrices.

Everything here works on explicit action matrices: spinning vectors into
graded submodules, graded simplicity, simple heads, composition series,
regular modules of nilpotent subalgebras, joint-kernel trivial submodules
and the Frobenius form.  A graded submodule is its canonical Subspace of
F^dim: spanned by parity-homogeneous rows, each basis row lies in the
parity part of its pivot, and Subspace.split(M.parity) gives the parts.

Simplicity and simple heads have one route, dual_core: a maximal graded
submodule R of M with M/R simple, the annihilator of a simple graded
submodule S of the dual module M* (dual_module, the transposed action).
S is the spin of a top coordinate form (the certificate, for modules
generated by a highest vector whose weight occurs at no other basis
vector), a line of M*'s socle (modules without Cartan units), or the end
of a descent through spins of candidate lines.  The descent is exhaustive
or refused: a candidate piece with more than LINE_BUDGET lines raises
BudgetExceeded, so no verdict rests on a sample.  dual_cores takes the R
of many modules at once, spinning their certificates in lockstep (_spins),
and simple_heads their quotients by those R.

The generating candidates come from two sources.  Modules with a full
Cartan action, diagonal in their basis, use weight-space maximal vectors.
Modules over a nilpotent subalgebra of strictly upper or lower triangular
units have a single one-dimensional simple module, on which a unit x acts
by the scalar chi(x); its isotypic socle (the joint kernel of the shifted
actions) plays the role of the maximal-vector space.  In both cases the
units that define the candidates act nilpotently, on M and on M*, so every
nonzero graded submodule contains a candidate line.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .enveloping import PBWElement, multiply, reduction_context
from .errors import (BudgetExceeded, NoMaximalVector, NotClosed,
                     ShiftInconsistent, ZeroVector)
from .linalg import (Matrix, Subspace, _first, _insert, _matmul, float_copy,
                     kernel, matmul, row_reduce)
from .verma import (STACK_ENTRIES, ModuleRep, _axiom_table, _pbw_layers,
                    cartan_diagonal, maximal_vectors)

LINE_BUDGET = 10 ** 4


def spin(M, w):
    """Smallest graded submodule containing w, as a Subspace of F^dim: the
    lockstep spin (_spins) of M alone."""
    return _spins([M], [w])[0]


def _spins(Ms, ws):
    """spin(M, w) for each module M of Ms and vector w of ws, in lockstep.

    Consecutive modules of one dimension and unit count form stacks, cut as
    verma._stacks cuts them (an entry over F_{p^K} counts K times, for its
    digits).  w is split into its homogeneous components; homogeneous units
    keep rows homogeneous, so each span stays graded (Subspace.split gives
    its parts).  A round maps the rows each module added last round, its
    basis rows at the pivots it gained, through its units (_images) and
    inserts all the images at once (_insert); the added rows vanish at
    every old pivot, so with the old span they span the new one.  A module drops out once it is full or a round adds
    nothing to it, with the canonical Subspace of its span.  Over F_p the
    float_copy of each module's action is kept on it.
    """
    out = []
    for (d, U, k), run in itertools.groupby(
            zip(Ms, ws), key=lambda mw: (mw[0].dim, len(mw[0].units), mw[0].field.k)):
        size = max(1, STACK_ENTRIES // max(U * d * d * k, 1))
        while stack := list(itertools.islice(run, size)):
            out += _spin_stack(*zip(*stack))
    return out


def _spin_stack(Ms, ws):
    """The spins of one stack of _spins; E, piv and line as _insert holds them."""
    B, d, f = len(Ms), Ms[0].dim, Ms[0].field
    w = np.array(ws, dtype=np.int64)
    if not w.any(axis=1).all():
        raise ZeroVector("cannot spin the zero vector")
    if f.k == 1:
        for M in Ms:
            if M._float_action is None:
                M._float_action = float_copy(f, M.stacked_action.T)
    right = [M.stacked_action.T if f.k > 1 else M._float_action for M in Ms]
    right, parity = right[0] if B == 1 else np.array(right), np.array([M.parity for M in Ms])
    E, piv, line = np.zeros((B, d, d), dtype=np.int64), *np.zeros((2, B, d), dtype=bool)
    live, out = np.arange(B), [None] * B
    rows = np.where(parity[:, None] == np.array([[0], [1]]), w[:, None], 0)
    while True:
        nonzero, par = rows != 0, parity[:, None]
        assert not ((nonzero & (par == 0)).any(axis=2)
                    & (nonzero & (par == 1)).any(axis=2)).any(), \
            "rows must be parity homogeneous"
        new = _insert(f, E, piv, line, rows)
        done = ~new.any(axis=1) | piv.all(axis=1)
        for b in np.flatnonzero(done):
            out[live[b]] = Subspace._echelon(f, d, E[b, piv[b]], np.flatnonzero(piv[b]).tolist())
        if done.all():
            return out
        E, piv, line, live, parity, new = (a[~done] for a in (E, piv, line, live, parity, new))
        right = right[~done] if B > 1 else right
        at = _first(new)
        rows = _images(f, E[at] * new[at][:, :, None], right)


def _images(f, rows, right):
    """The (B, n * U, d) images of the (B, n, d) rows of a stack under each
    module's units: rows times right, the stacked actions transposed (2-D
    for a stack of one).  A coordinate line e_c is row c of right, gathered;
    the other rows take one stacked product."""
    B, n, d = rows.shape
    count = np.count_nonzero(rows, axis=2)
    line = (count == 1) & (rows.max(axis=2, initial=0) == 1)
    out = np.empty((B, n, right.shape[-1]), dtype=np.int64)
    out[count == 0] = 0
    b, j = np.nonzero(line)
    out[b, j] = (right if right.ndim == 3 else right[None])[b, rows[b, j].argmax(axis=1)]
    # padded with lines and zero rows, whose products are their images too
    at = _first((count > 0) & ~line)
    if at[1].size:
        out[at] = _matmul(f, rows[at], right)
    return out.reshape(B, -1, d)


def _shifted_scalars(M):
    """The scalar a_x = chi(x) by which each unit acts on the simple
    module of a nilpotent (strictly triangular) subalgebra.

    Raises ShiftInconsistent when chi does not vanish on brackets of the
    subalgebra, in which case no one-dimensional module exists: chi on the
    bracket of every two units is one product of their rows of the bracket
    coefficients (verma._axiom_table) with chi's values on the units.
    """
    alg, chi = M.algebra, M.chi
    assert all(i != j for i, j in M.units), "nilpotent subalgebra expected"
    pos = [alg.units.index(u) for u in M.units]
    coef = _axiom_table(alg, tuple(alg.units))[1][np.ix_(pos, pos)].reshape(-1, alg.dim)
    if matmul(M.field, coef, np.array([[chi.value(u)] for u in alg.units])).any():
        raise ShiftInconsistent(
            "chi does not vanish on the derived subalgebra; no "
            "one-dimensional module to shift by")
    return {x: chi.value(x) for x in M.units}


def shifted_joint_kernel(M):
    """Joint kernel of x - a_x over the acting units (the socle of a
    module over a nilpotent subalgebra)."""
    f = M.field
    scalars = _shifted_scalars(M)
    shift = np.array([scalars[u] for u in M.units], dtype=np.int64).reshape(-1, 1, 1)
    shifted = f.sub(M.actions, f.mul(shift, np.eye(M.dim, dtype=np.int64)))
    return kernel(f, shifted.reshape(M.stacked_action.shape))


def trivial_submodules(M):
    """Joint kernel of all action matrices."""
    return kernel(M.field, M.stacked_action)


def _has_cartan(M):
    return all(u in M.units for u in M.algebra.diag_units)


def _candidate_spaces(M):
    """Spaces whose lines are the generating candidates of Lemma 2.4.

    Returns a list of (fingerprint, Subspace, parity).
    """
    if _has_cartan(M):
        return [(("weight",) + lam.key(), sub, par)
                for lam, sub, par in maximal_vectors(M)]
    # chi vanishes on odd units, so the shifted actions are homogeneous
    # and their joint kernel is the sum of its parity parts
    scalars = tuple(int(v) for v in _shifted_scalars(M).values())
    return [(("shifted",) + scalars, part, par)
            for par, part in shifted_joint_kernel(M).split(M.parity.tolist())]


def _line_representatives(field, sub):
    """One vector per line of a Subspace, every line of it.

    Raises BudgetExceeded, before building a coefficient row, when the
    projective count exceeds LINE_BUDGET (read at call time).
    """
    d = sub.dim
    q = field.q
    lines = (q ** d - 1) // (q - 1)
    if lines > LINE_BUDGET:
        raise BudgetExceeded(
            f"a maximal-vector space of dimension {d} over F_{q} has {lines} "
            f"lines, more than the line budget {LINE_BUDGET}")
    coeffs = []
    for lead in range(d):
        for tail in itertools.product(range(q), repeat=d - 1 - lead):
            coeffs.append((0,) * lead + (1,) + tail)
    coeffs = np.array(coeffs, dtype=np.int64).reshape(-1, d)
    return list(matmul(field, coeffs, sub.basis))


class SimplicityVerdict:
    """Outcome of the graded simplicity oracle."""

    __slots__ = ("simple",)

    # every verdict is exhaustive; the constant stays because the
    # benchmark's tracer (perfbench/spans.py) reads it
    probabilistic = False

    def __init__(self, simple):
        self.simple = simple

    def __bool__(self):
        return self.simple

    def __repr__(self):
        return f"SimplicityVerdict(simple={self.simple})"


def _top_coordinate(M):
    """The coordinate t with M.highest_vector a multiple of e_t, when no
    other basis vector has the weight of e_t; None otherwise.

    The weight is read off the diagonal Cartan action, so M must carry
    every unit E(i,i) with diagonal matrices.
    """
    hv = M.highest_vector
    if hv is None or not _has_cartan(M):
        return None
    support = np.flatnonzero(hv)
    diag = cartan_diagonal(M)
    if len(support) != 1 or diag is None:
        return None
    t = int(support[0])
    if np.count_nonzero((diag == diag[:, t, None]).all(axis=0)) != 1:
        return None
    return t


def dual_module(M, units=None):
    """M*, the dual module of units (M's by default): the transposed action.

    Transposing a homogeneous unit keeps its parity, so spins in M* are
    ordinary graded spins.  M* copies the action, and a spin adds a float
    copy: build it only to spin in it, of the units the spin needs.
    """
    units = M.units if units is None else units
    actions = M.actions if units == M.units else M.matrices(units)
    return ModuleRep(M.algebra, M.chi, units, actions.transpose(0, 2, 1), M.parity)


def dual_core(M):
    """R: a maximal graded submodule of M with M/R simple, a Subspace of
    F^dim: the annihilator of a simple graded submodule S of M*, since
    (M/R)* is S.  M* (dual_module) is built only to find S in it.

    Certificate: when M.highest_vector generates M and spans a weight
    space T = F e_t of its own (_top_coordinate), S is the spin of the
    coordinate form e_t.  A graded submodule N is the sum of its
    intersections with the weight spaces, so N contains T, and then all of
    M, or lies in W, the span of the other basis vectors.  R is therefore
    core(W) = {v : a v in W for every a in u(g)}, the sum of all proper
    submodules.  A root unit maps weight vectors to weight vectors and a
    Cartan unit scales them, so S is the spin of e_t in the dual of the
    root units alone.  dual_cores spins the certificates of many modules in
    lockstep.

    Socle: a module without Cartan units is a module over a nilpotent
    subalgebra, whose one simple module is the line on which each unit x
    acts by chi(x).  S is the line of the first homogeneous row of M*'s
    shifted joint kernel: every such line is a simple submodule of M*, and
    when M is local it is the only one.

    Descent: otherwise S starts as M*.  The lines of each candidate piece
    of M* that lie in S are spun, S becomes the first spin smaller than S,
    and this repeats until no line in S spins smaller.  Every nonzero
    submodule of S contains a candidate line, so the final S is simple.

    When M is local, S is the only simple submodule of M* on every route,
    and R the unique maximal submodule of M.  R is read off S's echelon
    basis (Subspace.annihilator): 0 with no elimination when S is all of
    M*, and otherwise one rref of the null rows.
    """
    return dual_cores([M])[0]


def dual_cores(Ms):
    """dual_core of each module of Ms.  The certificates spin in their
    root-unit duals in lockstep, one _spins call building each dual as its
    stack needs it; every other module takes the socle or the descent."""
    tops = [_top_coordinate(M) for M in Ms]
    todo = [b for b, t in enumerate(tops) if t is not None]
    duals = (dual_module(Ms[b], [u for u in Ms[b].units if u[0] != u[1]]) for b in todo)
    spun = _spins(duals, (Ms[b].basis_vector(tops[b]) for b in todo))
    cores = dict(zip(todo, (S.annihilator() for S in spun)))
    return [cores[b] if b in cores else _uncertified_core(M) for b, M in enumerate(Ms)]


def _uncertified_core(M):
    """dual_core of M by the socle or the descent."""
    dual = dual_module(M)
    pieces = [sub for _, sub, _ in _candidate_spaces(dual)]
    # with no piece at all, the descent raises NoMaximalVector
    if pieces and not _has_cartan(M):
        return Subspace(M.field, M.dim, pieces[0].basis[:1]).annihilator()
    S = Subspace(M.field, M.dim, np.eye(M.dim, dtype=np.int64))
    while (smaller := _smaller_spin(dual, pieces, S)) is not None:
        S = smaller
    return S.annihilator()


def _smaller_spin(M, pieces, S):
    """The first spin of a line of a piece inside S that is smaller than S;
    None when every such line spins to S.

    While S is all of M the pieces are used as they are.
    """
    lines = 0
    for sub in pieces:
        if S.dim < M.dim:
            sub = sub.intersect(S)
            if not sub.dim:
                continue
        for v in _line_representatives(M.field, sub):
            lines += 1
            smaller = spin(M, v)
            if smaller.dim < S.dim:
                return smaller
    if not lines:
        raise NoMaximalVector("a submodule has no generating candidate line")
    return None


def is_simple(M):
    """Graded simplicity: M is simple iff dual_core's R is 0."""
    return SimplicityVerdict(not dual_core(M).dim)


def quotient_module(M, sub):
    """The quotient of M by a graded submodule, a Subspace of F^dim.

    Returns (Q, proj, lift): proj maps ambient vectors to quotient
    coordinates and lift is a linear section.
    """
    free = np.delete(np.arange(M.dim), sub.pivots)

    def proj(vec):
        return sub.reduce(vec)[..., free]

    def lift(vec):
        vec = np.asarray(vec, dtype=np.int64)
        out = np.zeros(vec.shape[:-1] + (M.dim,), dtype=np.int64)
        out[..., free] = vec
        return out

    return _quotient(M, sub), proj, lift


def _quotient(M, sub):
    """M over a graded submodule sub, from one reduction of all its columns
    and its highest vector: column free[t] of a unit's matrix, reduced,
    gives column t."""
    free = np.delete(np.arange(M.dim), sub.pivots)
    U, m = len(M.units), len(free)
    hv = np.zeros(M.dim, dtype=np.int64) if M.highest_vector is None else M.highest_vector
    cols = M.actions[..., free].transpose(0, 2, 1).reshape(U * m, M.dim)
    rows = sub.reduce(np.vstack((cols, hv)))[:, free]
    hv = rows[-1].copy()
    return ModuleRep(M.algebra, M.chi, M.units, rows[:-1].reshape(U, m, m).transpose(0, 2, 1),
                     M.parity[free], lam=M.lam, highest_vector=hv if hv.any() else None)


def restrict_module(M, sub):
    """M restricted to a graded submodule, a Subspace of F^dim, with the
    embedding rows."""
    basis, d = sub.basis, sub.dim
    # coords raises unless every image lies in the submodule; coeffs[t, i]
    # holds the coordinates of unit i's image of basis row t
    right = M.stacked_action.T if M._float_action is None else M._float_action
    coeffs = sub.coords(_images(M.field, basis[None], right)[0]).reshape(d, len(M.units), d)
    R = ModuleRep(M.algebra, M.chi, M.units, coeffs.transpose(1, 2, 0),
                  M.parity[sub.pivots])
    return R, basis


def simple_head(M):
    """The simple quotient M / R of dual_core, with R: simple_heads of the
    stack of M alone.

    Where the certificate applies, and on the socle route when M is local,
    R is the unique maximal graded submodule.  Returns (R: Subspace of
    F^dim, head: ModuleRep).
    """
    return simple_heads([M])[0]


def simple_heads(Ms):
    """simple_head of each module of Ms, in order: their R from one
    dual_cores pass, and one _quotient per module."""
    return [(R, _quotient(M, R)) for M, R in zip(Ms, dual_cores(Ms))]


class CompositionSeries:
    """Descending chain of graded submodules, Subspaces of F^dim, with
    simple quotients."""

    __slots__ = ("chain", "factors")

    def __init__(self, chain, factors):
        self.chain = chain
        self.factors = factors

    def __repr__(self):
        return f"CompositionSeries(factors={self.factors})"


def composition_series(M):
    """Peel simple heads until nothing is left.

    factors records (dim, fingerprint) per simple factor, top first;
    chain records the corresponding graded submodules of M, as Subspaces
    of F^dim, descending.
    """
    chain = []
    factors = []
    current = M
    # rows of the current module's basis expressed in M's coordinates
    embed = np.eye(M.dim, dtype=np.int64)
    while current.dim:
        R, head = simple_head(current)
        fps = sorted({fp for fp, _, _ in _candidate_spaces(head)})
        factors.append((head.dim, tuple(fps)))
        if R.dim == 0:
            chain.append(Subspace(M.field, M.dim))
            break
        current, basis_local = restrict_module(current, R)
        embed = matmul(M.field, basis_local, embed)
        chain.append(Subspace(M.field, M.dim, embed))
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
    hit = algebra.bracket_escape(have, have, have)
    if hit:
        raise NotClosed("[{}, {}] leaves the span (unit {})".format(*hit))


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
    actions = np.zeros((len(sub_units), dim, dim), dtype=np.int64)
    for mat, u in zip(actions, sub_units):
        gen = PBWElement.generator(ctx, u)
        for m, t in index.items():
            b = PBWElement(ctx, {m: 1})
            prod = multiply(ctx, gen, b) if side == "left" else multiply(ctx, b, gen)
            for exps, c in prod.terms.items():
                assert exps in index, "product left the subalgebra"
                mat[index[exps], t] = f.add(int(mat[index[exps], t]), c)
    parity = np.array([ctx.mono_parity(m) for m in monos], dtype=np.int64)
    return ModuleRep(algebra, chi, sub_units, actions, parity, labels=monos,
                     ctx=ctx)


def frobenius_gram(algebra, sub_units, chi, dim_budget=4096):
    """Gram matrix of the top-coefficient form on u(sub, chi).

    The form sends (a, b) to the coefficient of the monomial with all
    exponents maximal in a*b.  Returns (Matrix, nondegenerate flag).  Row a
    is the top row of a's left action, read off the left regular module.
    """
    _check_closed(algebra, sub_units)
    ctx = reduction_context(algebra, chi)
    dim = math.prod(ctx.caps[pos] for pos in set(_sub_positions(ctx, sub_units)))
    if dim > dim_budget:
        raise BudgetExceeded(f"dim u(sub) = {dim} > {dim_budget}")
    L = regular_module(algebra, sub_units, chi)
    top = max(range(dim), key=lambda t: sum(L.labels[t]))
    gram = np.zeros((dim, dim), dtype=np.int64)
    one, layers = _pbw_layers(L.labels, last=True)
    gram[one, top] = 1
    for i, ts, prevs in layers:
        gram[ts] = matmul(ctx.field, gram[prevs], L.matrix(ctx.units[i]))
    G = Matrix(ctx.field, gram)
    _, rank = row_reduce(G)
    return G, rank == dim
