"""Module analysis past the certificate (analysis imports it only there):
the socle and the descent, shifted kernels and radical layers, and the
regular modules and Frobenius form of u(sub, chi).  The descent is
exhaustive or refused: a candidate piece with more than LINE_BUDGET lines
raises BudgetExceeded."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .analysis import _candidate_spaces, _factor, _has_cartan, _spins
from .enveloping import PBWElement, multiply, reduction_context
from .errors import BudgetExceeded, NoMaximalVector, NotClosed, ShiftInconsistent
from .linalg import Matrix, Subspace, _matmul, kernel, matmul, row_reduce, rref
from .verma import ModuleRep, _axiom_table, _pbw_layers, cartan_diagonal

LINE_BUDGET = 10 ** 4


def _shifted_scalars(M):
    """The scalar a_x = chi(x) by which each unit x of M, or of n- when M
    has Cartan units, acts on the simple module of that nilpotent subalgebra.

    Raises ShiftInconsistent when chi does not vanish on brackets of the
    subalgebra, in which case no one-dimensional module exists: chi on the
    bracket of every two units is one product of their rows of the bracket
    coefficients (verma._axiom_table) with chi's values on the units.
    """
    alg, chi = M.algebra, M.chi
    units = [u for u in M.units if u[0] > u[1]] if _has_cartan(M) else M.units
    assert all(i != j for i, j in units), "nilpotent subalgebra expected"
    pos = [alg.units.index(u) for u in units]
    coef = _axiom_table(alg, tuple(alg.units))[1][np.ix_(pos, pos)].reshape(-1, alg.dim)
    if matmul(M.field, coef, np.array([[chi.value(u)] for u in alg.units])).any():
        raise ShiftInconsistent(
            "chi does not vanish on the derived subalgebra; no "
            "one-dimensional module to shift by")
    return {x: chi.value(x) for x in units}


def _shifted_units(M, forms=False):
    """The (len(units), dim, dim) stack of y_x = x - a_x over the units x
    and scalars a_x of _shifted_scalars; with forms, their transposes, by
    which forms of M move (written in place: a transposed copy of the stack
    would double its peak)."""
    f, n, scalars = M.field, M.dim, _shifted_scalars(M)
    ys = np.empty((len(scalars), n, n), dtype=np.int64)
    for t, (x, a) in enumerate(scalars.items()):
        ys[t] = M.matrix(x).T if forms else M.matrix(x)
        ys[t].flat[::n + 1] = f.sub(ys[t].diagonal(), a)
    return ys


def shifted_joint_kernel(M, *, forms=False):
    """Joint kernel of the y_x of _shifted_units: the socle over their units
    of M, or with forms, of M* as forms of M."""
    return kernel(M.field, _shifted_units(M, forms).reshape(-1, M.dim))


def radical_layers(M):
    """The dimensions of M_k / M_{k+1}, for M_0 = M and M_{k+1} = sum_x
    y_x M_k over the y_x of _shifted_units, until M_k is 0 or M_{k+1} =
    M_k.  Each y_x acts by 0 on every layer, so the chain reaches 0 (the
    dimensions sum to dim M) exactly when every composition factor of M is
    the one-dimensional module of the scalars a_x."""
    f, n = M.field, M.dim
    # layer rows times right: each row's images under every y_x, side by side
    right = _shifted_units(M).transpose(2, 0, 1).reshape(n, -1)
    layer, dims = np.eye(n, dtype=np.int64), []
    while len(layer):
        echelon, pivots = rref(f, _matmul(f, layer, right).reshape(-1, n))
        if len(pivots) == len(layer):
            break
        dims.append(len(layer) - len(pivots))
        layer = echelon[:len(pivots)]
    return dims


def _line_representatives(field, sub):
    """One vector per line of a Subspace, every line of it.

    Raises BudgetExceeded, before building a coefficient row, when the
    projective count exceeds LINE_BUDGET (read at call time).
    """
    d, q = sub.dim, field.q
    lines = (q ** d - 1) // (q - 1)
    if lines > LINE_BUDGET:
        raise BudgetExceeded(
            f"a maximal-vector space of dimension {d} over F_{q} has {lines} "
            f"lines, more than the line budget {LINE_BUDGET}")
    coeffs = [(0,) * lead + (1,) + tail for lead in range(d)
              for tail in itertools.product(range(q), repeat=d - 1 - lead)]
    return list(matmul(field, np.array(coeffs, dtype=np.int64).reshape(-1, d), sub.basis))


def _uncertified_core(M):
    """dual_core past the certificate, with no M* built: S is spun from a
    line of M*'s socle N over n- (shifted_joint_kernel), or descends."""
    try:
        N = shifted_joint_kernel(M, forms=True)
    except ShiftInconsistent:  # which _candidate_spaces raises without Cartan units
        N = Subspace(M.field, M.dim)
    if N.dim and not _has_cartan(M):
        (_, line), *_ = N.split(M.parity.tolist())
        return Subspace(M.field, M.dim, line.basis[:1]).annihilator()
    if N.dim == 1:
        diag = cartan_diagonal(M)
        form = N.basis[0] * (diag == diag[:, N.pivots[0], None]).all(axis=0)
        return _spins([(M, _factor(M, True), form)])[0].annihilator()
    pieces = [sub for _, sub, _ in _candidate_spaces(M, True)]
    right = _factor(M, True)
    S = Subspace._echelon(M.field, M.dim, np.eye(M.dim, dtype=np.int64), list(range(M.dim)))
    while (smaller := _smaller_spin(M, right, pieces, S)) is not None:
        S = smaller
    return S.annihilator()


def _smaller_spin(M, right, pieces, S):
    """The first spin of a line of a piece inside S, a form of M spun by
    right, that is smaller than S; None when every such line spins to S.

    While S is all of M* the pieces are used as they are.
    """
    lines = 0
    for sub in pieces:
        if S.dim < M.dim:
            sub = sub.intersect(S)
            if not sub.dim:
                continue
        for v in _line_representatives(M.field, sub):
            lines += 1
            smaller, = _spins([(M, right, v)])
            if smaller.dim < S.dim:
                return smaller
    if not lines:
        raise NoMaximalVector("a submodule has no generating candidate line")
    return None


def _sub_positions(ctx, sub_units):
    for u in sub_units:
        if tuple(u) not in ctx.unit_to_pos:
            raise NotClosed(f"{u} is not a basis matrix unit")
    return [ctx.unit_to_pos[tuple(u)] for u in sub_units]


def _check_closed(algebra, sub_units):
    have = {tuple(u) for u in sub_units}
    if hit := algebra.bracket_escape(have, have, have):
        raise NotClosed("[{}, {}] leaves the span (unit {})".format(*hit))


def sub_enveloping_basis(algebra, chi, sub_units):
    """PBW monomial basis of u(sub, chi) inside the big context."""
    ctx = reduction_context(algebra, chi)
    positions = _sub_positions(ctx, sub_units)
    ranges = [range(ctx.caps[pos] if pos in positions else 1) for pos in range(ctx.ngens)]
    return ctx, positions, list(itertools.product(*ranges))


def regular_module(algebra, sub_units, chi, side="left"):
    """Left or right regular module of u(sub, chi) on its PBW basis."""
    _check_closed(algebra, sub_units)
    ctx, positions, monos = sub_enveloping_basis(algebra, chi, sub_units)
    f, index, dim = ctx.field, {m: t for t, m in enumerate(monos)}, len(monos)
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
    return ModuleRep(algebra, chi, sub_units, actions, parity, labels=monos, ctx=ctx)


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
