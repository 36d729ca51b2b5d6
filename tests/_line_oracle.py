"""The line route and the descent, kept as the oracles of analysis.dual_core.

is_simple_by_lines spins every maximal-vector line of M, and
simple_head_by_lines peels one proper spin at a time until the quotient is
simple; series_factors_by_lines peels such heads down a composition
series.  is_local_by_dual_spins decides whether M has a unique maximal
submodule from the smallest of all dual spins.  They share spin,
quotient_module, restrict_module and the candidate lines with the
library, and no descent or certificate.

The descent (descent_core) finds a simple submodule S of M* for any M:
S starts as M*, and becomes the first spin of a candidate line in S that is
smaller than S, until none is.  The library takes the line of M*'s socle
over n- instead, and refuses a module that is not cyclic over u(n-, chi);
dual_core, is_simple and simple_head here take the descent there, for the
tests of such modules (the restrictions along a composition series, M + M).
A candidate piece with more than LINE_BUDGET lines is refused.

dual_module builds M* as a module of its own, the oracle of the candidate
pieces of M* that the library reads off M's matrices.  witness finds a
homogeneous maximal vector of dual_core's R, which the library's verdict
does not carry.
"""

import itertools
from collections import Counter

import numpy as np

from glmn import analysis
from glmn.analysis import (SimplicityVerdict, _candidate_spaces, _factor, _quotient, _spins,
                           spin)
from glmn.errors import BudgetExceeded, NoMaximalVector, NotCyclic, ShiftInconsistent
from glmn.linalg import Subspace, matmul
from glmn.verma import ModuleRep
from _series_oracle import quotient_module, restrict_module

LINE_BUDGET = 10 ** 4


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


def descent_core(M):
    """R by the descent alone: S starts as M*, the lines in S of each
    candidate piece of M* (weight forms, with Cartan units) are spun, and S
    becomes the first spin smaller than S, until no line in S spins
    smaller.  Every nonzero submodule of S contains a candidate line, so
    the final S is simple."""
    pieces = [sub for _, sub, _ in _candidate_spaces(M, True)]
    right = _factor(M, True)
    S = Subspace._echelon(M.field, M.dim, np.eye(M.dim, dtype=np.int64), list(range(M.dim)))
    while (smaller := _smaller_spin(M, right, pieces, S)) is not None:
        S = smaller
    return S.annihilator()


def dual_core(M):
    """analysis.dual_core, or the descent where the library refuses M: M
    not cyclic over u(n-, chi), or chi no character of n-."""
    try:
        return analysis.dual_core(M)
    except (NotCyclic, ShiftInconsistent):
        return descent_core(M)


def is_simple(M):
    """analysis.is_simple, with dual_core's descent."""
    return SimplicityVerdict(not dual_core(M).dim)


def simple_head(M):
    """analysis.simple_head, with dual_core's descent: (R, M / R)."""
    R = dual_core(M)
    return R, _quotient(M, R)


def dual_module(M):
    """M*, the dual module: the transposed action, whose candidate pieces
    the socle route and the descent read off M's own matrices."""
    return ModuleRep(M.algebra, M.chi, M.units, M.actions.transpose(0, 2, 1), M.parity)


def is_simple_by_lines(M):
    """Graded simplicity by spinning every maximal-vector line.

    Every nonzero graded submodule contains a homogeneous maximal vector,
    so M is simple iff every such line spins to all of M.
    """
    spaces = _candidate_spaces(M)
    if not spaces:
        raise NoMaximalVector("module has no generating candidates")
    for _, sub, _ in spaces:
        for v in _line_representatives(M.field, sub):
            if spin(M, v).dim < M.dim:
                return SimplicityVerdict(False)
    return SimplicityVerdict(True)


def witness(M):
    """(w, fingerprint, parity): a homogeneous maximal vector w of
    dual_core's R, the first basis row of the first maximal-vector piece
    that meets R, with the piece's fingerprint and parity; None when R is
    0, that is when M is simple."""
    core = dual_core(M)
    if not core.dim:
        return None
    for fingerprint, sub, par in _candidate_spaces(M):
        meet = sub.intersect(core)
        if meet.dim:
            return meet.basis[0], fingerprint, par
    raise NoMaximalVector("the maximal submodule has no maximal vector")


def simple_head_by_lines(M):
    """(R, M/R) with M/R simple, by peeling: collects spins of
    non-generating maximal vectors into R one at a time and quotients,
    until the quotient is simple.
    """
    R = Subspace(M.field, M.dim)
    while True:
        Q, proj, lift = quotient_module(M, R)
        if Q.dim == 0:
            raise NoMaximalVector("module shrank to zero while peeling")
        grew = False
        for fingerprint, subspace, par in _candidate_spaces(Q):
            for v in _line_representatives(Q.field, subspace):
                s = spin(Q, v)
                if s.dim < Q.dim:
                    bigger = R.add_vectors(lift(s.basis))
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


def series_factors_by_lines(M, memo=None):
    """The multiset of (dim, fingerprints) of the composition factors,
    peeling simple_head_by_lines heads off the radical.

    memo, when given, is a dict that keeps the factors of every module
    met, by its action and parity, so that calls on the restrictions of
    one series share the peeling; the route is deterministic, so a hit
    gives what peeling again would."""
    memo = {} if memo is None else memo
    met, heads, factors = [], [], Counter()
    while M.dim:
        key = (M.actions.shape, M.actions.tobytes(), M.parity.tobytes())
        if key in memo:
            factors = memo[key].copy()
            break
        R, head = simple_head_by_lines(M)
        met.append(key)
        heads.append((head.dim, tuple(sorted({fp for fp, _, _ in _candidate_spaces(head)}))))
        if R.dim == 0:
            break
        M, _ = restrict_module(M, R)
    for key, head in zip(reversed(met), reversed(heads)):
        factors[head] += 1
        memo[key] = factors.copy()
    return factors


def is_local_by_dual_spins(M):
    """Whether M has a unique maximal submodule: whether every line of
    every candidate piece of M* spins to a submodule that contains the
    smallest of those spins.

    The minimal spins are the simple submodules of M*, since each contains
    a candidate line, and M is local iff M* has only one.
    """
    dual = dual_module(M)
    spins = [spin(dual, v) for _, sub, _ in _candidate_spaces(dual)
             for v in _line_representatives(dual.field, sub)]
    smallest = min(spins, key=lambda space: space.dim)
    return all(smallest <= space for space in spins)
