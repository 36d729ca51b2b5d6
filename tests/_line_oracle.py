"""The line route, kept as the oracle of analysis.dual_core.

is_simple_by_lines spins every maximal-vector line of M, and
simple_head_by_lines peels one proper spin at a time until the quotient is
simple; series_factors_by_lines peels such heads down a composition
series.  is_local_by_dual_spins decides whether M has a unique maximal
submodule from the smallest of all dual spins.  They share spin,
quotient_module, restrict_module and the candidate lines with the
library, and no descent or certificate.  dual_module builds M* as a
module of its own, the oracle of the candidate pieces of M* that the
library reads off M's matrices.  witness finds a homogeneous
maximal vector of dual_core's R, which the library's verdict does not
carry.
"""

from collections import Counter

from glmn.analysis import SimplicityVerdict, _candidate_spaces, dual_core, spin
from glmn.errors import NoMaximalVector
from glmn.linalg import Subspace
from glmn.series import _line_representatives, quotient_module, restrict_module
from glmn.verma import ModuleRep


def dual_module(M):
    """M*, the dual module: the transposed action, whose candidate pieces
    the socle and the descent read off M's own matrices."""
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
