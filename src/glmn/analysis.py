"""Module analysis on explicit action matrices.

Everything here works on explicit action matrices: spinning vectors into
graded submodules, graded simplicity and simple heads (series holds the
rest, imported only where it is reached).  A graded submodule is its
canonical Subspace of F^dim: spanned by parity-homogeneous rows, each
basis row lies in the parity part of its pivot, and Subspace.split(M.parity)
gives the parts.  A spin multiplies rows by the units' matrices side by
side (_factor): transposed for vectors of M, as they are for its forms.

Simplicity and simple heads have one route, dual_core: a maximal graded
submodule R of M with M/R simple, the annihilator of a simple graded
submodule S of the dual module M*, the forms of M.  S is the spin of a top
coordinate form (the certificate, for modules generated by a highest vector
whose weight occurs at no other basis vector) or of a line of M*'s socle
over n- (its one line, or any without Cartan units), so no verdict rests on
a sample.  Every module glmn induces, and every quotient of one, is cyclic
over u(n-, chi), which is local once chi is a character of n-, as
cli.build_setting makes every chi; any other module with Cartan units is
refused (NotCyclic).  No route builds M*: its spins and socle are read off
M's own matrices.  dual_cores takes the R of many modules at once, spinning their
certificates in lockstep (_spins), and simple_heads their quotients by
those R.

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

import numpy as np

from .errors import ZeroVector
from .linalg import Subspace, _first, _insert, _matmul, float_type
from .verma import ModuleRep, _stacks, cartan_diagonal, maximal_vectors


def spin(M, w):
    """Smallest graded submodule containing w, as a Subspace of F^dim: the
    lockstep spin (_spins) of w alone, by M's action transposed."""
    return _spins([(M, _factor(M, False), w)])[0]


def _factor(M, forms):
    """[B_1 | ... | B_U], the (dim, U * dim) right factor by which rows spin:
    for vectors, every unit's matrix transposed, as a vector may mix weights;
    for forms of M, the root units' own matrices, as every form spun is a
    weight form (dual_core).  float_type over F_p, indices over F_{p^K}."""
    f, d = M.field, M.dim
    units = [u for u in M.units if u[0] != u[1]] if forms else M.units
    right = np.empty((d, len(units), d), dtype=np.int64 if f.k > 1 else float_type(f, d))
    for t, u in enumerate(units):
        right[:, t] = M.matrix(u) if forms else M.matrix(u).T
    return right.reshape(d, -1)


def _spins(jobs):
    """For each (M, right, w) of jobs, in lockstep, the spin of w by right
    (_factor): the smallest graded subspace of F^dim holding w and closed
    under right.  jobs is read as stacks of consecutive jobs of one field
    and factor shape, cut by verma._stacks at the entries of their factors
    (an entry over F_{p^K} counts K times, for its digits).  w is split into
    its homogeneous components; homogeneous units keep rows homogeneous, so
    each span stays graded (Subspace.split gives its parts).  A round maps
    the rows each job added last round, its basis rows at the pivots it
    gained, through its factor (_images) and inserts all the images at once
    (_insert); the added rows vanish at every old pivot, so with the old
    span they span the new one.  A job drops out once it is full or a
    round adds nothing to it, with the canonical Subspace of its span.
    """
    stacks = _stacks(jobs, lambda job: (job[0].field, *job[1].shape),
                     lambda job: job[1].size * job[0].field.k)
    return [S for stack in stacks for S in _spin_stack(*zip(*stack))]


def _spin_stack(Ms, rights, ws):
    """The spins of one stack of _spins; E, piv and line as _insert holds them."""
    B, d, f = len(Ms), Ms[0].dim, Ms[0].field
    w = np.array(ws, dtype=np.int64)
    if not w.any(axis=1).all():
        raise ZeroVector("cannot spin the zero vector")
    right, parity = rights[0] if B == 1 else np.array(rights), np.array([M.parity for M in Ms])
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
    job's units: rows times right, its (d, U * d) factor (2-D for a stack
    of one).  A coordinate line e_c is row c of right, gathered; the other
    rows take one stacked product."""
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


def _has_cartan(M):
    return all(u in M.units for u in M.algebra.diag_units)


def _candidate_spaces(M, forms=False):
    """Spaces whose lines are the generating candidates of Lemma 2.4: of M,
    or with forms, of M*, read off M's own matrices as forms of M.

    Returns a list of (fingerprint, Subspace, parity).
    """
    if _has_cartan(M):
        return [(("weight",) + lam.key(), sub, par)
                for lam, sub, par in maximal_vectors(M, forms=forms)]
    from .series import _shifted_scalars, shifted_joint_kernel
    # chi vanishes on odd units, so the shifted actions are homogeneous
    # and their joint kernel is the sum of its parity parts
    scalars = tuple(int(v) for v in _shifted_scalars(M).values())
    return [(("shifted",) + scalars, part, par)
            for par, part in shifted_joint_kernel(M, forms=forms).split(M.parity.tolist())]


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


def dual_core(M):
    """R: a maximal graded submodule of M with M/R simple, a Subspace of
    F^dim: the annihilator of a simple graded submodule S of the dual
    module M*, since (M/R)* is S.  S is spun from forms of M, rows that
    each unit x maps to the form times the matrix of x (_factor).

    Certificate: when M.highest_vector generates M and spans a weight
    space T = F e_t of its own (_top_coordinate), S is the spin of the
    coordinate form e_t.  A graded submodule N is the sum of its
    intersections with the weight spaces, so N contains T, and then all of
    M, or lies in W, the span of the other basis vectors.  R is therefore
    core(W) = {v : a v in W for every a in u(g)}, the sum of all proper
    submodules.  A root unit maps weight forms to weight forms and a
    Cartan unit scales them, so S is the spin of e_t by the root units
    alone.  dual_cores spins the certificates of many modules in lockstep.

    Socle: otherwise M is a module over a nilpotent subalgebra, n- or,
    without Cartan units, its own units, whose one simple module is the line
    on which x acts by chi(x).  M*'s socle over it is the forms killed by
    every x - chi(x).  Without Cartan units each of its lines is simple in
    M*, and S is the first homogeneous one.  With them, it is one line F phi
    exactly when M is cyclic over the local u(n-, chi); then every proper
    submodule lies in ker phi, so S, M*'s only simple submodule, is the spin
    of phi's part at its pivot's weight (u(h) separates weights).

    Otherwise M is not cyclic over u(n-, chi), which every induced module
    and every quotient of one is, or chi is no character of n-, which every
    chi that cli.build_setting returns is: NotCyclic or ShiftInconsistent
    is raised.

    When M is local, S is the only simple submodule of M* on both routes,
    and R the unique maximal submodule of M.  R is read off S's echelon
    basis (Subspace.annihilator).
    """
    return dual_cores([M])[0]


def dual_cores(Ms):
    """dual_core of each module of Ms.  The certificates spin their forms
    e_t in lockstep, by factors (_factor) built as their stacks need them,
    with no ModuleRep; every other module takes the socle line."""
    tops = [_top_coordinate(M) for M in Ms]
    todo = [b for b, t in enumerate(tops) if t is not None]
    spun = _spins((Ms[b], _factor(Ms[b], True), Ms[b].basis_vector(tops[b])) for b in todo)
    cores = dict(zip(todo, (S.annihilator() for S in spun)))
    if len(cores) < len(Ms):
        from .series import _uncertified_core
    return [cores[b] if b in cores else _uncertified_core(M) for b, M in enumerate(Ms)]


def is_simple(M):
    """Graded simplicity: M is simple iff dual_core's R is 0."""
    return SimplicityVerdict(not dual_core(M).dim)


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
