"""The composition series, kept as the oracle of the radical layers.

regular-module-check decides the regular module of u(n-, chi) from its
radical layers (series.radical_layers).  composition_series peels simple
heads one at a time and restricts to their radicals, which gives the
factors the layers count; quotient_module and restrict_module build the
modules it and the line oracle peel through.  trivial_submodules is the
joint kernel of the raw actions, the socle at chi = 0 that
series.shifted_joint_kernel generalizes, and stacked_action the (U * dim,
dim) view of a module's actions that it takes the kernel of.
"""

import collections
import weakref

import numpy as np

from glmn.analysis import _candidate_spaces, _factor, _images, _quotient, simple_head
from glmn.linalg import Subspace, kernel, matmul
from glmn.verma import ModuleRep

_STACKED = weakref.WeakKeyDictionary()


def stacked_action(M):
    """M's actions as one (U * dim, dim) array, the same memory, with the
    matrix of units[t] in rows t * dim to (t + 1) * dim; one view per module."""
    if M not in _STACKED:
        _STACKED[M] = M.actions.reshape(len(M.units) * M.dim, M.dim)
    return _STACKED[M]


def trivial_submodules(M):
    """Joint kernel of all action matrices."""
    return kernel(M.field, stacked_action(M))


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


def restrict_module(M, sub):
    """M restricted to a graded submodule, a Subspace of F^dim, with the
    embedding rows."""
    basis, d = sub.basis, sub.dim
    # coords raises unless every image lies in the submodule; coeffs[t, i]
    # holds the coordinates of unit i's image of basis row t
    images = _images(M.field, basis[None], _factor(M, False))[0]
    coeffs = sub.coords(images).reshape(d, len(M.units), d)
    return ModuleRep(M.algebra, M.chi, M.units, coeffs.transpose(1, 2, 0),
                     M.parity[sub.pivots]), basis


# Descending chain of graded submodules, Subspaces of F^dim, with simple quotients.
CompositionSeries = collections.namedtuple("CompositionSeries", "chain factors")


def composition_series(M):
    """Peel simple heads until nothing is left.

    factors records (dim, fingerprint) per simple factor, top first;
    chain records the corresponding graded submodules of M, as Subspaces
    of F^dim, descending.
    """
    chain, factors, current = [], [], M
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
