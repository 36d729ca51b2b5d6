"""Brackets and characters by walking the bracket table and unit matrices.

These are the walks that products of index arrays replaced: the parity of
an element unit by unit, chi on the bracket of every two units of a
module summed term by term (analysis._shifted_scalars), [l', l'] as one
coefficient row per bracket pair (kw.levi_data), and g . chi as one
Matrix triple product per even unit (kw.conjugate_character).  The array
forms must give the same parities, the same verdicts and scalars, the same
Subspace and the same Character, or raise the same error.
"""

import numpy as np

from glmn.algebra import Character
from glmn.errors import GlmnError, OddInput, ShiftInconsistent, SingularG
from glmn.linalg import Matrix, Subspace, inverse


def element_parity(alg, x):
    """Parity of a Matrix element; None when mixed, 0 for zero."""
    has = {0: False, 1: False}
    for (i, j) in alg.units:
        if x.data[i - 1, j - 1]:
            has[alg.parity(i, j)] = True
    if has[0] and has[1]:
        return None
    return 1 if has[1] else 0


def shifted_scalars(M):
    """{unit: chi(unit)} over M's units, or ShiftInconsistent when chi is
    nonzero on the bracket of two of them."""
    alg, f, chi = M.algebra, M.field, M.chi
    for x in M.units:
        assert x[0] != x[1], "nilpotent subalgebra expected"
        for y in M.units:
            acc = 0
            for c, unit in alg.bracket_table[(x, y)]:
                acc = f.add(acc, f.mul(c, chi.value(unit)))
            if acc:
                raise ShiftInconsistent("chi does not vanish on the derived subalgebra")
    return {x: chi.value(x) for x in M.units}


def bracket_span(alg, units):
    """The span of the brackets of every two of the units, inside the
    algebra on its unit basis."""
    f = alg.field
    rows = []
    for x in units:
        for y in units:
            vec = np.zeros(alg.dim, dtype=np.int64)
            for c, unit in alg.bracket_table[(x, y)]:
                pos = alg.units.index(unit)
                vec[pos] = f.add(int(vec[pos]), c)
            if vec.any():
                rows.append(vec)
    return Subspace(f, alg.dim, np.array(rows, dtype=np.int64)) if rows \
        else Subspace(f, alg.dim)


def conjugate_character(algebra, g, chi):
    """(g . chi)(x) = chi(g^-1 x g) on each even unit x, for an even
    invertible Matrix or pair of blocks g."""
    f = algebra.field
    if isinstance(g, tuple):
        m = algebra.m
        full = np.zeros((algebra.d, algebra.d), dtype=np.int64)
        full[:m, :m] = np.asarray(g[0], dtype=np.int64)
        full[m:, m:] = np.asarray(g[1], dtype=np.int64)
        g = Matrix(f, full)
    m = algebra.m
    if g.data[:m, m:].any() or g.data[m:, :m].any():
        raise OddInput("g must be an even block matrix")
    try:
        ginv = inverse(g)
    except ValueError:
        raise SingularG("g is not invertible") from None
    values = {}
    for (i, j) in algebra.even_units:
        conj = (ginv @ algebra.unit_matrix(i, j) @ g).data
        acc = 0
        for (a, b) in algebra.even_units:
            c = int(conj[a - 1, b - 1])
            if c:
                acc = f.add(acc, f.mul(c, chi.value((a, b))))
        if acc:
            values[(i, j)] = acc
    return Character(algebra, values)


def outcome(fn, *args):
    """fn(*args), or the type of the GlmnError it raises."""
    try:
        return fn(*args)
    except GlmnError as exc:
        return type(exc)
