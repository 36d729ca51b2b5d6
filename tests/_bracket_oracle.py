"""Brackets and characters by walking the bracket table and unit matrices.

These are the walks that products of index arrays replaced: the parity of
an element unit by unit, chi on the bracket of every two units of a
module summed term by term (series._shifted_scalars), [l', l'] as one
coefficient row per bracket pair (kw.levi_data), g . chi as one Matrix
triple product per even unit (kw.conjugate_character), and the four
identities of structure-check (checks.structure_task), read off a given
(U, U, U) coefficient array pair by pair, triple by triple and through
Matrix powers and supertraces.  The array forms must give the same
parities, the same verdicts and scalars, the same Subspace, the same
Character and the same record, or raise the same error.
"""

import random

import numpy as np

from glmn.algebra import Character, p_power, supertrace
from glmn.cli import task_seed
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


def coefficient_table(alg, coef):
    """{(x, y): [(coefficient, unit), ...]} of the nonzero entries of the
    (U, U, U) array coef, [units[a], units[b]] at [a, b]."""
    units = alg.units
    return {(x, y): [(int(coef[a, b, t]), units[t]) for t in np.flatnonzero(coef[a, b])]
            for a, x in enumerate(units) for b, y in enumerate(units)}


def anticommutes(alg, table):
    """[x, y] = -(-1)^{p(x)p(y)} [y, x], pair by pair."""
    f, units = alg.field, alg.units
    for x in units:
        for y in units:
            sign = -1 if alg.parity(*x) and alg.parity(*y) else 1
            lhs = {u: c for c, u in table[(x, y)]}
            rhs = {u: c if sign == -1 else f.neg(c) for c, u in table[(y, x)]}
            if lhs != rhs:
                return False
    return True


def jacobi_holds(alg, table):
    """(-1)^{p(x)p(z)} [x, [y, z]] + cyclic = 0, triple by triple."""
    f, units, odd_units = alg.field, alg.units, set(alg.odd_units)
    for x in units:
        for y in units:
            for z in units:
                acc = {}
                for (a, b, c3) in ((x, y, z), (y, z, x), (z, x, y)):
                    sgn = -1 if a in odd_units and c3 in odd_units else 1
                    for c1, u1 in table[(b, c3)]:
                        for c2, u2 in table[(a, u1)]:
                            v = f.mul(c1, c2)
                            if sgn == -1:
                                v = f.neg(v)
                            acc[u2] = f.add(acc.get(u2, 0), v)
                if any(acc.values()):
                    return False
    return True


def ad_samples(alg, seed):
    """The even unit matrices, then 50 random even Matrix elements drawn
    from structure-check's seeded stream."""
    f = alg.field
    rng = random.Random(task_seed(seed, "structure"))
    samples = [alg.unit_matrix(*u) for u in alg.even_units]
    for _ in range(50):
        m_ = np.zeros((alg.d, alg.d), dtype=np.int64)
        for (i, j) in alg.even_units:
            m_[i - 1, j - 1] = rng.randrange(f.q)
        samples.append(Matrix(f, m_))
    return samples


def ad(alg, table, x):
    """ad(x) on the unit basis: column v is [x, units[v]], summed term by
    term over the entries of the Matrix x."""
    f, units = alg.field, alg.units
    index = {u: t for t, u in enumerate(units)}
    out = np.zeros((len(units), len(units)), dtype=np.int64)
    for (i, j) in units:
        xa = int(x.data[i - 1, j - 1])
        for v, y in enumerate(units):
            for c, u in table[((i, j), y)] if xa else ():
                out[index[u], v] = f.add(int(out[index[u], v]), f.mul(xa, c))
    return Matrix(f, out)


def ad_powers_hold(alg, table, samples):
    """ad(x)^p = ad(x^[p]) for each Matrix sample x."""
    return all(ad(alg, table, x).power(alg.field.p) == ad(alg, table, p_power(alg, x))
               for x in samples)


def supertrace_vanishes(alg, table):
    """str([x, y]) = 0 for every pair of units, one Matrix each."""
    for terms in table.values():
        mat = Matrix.zeros(alg.field, alg.d, alg.d)
        for c, (i, j) in terms:
            mat.data[i - 1, j - 1] = c
        if supertrace(alg, mat).idx:
            return False
    return True


def structure_record(alg, coef, seed):
    """structure-check's record for the coefficient array coef."""
    table, U = coefficient_table(alg, coef), len(alg.units)
    samples = ad_samples(alg, seed)
    ok = (anticommutes(alg, table) and jacobi_holds(alg, table)
          and ad_powers_hold(alg, table, samples) and supertrace_vanishes(alg, table))
    return {"checked": {"anticommutativity": U * U, "jacobi": U ** 3,
                        "ad_p_power": len(samples), "supertrace": U * U},
            "sampled": ["ad_p_power"], "all_pass": ok}
