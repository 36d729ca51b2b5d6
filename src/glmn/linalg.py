"""Dense exact linear algebra over F_{p^k}.

Matrices wrap a 2-D numpy array of field element indices.  Row reduction
produces the canonical reduced row-echelon form, which makes Subspace
comparison exact (equal subspaces have identical basis arrays).

Every echelon form is built by one insert (_insert) of a block of rows
into echelon bases: rref inserts into the empty basis, Subspace.add_vectors
into its own, and the lockstep spins into a stack of bases at once.  A row
with one nonzero entry, at column c, is a coordinate line e_c (a weight
vector of a one-dimensional weight space, say).  It pivots with no field
arithmetic: it is the canonical row of pivot c, and clearing column c from
other rows is an assignment.  The insert peels such rows before its
column steps, and reducing rows against a basis (_reduce, which
Subspace.reduce shares) clears the line basis rows by assignment, so only
the other rows go through a product.  Subspace.annihilator reads the null
space off the echelon basis: kernel is rref followed by annihilator.

Over a prime field a matrix product is one float64 BLAS product of the
residues reduced mod p, exact while every partial sum stays below 2^53:
longer inner dimensions are split into blocks that meet this bound.  A
right factor of many products is held as float32 (float_type) when
inner * (p - 1)^2 < 2^24, which keeps the sums exact.  F_{p^K} is a
K-dimensional F_p-algebra, so over an extension field the product is one
such F_p product of K-times-larger matrices: the base-p digits of one
factor against the regular representation (the F_p-matrices of
multiplication) of the other, the smaller, factor.
"""

from __future__ import annotations

import numpy as np

from .ffield import FieldElement, _power


class Matrix:
    """A rows x cols matrix of field elements."""

    __slots__ = ("field", "data")

    def __init__(self, field, data):
        self.field = field
        self.data = np.asarray(data, dtype=np.int64)
        if self.data.ndim != 2:
            raise ValueError("matrix data must be 2-dimensional")

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field, n):
        return cls(field, np.eye(n, dtype=np.int64))

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]

    def __add__(self, other):
        return Matrix(self.field, self.field.add(self.data, other.data))

    def __sub__(self, other):
        return Matrix(self.field, self.field.sub(self.data, other.data))

    def __neg__(self):
        return Matrix(self.field, self.field.neg(self.data))

    def __matmul__(self, other):
        return Matrix(self.field, matmul(self.field, self.data, other.data))

    def scale(self, c):
        c = c.idx if isinstance(c, FieldElement) else int(c)
        return Matrix(self.field, self.field.mul(self.data, c))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field is other.field
                and self.data.shape == other.data.shape
                and bool(np.all(self.data == other.data)))

    def __hash__(self):
        return hash((id(self.field), self.data.shape, self.data.tobytes()))

    def power(self, e):
        return Matrix(self.field, matrix_power(self.field, self.data, e))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field})"


_FLOAT_EXACT = 2 ** 53


def float_type(field, inner):
    """The type of a right factor of _matmul_mod over F_p with inner
    dimension inner: float32 when inner (p - 1)^2 < 2^24, else float64."""
    return np.float32 if inner * (field.p - 1) ** 2 < 2 ** 24 else np.float64


def _matmul_mod(a, b, p):
    """(a @ b) % p, exactly, for integer arrays (or stacks) in [0, p).

    Each block of the inner dimension is one BLAS product in float64, or in
    float32 when b is float32 (float_type chose it), short enough that its
    sums stay below 2^53, reduced mod p in int64.  Every field's p has
    (p - 1)^2 < 7^14 < 2^40, so a block holds at least 2^13 terms.
    """
    step = (p - 1) ** 2
    assert step < _FLOAT_EXACT
    block = (_FLOAT_EXACT - 1) // step
    inner = a.shape[-1]
    if inner <= block:
        ft = np.float32 if b.dtype == np.float32 else np.float64
        return (a.astype(ft, copy=False) @ b.astype(ft, copy=False)).astype(np.int64) % p
    out = 0
    for s in range(0, inner, block):
        part = (a[..., s:s + block].astype(np.float64, copy=False)
                @ b[..., s:s + block, :].astype(np.float64, copy=False))
        out = (out + part.astype(np.int64, copy=False) % p) % p
    return out


def matmul(field, a, b):
    """Matrix product on raw index arrays, 2-D; _matmul holds the code."""
    return _matmul(field, a, b)


def _matmul(field, a, b):
    """matmul's kernel, which stacked products call: perfbench's span on
    matmul counts 2-D products only.  Over F_p, b may be a float right
    factor (float_type), which goes to _matmul_mod as it is.  Over F_{p^K}
    one F_p product with digits(xy) = digits(x) @ regular[:, y], regular on
    the smaller factor."""
    a = np.asarray(a, dtype=np.int64)
    if field.k == 1 and isinstance(b, np.ndarray) and b.dtype.kind == "f":
        return _matmul_mod(a, b, field.p)
    b = np.asarray(b, dtype=np.int64)
    if field.k == 1:
        return _matmul_mod(a, b, field.p)
    swap = b.size > a.size  # then (ab)^T = b^T a^T puts regular on a
    if swap:
        a, b = b.swapaxes(-1, -2), a.swapaxes(-1, -2)
    inner, m, K, nb = a.shape[-1], b.shape[-1], field.k, b.ndim
    # (K, ..., inner, m, K) to (..., inner, K, m, K)
    right = field.regular.take(b, axis=1).transpose(*range(1, nb), 0, nb, nb + 1)
    out = _matmul_mod(field.digits.take(a, axis=0).reshape(*a.shape[:-1], inner * K),
                      right.reshape(*b.shape[:-2], inner * K, m * K), field.p)
    out = out.reshape(*out.shape[:-1], m, K) @ field._ppow
    return np.ascontiguousarray(out.swapaxes(-1, -2)) if swap else out


def matvec(field, a, v):
    """a v; for v with one nonzero entry, the column of a it scales, no product."""
    v = np.asarray(v, dtype=np.int64)
    if len(nz := np.flatnonzero(v)) == 1:
        return field.mul(np.asarray(a, dtype=np.int64)[:, nz[0]], int(v[nz[0]]))
    return matmul(field, a, v.reshape(-1, 1))[:, 0]


def matrix_power(field, a, e):
    """a^e for a square index array or a stack of them, by ffield._power."""
    return _power(np.asarray(a, dtype=np.int64), e, lambda x, y: _matmul(field, x, y))


def rref(field, arr):
    """Reduced row echelon form of a raw index array.

    Returns (int64 echelon array of the same shape, pivot column list): the
    rows of arr inserted into the empty subspace (_insert), in pivot order,
    padded with zero rows.  arr is not changed, nor widened: an empty basis
    only reads its nonzero pattern and copies its live rows.  The basis is
    the top of the output, whose pivot rows then move up one at a time (a
    wide arr takes a square buffer, copied down to its rows).
    """
    a = np.asarray(arr)
    n, d = a.shape
    out, piv = np.zeros((max(n, d), d), dtype=np.int64), np.zeros((1, d), dtype=bool)
    _insert(field, out[None, :d], piv, piv.copy(), a[None])
    pivots = np.flatnonzero(piv[0])
    # row c moves up to row t <= c, which no later pivot row is read from
    for t, c in enumerate(pivots):
        out[t] = out[c]
    out[len(pivots):d] = 0
    return (out if n >= d else out[:n].copy()), pivots.tolist()


def row_reduce(m):
    """Matrix-level reduced row echelon form; returns (Matrix, rank)."""
    a, pivots = rref(m.field, m.data)
    return Matrix(m.field, a), len(pivots)


def kernel(field, arr):
    """The right null space of a raw index array, as a Subspace: the
    annihilator of its row space."""
    a, pivots = rref(field, arr)
    return Subspace._echelon(field, a.shape[1], a[:len(pivots)], pivots).annihilator()


def kernel_basis(m):
    """Subspace of vectors v with M v = 0."""
    return kernel(m.field, m.data)


def inverse(m):
    """Inverse of a square Matrix; raises ValueError when singular."""
    return Matrix(m.field, invert(m.field, m.data))


def invert(field, a):
    """The inverse of a square index array; raises ValueError when singular."""
    n = len(a)
    aug, pivots = rref(field, np.hstack([a, np.eye(n, dtype=np.int64)]))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return aug[:, n:]


def solve(field, a, b):
    """One solution x of A x = b (A as index array, b a vector).

    Raises ValueError when inconsistent.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64).reshape(-1, 1)
    aug, pivots = rref(field, np.hstack([a, b]))
    ncols = a.shape[1]
    if ncols in pivots:
        raise ValueError("inconsistent linear system")
    x = np.zeros(ncols, dtype=np.int64)
    for ri, pc in enumerate(pivots):
        x[pc] = aug[ri, ncols]
    return x


def generalized_eigenspaces(field, a):
    """(eigenvalue index, Subspace ker (a - eig I)^n) for each eigenvalue of
    the (n, n) index array a that lies in the field, in increasing index;
    their dimensions sum to n exactly when every eigenvalue does.

    The eigenvalues are the roots in the field of the minimal polynomial.
    The kernel of the columns a^n, ..., a, I (flattened) holds the
    coefficients, highest degree first, of the polynomials of degree <= n
    that annihilate a.  The last row of its canonical basis has the
    rightmost pivot, so it is the monic one of least degree: the minimal
    polynomial.  One Horner pass over all q elements finds its roots.
    """
    n = a.shape[0]
    eye = np.eye(n, dtype=np.int64)
    powers = [eye]
    for _ in range(n):
        powers.append(matmul(field, powers[-1], a))
    stacked = np.stack(powers[::-1], axis=-1).reshape(n * n, n + 1)
    minpoly = kernel(field, stacked).basis[-1]
    xs = np.arange(field.q, dtype=np.int64)
    acc = np.zeros(field.q, dtype=np.int64)
    for c in minpoly:
        acc = field.add(field.mul(acc, xs), int(c))
    return [(lam, kernel(field, matrix_power(field, field.sub(a, lam * eye), n)))
            for lam in np.flatnonzero(acc == 0).tolist()]


def _reduce(field, rows, basis, cols, line):
    """Reduce the (B, R, d) rows, in place, against B echelon bases: take
    from each row, for each basis row with pivot c, the row's entry at c
    times that basis row.

    A basis row that is a coordinate line e_c only zeroes column c, by
    assignment; line (B, d) marks those columns.  The other basis rows,
    (B, k, d) with pivot columns cols (B, k), padded with zero rows, are
    zero at the line pivots, so they are subtracted in one stacked product
    from the rows that meet their pivots.
    """
    if cols.shape[1]:
        coef = np.take_along_axis(rows, cols[:, None], axis=2)
        hit = _first(coef.any(axis=2))
        if hit[1].size:
            rows[hit] = field.sub(rows[hit], _matmul(field, coef[hit], basis))
    if line.any():
        rows *= ~line[:, None]


def _first(mask):
    """The index pair that picks, in each module of a (B, R, ...) stack, the
    rows mask (B, R) marks, in order, padded with others to one count."""
    n = int(mask.sum(axis=1).max(initial=0))
    return np.arange(len(mask))[:, None], np.argsort(~mask, axis=1, kind="stable")[:, :n]


def _insert(field, E, piv, line, rows):
    """Insert the (B, R, d) rows into B echelon forms of subspaces of F^d,
    rows[b] into the one of E[b], in place, and return the (B, d) mask of
    the pivots each one gained.  Row c of E[b] is the basis row with pivot
    c where piv[b, c], zero elsewhere, and line[b, c] marks the coordinate
    lines e_c among them.  rows is reduced against the bases in place
    (_reduce), so an empty basis leaves it as it is.

    The residuals then go to echelon form beside the other basis rows,
    which so lose the new pivot columns.  A residual with one nonzero
    entry, at column c, is the line e_c: it pivots with no arithmetic, and
    column c leaves the other rows, which may leave new single-entry rows.
    This peel runs on the nonzero pattern of the live rows, which shrink
    as rows become lines or vanish.  The live rows, without the line
    columns, are then copied once beside the basis rows, and one column
    step at a time across the stack, each module with a live nonzero in
    the column takes the first one, scaled to 1 there, and clears the
    column from its other rows.
    """
    f, (B, R, d) = field, rows.shape
    full, was = piv & ~line, piv.copy()
    at = _first(full)
    old, k = E[at] * full[at][:, :, None], len(at[1][0])
    _reduce(f, rows, old, at[1], line)
    pat = rows != 0
    count = pat.sum(axis=2)
    b, r = np.nonzero(count)
    pat, count, new = pat[b, r], count[b, r], np.zeros((B, d), dtype=bool)
    while (one := count == 1).any():
        new[b[one], pat[one].argmax(axis=1)] = True
        live = count > 1
        b, r, pat = b[live], r[live], pat[live]
        pat &= ~new[b]
        count = pat.sum(axis=1)
    live = count > 0
    b, r, keep = b[live], r[live], np.flatnonzero(~new.all(axis=0))
    pos = np.arange(len(b)) - np.searchsorted(b, b)
    res = np.zeros((B, k + pos.max(initial=-1) + 1, len(keep)), dtype=np.int64)
    res[:, :k] = old[:, :, keep]
    res[b, k + pos] = rows[b[:, None], r[:, None], keep]
    res *= ~new[:, None, keep]
    taken, pcol = np.zeros(res.shape[:2], dtype=bool), np.zeros(res.shape[:2], dtype=np.int64)
    taken[:, :k], pcol[:, :k] = full[at], np.searchsorted(keep, at[1])
    # a column step combines live rows only, so their nonzeros stay in these columns
    reach = res[:, k:].any(axis=(0, 1))
    for c in (c for c in range(len(keep)) if reach[c]):
        hit = res[:, :, c] != 0
        free = hit & ~taken
        bs = np.flatnonzero(free.any(axis=1))
        if len(bs):
            r = free[bs].argmax(axis=1)
            prow = f.mul(res[bs, r, c:], f.inv(res[bs, r, c])[:, None])
            hb, hr = np.nonzero(hit[bs])
            sub = res[bs[hb], hr, c:]
            res[bs[hb], hr, c:] = f.sub(sub, f.mul(sub[:, :1], prow[hb]))
            res[bs, r, c:], taken[bs, r], pcol[bs, r] = prow, True, c
    bi, ri = np.nonzero(taken)
    c, b, cl = keep[pcol[bi, ri]], *np.nonzero(new)
    E[bi, c] = 0
    E[bi[:, None], c[:, None], keep], E[b, cl, cl] = res[bi, ri], 1
    piv[bi, c], piv[b, cl], line[b, cl] = True, True, True
    line[bi, c] = np.count_nonzero(E[bi, c], axis=1) == 1
    return piv & ~was


class Subspace:
    """A subspace of F^n given by a canonical (rref) basis."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field, ambient, basis_rows=None):
        self.field = field
        self.ambient = ambient
        if basis_rows is None or len(basis_rows) == 0:
            self.basis = np.zeros((0, ambient), dtype=np.int64)
            self.pivots = []
        else:
            a, pivots = rref(field, np.asarray(basis_rows, dtype=np.int64))
            self.basis = a[: len(pivots)]
            self.pivots = pivots

    @property
    def dim(self):
        return self.basis.shape[0]

    @classmethod
    def _echelon(cls, field, ambient, basis, pivots):
        """A Subspace from a basis already in reduced echelon form."""
        sub = cls.__new__(cls)
        sub.field, sub.ambient, sub.basis, sub.pivots = field, ambient, basis, pivots
        return sub

    def reduce(self, vec):
        """Residual of vec after subtracting its projection onto the span.

        vec may also be a 2-D array, reduced row by row.  The basis is in
        reduced echelon form, so the coefficients of the projection are
        the entries of vec at the pivot columns (_reduce).
        """
        v = np.array(vec, dtype=np.int64)
        pivots = np.array(self.pivots, dtype=np.int64)
        lines = np.count_nonzero(self.basis, axis=1) == 1
        at_line = np.zeros((1, self.ambient), dtype=bool)
        at_line[0, pivots[lines]] = True
        _reduce(self.field, v.reshape(1, -1, self.ambient), self.basis[None, ~lines],
                pivots[None, ~lines], at_line)
        return v

    def contains(self, vec):
        return not np.any(self.reduce(vec))

    def coords(self, vec):
        """Coefficients of vec on the canonical basis (vec must lie in it).

        vec may also be a 2-D array, giving one coefficient row per row.
        """
        v = np.asarray(vec, dtype=np.int64)
        if np.any(self.reduce(v)):
            raise ValueError("vector not in subspace")
        return v[..., self.pivots]

    def add(self, other):
        if self.dim < other.dim:
            return other.add_vectors(self.basis)
        return self.add_vectors(other.basis)

    def add_vectors(self, rows):
        """The span of self and a block of rows, inserted all at once by
        _insert."""
        n, f = self.ambient, self.field
        E, piv = np.zeros((1, n, n), dtype=np.int64), np.zeros((1, n), dtype=bool)
        E[0, self.pivots], piv[0, self.pivots] = self.basis, True
        _insert(f, E, piv, piv & (np.count_nonzero(E, axis=2) == 1),
                np.array(rows, dtype=np.int64).reshape(1, -1, n))
        return Subspace._echelon(f, n, E[0, piv[0]], np.flatnonzero(piv[0]).tolist())

    def annihilator(self):
        """The subspace of vectors v with b . v = 0 for every basis row b.

        Free column c gives the null vector with 1 at c and minus column c
        of the basis at the pivots.  With no free column the annihilator is
        0, and otherwise one rref of these vectors gives its canonical
        basis; where the basis rows are coordinate lines, the null vectors
        are too, and that rref does no arithmetic.
        """
        n = self.ambient
        free = np.delete(np.arange(n), self.pivots)
        if not len(free):
            return Subspace(self.field, n)
        rows = np.zeros((len(free), n), dtype=np.int64)
        rows[np.arange(len(free)), free] = 1
        if self.pivots:
            rows[:, self.pivots] = self.field.neg(self.basis[:, free].T)
        rows, pivots = rref(self.field, rows)
        return Subspace._echelon(self.field, n, rows, pivots)

    def split(self, keys):
        """The pieces of a graded subspace, as (key, Subspace) sorted by key.

        keys[c] is the grade of coordinate c.  When the subspace is the sum
        of its intersections with the blocks of coordinates of equal key,
        its canonical basis is the union of theirs: each basis row lies in
        one block, the one of its pivot.  Raises ValueError when a basis
        row leaves that block.
        """
        codes = {}
        code = np.array([codes.setdefault(k, len(codes)) for k in keys], dtype=np.int64)
        pivots = np.array(self.pivots, dtype=np.int64)
        row_code = code[pivots]
        if np.any((self.basis != 0) & (code != row_code[:, None])):
            raise ValueError("subspace is not graded by these keys")
        present = set(row_code.tolist())
        return [(key, Subspace._echelon(self.field, self.ambient,
                                        self.basis[row_code == c],
                                        pivots[row_code == c].tolist()))
                for key, c in sorted(codes.items()) if c in present]

    def intersect(self, other):
        # null space construction on stacked bases; only perfbench/spans.py names it
        if self.dim == 0 or other.dim == 0:
            return Subspace(self.field, self.ambient)
        stacked = np.vstack([self.basis, other.basis]).T  # ambient x (d1+d2)
        ker = kernel(self.field, stacked).basis
        return Subspace(self.field, self.ambient,
                        matmul(self.field, ker[:, :self.dim], self.basis))

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.basis.shape == other.basis.shape
                and bool(np.all(self.basis == other.basis)))

    def __le__(self, other):
        return not np.any(other.reduce(self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of F^{self.ambient})"
