"""Dense exact linear algebra over F_{p^k}.

Matrices wrap a 2-D numpy array of field element indices.  Row reduction
produces the canonical reduced row-echelon form, which makes Subspace
comparison exact (equal subspaces have identical basis arrays).  Each
pivot step of rref touches only the rows that are nonzero in the pivot
column, so sparse matrices reduce fast.  A Subspace grows by whole blocks:
add_vectors reduces all new rows against the basis in one product, runs
rref on the residual once and merges the new pivot rows into the basis.

Over a prime field a matrix product is one float64 BLAS product of the
residues reduced mod p.  It is exact while every partial sum stays below
2^53, that is while inner * (p - 1)^2 < 2^53; longer inner dimensions are
split into blocks that meet this bound.  Extension fields multiply column
by column through the field's tables.
"""

from __future__ import annotations

import numpy as np

from .ffield import FieldElement


def _as_index_array(field, data):
    arr = np.array(data, dtype=object)
    if arr.size and isinstance(arr.flat[0], FieldElement):
        arr = np.vectorize(lambda e: e.idx, otypes=[np.int64])(arr)
    return np.asarray(arr, dtype=np.int64)


class Matrix:
    """A rows x cols matrix of field elements."""

    __slots__ = ("field", "data")

    def __init__(self, field, data):
        self.field = field
        self.data = np.asarray(data, dtype=np.int64)
        if self.data.ndim != 2:
            raise ValueError("matrix data must be 2-dimensional")

    @classmethod
    def from_rows(cls, field, rows):
        return cls(field, _as_index_array(field, rows))

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

    def entry(self, i, j):
        return FieldElement(self.field, int(self.data[i, j]))

    def copy(self):
        return Matrix(self.field, self.data.copy())

    def transpose(self):
        return Matrix(self.field, self.data.T.copy())

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

    def is_zero(self):
        return not np.any(self.data)

    def power(self, e):
        assert self.rows == self.cols and e >= 0
        result = np.eye(self.rows, dtype=np.int64)
        base = self.data
        while e:
            if e & 1:
                result = matmul(self.field, result, base)
            base = matmul(self.field, base, base)
            e >>= 1
        return Matrix(self.field, result)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field})"


_FLOAT_EXACT = 2 ** 53
_INT64_EXACT = 2 ** 63


def _matmul_mod(a, b, p):
    """(a @ b) % p, exactly, for int64 arrays with entries in [0, p).

    Each block of the inner dimension is one BLAS product in float64,
    short enough that its sums stay below 2^53.  A prime too large for a
    single float64 product, (p - 1)^2 >= 2^53, takes int64 blocks under
    2^63 instead.
    """
    step = (p - 1) ** 2
    if step < _FLOAT_EXACT:
        dtype, block = np.float64, (_FLOAT_EXACT - 1) // step
    else:
        dtype, block = np.int64, (_INT64_EXACT - 1) // step
    if block == 0:
        raise ValueError(f"p = {p} is too large for exact int64 products")
    inner = a.shape[1]
    if inner <= block:
        return (a.astype(dtype) @ b.astype(dtype) % p).astype(np.int64)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, inner, block):
        part = a[:, s:s + block].astype(dtype) @ b[s:s + block].astype(dtype)
        out = (out + (part % p).astype(np.int64)) % p
    return out


def matmul(field, a, b):
    """Matrix product on raw index arrays."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if field.k == 1:
        return _matmul_mod(a, b, field.p)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for t in np.flatnonzero(a.any(axis=0) & b.any(axis=1)):
        out = field.add(out, field.mul(a[:, t, None], b[None, t, :]))
    return out


def matvec(field, a, v):
    return matmul(field, a, np.asarray(v, dtype=np.int64).reshape(-1, 1))[:, 0]


def rref(field, arr):
    """Reduced row echelon form of a raw index array.

    Returns (echelon array of the same shape, pivot column list).  Each
    pivot step updates only the rows with a nonzero entry in the pivot
    column, so a sparse matrix (a stacked action, say) costs in proportion
    to its nonzeros in the pivot columns rather than to its full size.
    """
    a = np.array(arr, dtype=np.int64)
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if len(nz) == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = field.mul(a[r], field.inv(int(a[r, c])))
        # row r vanishes left of c: earlier columns are pivots or were zero
        rows = np.flatnonzero(a[:, c])
        rows = rows[rows != r]
        if len(rows):
            a[rows, c:] = field.sub(a[rows, c:],
                                    field.mul(a[rows, c][:, None], a[r, c:][None, :]))
        pivots.append(c)
        r += 1
    return a, pivots


def row_reduce(m):
    """Matrix-level reduced row echelon form; returns (Matrix, rank)."""
    a, pivots = rref(m.field, m.data)
    return Matrix(m.field, a), len(pivots)


def kernel_arr(field, arr):
    """Canonical basis of the right null space of a raw index array.

    Returns a (nullity, cols) array in reduced row-echelon form.
    """
    arr = np.asarray(arr, dtype=np.int64)
    ncols = arr.shape[1]
    a, pivots = rref(field, arr)
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return np.zeros((0, ncols), dtype=np.int64)
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for bi, fc in enumerate(free):
        basis[bi, fc] = 1
        for ri, pc in enumerate(pivots):
            basis[bi, pc] = field.neg(int(a[ri, fc]))
    basis, _ = rref(field, basis)
    return basis


def kernel_basis(m):
    """Subspace of vectors v with M v = 0."""
    return Subspace(m.field, m.cols, kernel_arr(m.field, m.data))


def inverse(m):
    """Inverse of a square Matrix; raises ValueError when singular."""
    n = m.rows
    aug, pivots = rref(m.field, np.hstack([m.data, np.eye(n, dtype=np.int64)]))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(m.field, aug[:, n:])


def minimal_polynomial(field, a):
    """Monic minimal polynomial of a square index array.

    Returned as a coefficient list c[0] + c[1] x + ... + x^deg, found as
    the first linear dependency among the flattened powers I, A, A^2, ...
    """
    n = a.shape[0]
    powers = [np.eye(n, dtype=np.int64).reshape(-1)]
    span = Subspace(field, n * n, powers[0][None, :])
    cur = np.eye(n, dtype=np.int64)
    while True:
        cur = matmul(field, cur, a)
        flat = cur.reshape(-1)
        if span.contains(flat):
            # solve for coefficients on the recorded powers
            stacked = np.array(powers, dtype=np.int64).T
            sol = solve(field, stacked, flat)
            deg = len(powers)
            coeffs = [field.neg(int(c)) for c in sol] + [1]
            return coeffs
        powers.append(flat)
        span = span.add_vectors(flat)


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


def poly_roots(field, coeffs):
    """All roots in the field of a polynomial given by coefficient list."""
    xs = np.arange(field.q, dtype=np.int64)
    acc = np.full(field.q, coeffs[-1] % field.q, dtype=np.int64)
    for c in reversed(coeffs[:-1]):
        acc = field.add(field.mul(acc, xs), int(c))
    return [int(x) for x in xs[acc == 0]]


def eigenspaces(field, a):
    """Eigenvalues and eigenvector kernels of a square index array.

    Returns (pairs, complete) where pairs is a list of (eigenvalue index,
    kernel Subspace of a - eig*I) and complete says whether the
    eigenspaces together span the whole space.
    """
    n = a.shape[0]
    coeffs = minimal_polynomial(field, a)
    pairs = []
    total = 0
    for lam in poly_roots(field, coeffs):
        shifted = field.sub(a, lam * np.eye(n, dtype=np.int64))
        ker = Subspace(field, n, kernel_arr(field, shifted))
        pairs.append((lam, ker))
        total += ker.dim
    return pairs, total == n


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

    @classmethod
    def full(cls, field, ambient):
        return cls(field, ambient, np.eye(ambient, dtype=np.int64))

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
        the entries of vec at the pivot columns.
        """
        v = np.asarray(vec, dtype=np.int64)
        if not self.pivots:
            return v.copy()
        rows = v.reshape(-1, self.ambient)
        proj = matmul(self.field, rows[:, self.pivots], self.basis)
        return self.field.sub(rows, proj).reshape(v.shape)

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
        """The span of self and a block of rows, inserted all at once.

        The rows are reduced against the basis in one product; the nonzero
        residuals vanish at every pivot, and their own rref gives the new
        pivot rows.  One more product clears the new pivot columns from the
        old basis, and the two blocks are merged by pivot.
        """
        f = self.field
        res = self.reduce(np.asarray(rows, dtype=np.int64).reshape(-1, self.ambient))
        res = res[res.any(axis=1)]
        if not len(res):
            return self
        new, new_pivots = rref(f, res)
        new = new[:len(new_pivots)]
        basis = self.basis
        if self.pivots:
            basis = f.sub(basis, matmul(f, basis[:, new_pivots], new))
        pivots = self.pivots + new_pivots
        order = np.argsort(pivots)
        return Subspace._echelon(f, self.ambient, np.concatenate((basis, new))[order],
                                 sorted(pivots))

    def intersect(self, other):
        # null space construction on stacked bases
        if self.dim == 0 or other.dim == 0:
            return Subspace(self.field, self.ambient)
        stacked = np.vstack([self.basis, other.basis]).T  # ambient x (d1+d2)
        ker = kernel_arr(self.field, stacked)
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
