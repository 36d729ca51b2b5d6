"""Differential tests of the field and matrix kernels.

Over F_p, Field.add/neg/sub/mul are integer arithmetic mod p and
linalg.matmul is one BLAS product mod p; over F_{p^K} the product is one
F_p product through the regular representation, and the log/exp tables
are built by blocks of F_p-matrix products.  Subspace inserts rows into its
echelon form.  The oracles below are the table formulas (base-p digits,
log/exp tables), the column-by-column product and the per-element
log/exp loop that these replaced, a row reduction written on top of
those formulas, and the scan of x^p - x over all q elements that the
linear Artin-Schreier solve replaced.  Every case must agree exactly, on
prime fields and on extension fields up to F_{5^5}.  matmul, matrix_power
and _matmul_mod also take stacks of matrices; each slice of a stacked
result must equal the 2-D result on that slice.  _matmul_mod's products
with float_copy right factors, float32 or float64, are checked against
Python-int dot products at the boundary between the two types and past
one float64 block.

rref, Subspace.reduce, add_vectors and annihilator pivot coordinate lines
(rows with one nonzero entry) by assignment; their cases are drawn with
such rows, including chains in which clearing one coordinate column leaves
a new single-entry row, and on full, empty, coordinate and mixed
subspaces.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from sympy import prevprime, primefactors

from glmn import analysis, linalg
from glmn.algebra import Character, build_algebra, weight_variety
from glmn.ffield import artin_schreier_roots, make_field
from glmn.linalg import Subspace, _matmul_mod, kernel_arr, matmul, rref
from glmn.verma import build_graded_verma, build_simple_g0_module

FIELDS = {"F5": make_field(5), "F7": make_field(7), "F11": make_field(11),
          "F25": make_field(5, 2), "F49": make_field(7, 2),
          "F125": make_field(5, 3), "F3125": make_field(5, 5)}

KERNEL_SETTINGS = settings(max_examples=30, deadline=None)


# ---------------------------------------------------------------------------
# table oracles

def t_digits(F, a):
    return F.digits[np.asarray(a, dtype=np.int64)].astype(np.int64)


def t_add(F, a, b):
    return ((t_digits(F, a) + t_digits(F, b)) % F.p) @ F._ppow


def t_neg(F, a):
    return ((-t_digits(F, a)) % F.p) @ F._ppow


def t_sub(F, a, b):
    return t_add(F, a, t_neg(F, b))


def t_mul(F, a, b):
    la = F.log_table[np.asarray(a, dtype=np.int64)]
    lb = F.log_table[np.asarray(b, dtype=np.int64)]
    return np.where((la >= 0) & (lb >= 0),
                    F.exp_table[(la + lb) % (F.q - 1)], 0)


def t_inv(F, a):
    return int(F.exp_table[(-F.log_table[a]) % (F.q - 1)])


def t_matmul(F, a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for t in range(a.shape[1]):
        out = t_add(F, out, t_mul(F, a[:, t][:, None], b[t, :][None, :]))
    return out


# schoolbook polynomials over F_p, little-endian coefficient lists, for the
# log/exp oracle

def _poly_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _poly_modred(a, mod, p):
    """a reduced mod the monic polynomial `mod`, coefficients mod p."""
    a = [c % p for c in a]
    k = len(mod) - 1
    for i in range(len(a) - 1, k - 1, -1):
        c = a[i]
        if c:
            for j in range(k + 1):
                a[i - k + j] = (a[i - k + j] - c * mod[j]) % p
    return _poly_trim(a[:k])


def _poly_mulmod(a, b, mod, p):
    """a*b reduced mod the monic polynomial `mod`, coefficients mod p."""
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            res[i + j] = (res[i + j] + ai * bj) % p
    return _poly_modred(res, mod, p)


def t_exp_log(F):
    """The log/exp tables of F's generator, one polynomial product a step."""
    mod = list(F.modulus)
    gen = _poly_trim([int(c) for c in F.digits[F.generator]])
    exp = np.empty(F.q - 1, dtype=np.int64)
    log = np.full(F.q, -1, dtype=np.int64)
    cur = [1]
    for i in range(F.q - 1):
        exp[i] = sum(c * F.p ** j for j, c in enumerate(cur))
        log[exp[i]] = i
        cur = _poly_mulmod(cur, gen, mod, F.p)
    assert cur == [1] and np.all(log[1:] >= 0), "generator order mismatch"
    return exp, log


def t_rref(F, arr):
    a = np.array(arr, dtype=np.int64)
    nrows, ncols = a.shape
    pivots, r = [], 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if len(nz) == 0:
            continue
        piv = r + int(nz[0])
        a[[r, piv]] = a[[piv, r]]
        a[r] = t_mul(F, a[r], t_inv(F, int(a[r, c])))
        factors = a[:, c].copy()
        factors[r] = 0
        a = t_sub(F, a, t_mul(F, factors[:, None], a[r][None, :]))
        pivots.append(c)
        r += 1
    return a, pivots


def t_span(F, rows, ambient):
    """Canonical basis of the span of rows, by the table oracle."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, ambient)
    a, pivots = t_rref(F, rows)
    return a[:len(pivots)]


def t_kernel(F, arr):
    ech, pivots = t_rref(F, arr)
    ncols = arr.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for bi, fc in enumerate(free):
        basis[bi, fc] = 1
        for ri, pc in enumerate(pivots):
            basis[bi, pc] = t_neg(F, ech[ri, fc])
    return t_span(F, basis, ncols)


def t_intersect(F, s, other):
    if s.dim == 0 or other.dim == 0:
        return np.zeros((0, s.ambient), dtype=np.int64)
    ker = t_kernel(F, np.vstack([s.basis, other.basis]).T)
    return t_span(F, t_matmul(F, ker[:, :s.dim], s.basis), s.ambient)


# ---------------------------------------------------------------------------
# strategies

@st.composite
def matrices(draw, q, rows=None, cols=None, max_side=6):
    """Index matrices, about half of them built with a deficient rank."""
    r = draw(st.integers(0, max_side)) if rows is None else rows
    c = draw(st.integers(1, max_side)) if cols is None else cols
    elems = st.integers(0, q - 1)
    if draw(st.booleans()):
        return draw(hnp.arrays(np.int64, (r, c), elements=elems))
    inner = draw(st.integers(0, max(min(r, c) - 1, 0)))
    left = draw(hnp.arrays(np.int64, (r, inner), elements=elems))
    right = draw(hnp.arrays(np.int64, (inner, c), elements=elems))
    return left, right


def draw_matrix(data, F, **kw):
    m = data.draw(matrices(F.q, **kw))
    return t_matmul(F, *m) if isinstance(m, tuple) else m


field_names = pytest.mark.parametrize("name", sorted(FIELDS))


# ---------------------------------------------------------------------------
# L0: field arithmetic

@field_names
@KERNEL_SETTINGS
@given(data=st.data())
def test_field_ops_match_tables(name, data):
    F = FIELDS[name]
    shape = data.draw(hnp.array_shapes(max_dims=2, max_side=6))
    elems = st.integers(0, F.q - 1)
    a = data.draw(hnp.arrays(np.int64, shape, elements=elems))
    b = data.draw(hnp.arrays(np.int64, shape, elements=elems))
    assert np.array_equal(F.add(a, b), t_add(F, a, b))
    assert np.array_equal(F.neg(a), t_neg(F, a))
    assert np.array_equal(F.sub(a, b), t_sub(F, a, b))
    assert np.array_equal(F.mul(a, b), t_mul(F, a, b))


@field_names
@pytest.mark.parametrize("scalar", [int, np.int64])
def test_scalar_ops_return_ints_and_match_tables(name, scalar):
    F = FIELDS[name]
    for x in range(F.q):
        for y in (0, 1, F.q - 1, (3 * x + 1) % F.q):
            a, b = scalar(x), scalar(y)
            for got, want in ((F.add(a, b), t_add(F, x, y)),
                              (F.sub(a, b), t_sub(F, x, y)),
                              (F.mul(a, b), t_mul(F, x, y)),
                              (F.neg(a), t_neg(F, x))):
                assert type(got) is int and got == int(want)


@pytest.mark.parametrize("p,k", [(5, 2), (5, 3), (5, 5), (7, 2), (7, 3), (11, 2)])
def test_log_tables_match_element_loop(p, k):
    F = make_field(p, k)
    exp, log = t_exp_log(F)
    assert np.array_equal(F.exp_table, exp)
    assert np.array_equal(F.log_table, log)
    # the generator is the least element of full order
    assert all(any(F.power(g, (F.q - 1) // r) == 1 for r in primefactors(F.q - 1))
               for g in range(1, F.generator))


def t_artin_schreier(F):
    """The roots of x^p - x = c for every c, by evaluating on all q elements."""
    xs = np.arange(F.q)
    log = F.log_table[xs]
    xp = np.where(log >= 0, F.exp_table[log * F.p % (F.q - 1)], 0)
    vals = t_sub(F, xp, xs)
    return [np.flatnonzero(vals == c).tolist() for c in range(F.q)]


@field_names
def test_artin_schreier_roots_match_scan(name):
    F = FIELDS[name]
    for c, want in enumerate(t_artin_schreier(F)):
        assert [x.idx for x in artin_schreier_roots(F, c)] == want


def test_frob_inv_inverts_frob_on_every_element():
    F = make_field(5, 3)
    a = np.arange(F.q)
    assert np.array_equal(F.frob_inv(F.frob(a)), a)
    assert np.array_equal(F.frob(F.frob_inv(a)), a)


def test_regular_representation_multiplies_digits():
    # digits(a b) = digits(a) @ regular[b] mod p, on every pair of F_125
    F = make_field(5, 3)
    a, b = np.divmod(np.arange(F.q ** 2), F.q)
    prod = np.einsum("ni,ind->nd", t_digits(F, a), F.regular[:, b].astype(np.int64))
    assert np.array_equal(prod % F.p @ F._ppow, t_mul(F, a, b))


# ---------------------------------------------------------------------------
# L1: products

@field_names
@KERNEL_SETTINGS
@given(data=st.data())
def test_matmul_matches_column_loop(name, data):
    F = FIELDS[name]
    n, k, m = (data.draw(st.integers(0, 7)) for _ in range(3))
    a = draw_matrix(data, F, rows=n, cols=k) if k else np.zeros((n, 0), np.int64)
    b = draw_matrix(data, F, rows=k, cols=m) if m else np.zeros((k, 0), np.int64)
    got = matmul(F, a, b)
    assert got.dtype == np.int64
    assert np.array_equal(got, t_matmul(F, a, b))


@pytest.mark.parametrize("k", [2, 5])
@KERNEL_SETTINGS
@given(data=st.data())
def test_extension_matmul_of_block_sparse_factors(k, data):
    # rows and inner columns each carry a block label (a parity, say) and
    # the left factor vanishes off the matching blocks, so every inner
    # column has zero rows that the product must skip without error
    F = make_field(5, k)
    n, inner, m = (data.draw(st.integers(1, 8)) for _ in range(3))
    elems = st.integers(0, F.q - 1)
    labels = st.integers(0, data.draw(st.integers(1, 3)))
    a = data.draw(hnp.arrays(np.int64, (n, inner), elements=elems))
    b = data.draw(hnp.arrays(np.int64, (inner, m), elements=elems))
    row_block = data.draw(hnp.arrays(np.int64, n, elements=labels))
    col_block = data.draw(hnp.arrays(np.int64, inner, elements=labels))
    a[row_block[:, None] != col_block[None, :]] = 0
    b[data.draw(hnp.arrays(bool, inner))] = 0
    assert np.array_equal(matmul(F, a, b), t_matmul(F, a, b))


@field_names
@pytest.mark.parametrize("n,k,m", [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0),
                                   (0, 5, 0), (2, 3, 4), (4, 3, 2), (1, 1, 1)])
def test_matmul_of_empty_and_zero_factors(name, n, k, m):
    F = FIELDS[name]
    rng = np.random.default_rng(n * 100 + k * 10 + m)
    zero_a, zero_b = np.zeros((n, k), np.int64), np.zeros((k, m), np.int64)
    full_a, full_b = rng.integers(0, F.q, (n, k)), rng.integers(0, F.q, (k, m))
    for a, b in ((zero_a, zero_b), (zero_a, full_b), (full_a, zero_b), (full_a, full_b)):
        got = matmul(F, a, b)
        assert got.shape == (n, m) and got.dtype == np.int64
        assert np.array_equal(got, t_matmul(F, a, b))


@pytest.mark.parametrize("name", ["F25", "F125", "F3125"])
@pytest.mark.parametrize("n,k,m", [(4, 20, 18), (18, 20, 4), (6, 6, 6), (9, 2, 10),
                                   (10, 2, 9), (1, 7, 1), (7, 1, 7)])
def test_matmul_on_either_side_of_the_size_choice(name, n, k, m):
    # the regular representation goes on b when b.size <= a.size and on a
    # otherwise; these shapes fall on both sides and on the tie, each dense
    # and at about 20% density
    F = FIELDS[name]
    rng = np.random.default_rng(n * k * m)
    a, b = rng.integers(0, F.q, (n, k)), rng.integers(0, F.q, (k, m))
    assert np.array_equal(matmul(F, a, b), t_matmul(F, a, b))
    a[rng.random(a.shape) > 0.2] = 0
    b[rng.random(b.shape) > 0.2] = 0
    assert np.array_equal(matmul(F, a, b), t_matmul(F, a, b))


# blocks of two terms: the prime below 2^26, far past any field's p, has
# (p - 1)^2 just below 2^52
BLOCK_PRIMES = [prevprime(2 ** 26)]


@pytest.mark.parametrize("p", BLOCK_PRIMES)
@KERNEL_SETTINGS
@given(data=st.data())
def test_blocked_inner_dimension_is_exact(p, data):
    n, k, m = (data.draw(st.integers(1, 9)) for _ in range(3))
    elems = st.one_of(st.integers(0, p - 1), st.sampled_from([p - 1, p - 2]))
    a = data.draw(hnp.arrays(np.int64, (n, k), elements=elems))
    b = data.draw(hnp.arrays(np.int64, (k, m), elements=elems))
    want = (a.astype(object) @ b.astype(object)) % p
    got = _matmul_mod(a, b, p)
    assert got.dtype == np.int64
    assert np.array_equal(got, want.astype(np.int64))


def test_blocked_inner_dimension_worst_case():
    # every entry p - 1, inner dimension far beyond one block
    for p in BLOCK_PRIMES:
        a = np.full((2, 11), p - 1, dtype=np.int64)
        want = (11 * (p - 1) ** 2) % p
        assert np.all(_matmul_mod(a, a.T, p) == want)


# float_copy makes a right factor float32 while inner * (p - 1)^2 < 2^24,
# and _matmul_mod then multiplies in float32.  At p = 4093, (p - 1)^2 =
# 16,744,464 lies just below 2^24, so inner dimension 1 is float32 and 2 is
# float64; 4092^2 + 4091^2 is odd and past 2^24, where float32 would round
# it.  Products with the copy must equal those with the index array.
FLOAT_BOUNDARY_P = 4093


@pytest.mark.parametrize("inner,ftype", [(1, np.float32), (2, np.float64)])
@KERNEL_SETTINGS
@given(data=st.data())
def test_float_copy_boundary_is_exact(inner, ftype, data):
    p = FLOAT_BOUNDARY_P
    n, m = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
    elems = st.one_of(st.integers(0, p - 1), st.sampled_from([p - 1, p - 2]))
    a = data.draw(hnp.arrays(np.int64, (n, inner), elements=elems))
    b = data.draw(hnp.arrays(np.int64, (inner, m), elements=elems))
    want = ((a.astype(object) @ b.astype(object)) % p).astype(np.int64)
    copy = linalg.float_copy(make_field(p), b)
    assert copy.dtype == ftype and copy.flags.c_contiguous
    for right in (b, copy):
        got = _matmul_mod(a, right, p)
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_float_copy_boundary_worst_case():
    p, F = FLOAT_BOUNDARY_P, make_field(FLOAT_BOUNDARY_P)
    a = np.array([[p - 1, p - 2]], dtype=np.int64)
    assert (p - 1) ** 2 < 2 ** 24 < (p - 1) ** 2 + (p - 2) ** 2
    for right in (a.T, linalg.float_copy(F, a.T)):
        assert _matmul_mod(a, right, p)[0, 0] == ((p - 1) ** 2 + (p - 2) ** 2) % p
    one = a[:, :1]
    assert linalg.float_copy(F, one.T).dtype == np.float32
    assert _matmul_mod(one, linalg.float_copy(F, one.T), p)[0, 0] == (p - 1) ** 2 % p


def test_float_copy_past_one_float64_block_is_exact():
    # inner dimension 20,000 at p near 8 * 10^5: two float64 blocks
    p = prevprime(8 * 10 ** 5)
    assert 20_000 > (2 ** 53 - 1) // (p - 1) ** 2
    rng = np.random.default_rng(2701)
    a, b = rng.integers(0, p, (2, 20_000)), rng.integers(0, p, (20_000, 3))
    a[:, ::2] = p - 1
    b[::3] = p - 1
    want = ((a.astype(object) @ b.astype(object)) % p).astype(np.int64)
    copy = linalg.float_copy(make_field(p), b)
    assert copy.dtype == np.float64
    assert np.array_equal(_matmul_mod(a, b, p), want)
    assert np.array_equal(_matmul_mod(a, copy, p), want)


# ---------------------------------------------------------------------------
# L1: batched products and powers, against the 2-D result of each slice

BATCH_FIELDS = pytest.mark.parametrize("name", ["F5", "F25", "F3125"])


@BATCH_FIELDS
@KERNEL_SETTINGS
@given(data=st.data())
def test_batched_matmul_matches_each_slice(name, data):
    # over F_{p^K} the regular representation goes on b unless b is the
    # larger factor (swap), so both sides of that choice are drawn
    F = FIELDS[name]
    swap = data.draw(st.booleans(), label="swap")
    c, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 7))
    small, large = sorted(data.draw(st.integers(1, 7)) for _ in range(2))
    if swap and small == large:
        large += 1
    n, m = (small, large) if swap else (large, small)
    elems = st.integers(0, F.q - 1)
    a = data.draw(hnp.arrays(np.int64, (c, n, k), elements=elems))
    b = data.draw(hnp.arrays(np.int64, (c, k, m), elements=elems))
    assert (b.size > a.size) == swap
    got = matmul(F, a, b)
    assert got.shape == (c, n, m) and got.dtype == np.int64
    for t in range(c):
        assert np.array_equal(got[t], matmul(F, a[t], b[t]))


@BATCH_FIELDS
@pytest.mark.parametrize("e", [0, 1, 2, 5])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_batched_matrix_power_matches_each_slice(name, e, data):
    F = FIELDS[name]
    c, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
    a = data.draw(hnp.arrays(np.int64, (c, n, n), elements=st.integers(0, F.q - 1)))
    got = linalg.matrix_power(F, a, e)
    assert got.shape == a.shape and got.dtype == np.int64
    assert not np.shares_memory(got, a)
    for t in range(c):
        assert np.array_equal(got[t], linalg.matrix_power(F, a[t], e))
    if e == 0:
        assert np.array_equal(got, np.broadcast_to(np.eye(n, dtype=np.int64), a.shape))
        got[0, 0, 0] = 2  # a stack of its own, not a broadcast view


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_batched_blocked_inner_dimension_matches_each_slice(data):
    # p = 7^7 allows about 13,300 float64 terms per block; the inner
    # dimension runs past one block, with entries p - 1 weighted in
    p = 823541
    block = (2 ** 53 - 1) // (p - 1) ** 2
    inner = block + data.draw(st.integers(1, 200), label="past one block")
    c, n, m = (data.draw(st.integers(1, 3)) for _ in range(3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    a, b = rng.integers(0, p, (c, n, inner)), rng.integers(0, p, (c, inner, m))
    a[rng.random(a.shape) < 0.5] = p - 1
    b[rng.random(b.shape) < 0.5] = p - 1
    got = _matmul_mod(a, b, p)
    assert got.shape == (c, n, m) and got.dtype == np.int64
    for t in range(c):
        assert np.array_equal(got[t], _matmul_mod(a[t], b[t], p))
    want = (a[0].astype(object) @ b[0].astype(object)) % p
    assert np.array_equal(got[0], want.astype(np.int64))


# ---------------------------------------------------------------------------
# L1: row reduction, kernels, subspaces

@field_names
@KERNEL_SETTINGS
@given(data=st.data())
def test_rref_and_kernel_match_oracle(name, data):
    F = FIELDS[name]
    a = draw_matrix(data, F)
    ech, pivots = rref(F, a)
    want, want_pivots = t_rref(F, a)
    assert pivots == want_pivots and np.array_equal(ech, want)
    ker = kernel_arr(F, a)
    assert np.array_equal(ker, t_kernel(F, a))
    assert ker.shape == (a.shape[1] - len(pivots), a.shape[1])
    assert not np.any(t_matmul(F, a, ker.T))


@field_names
@KERNEL_SETTINGS
@given(data=st.data())
def test_subspace_ops_match_rref_of_stacked_basis(name, data):
    F = FIELDS[name]
    n = data.draw(st.integers(1, 6))
    s = Subspace(F, n, draw_matrix(data, F, cols=n))
    rows = draw_matrix(data, F, cols=n)
    grown = s.add_vectors(rows)
    want = t_span(F, np.vstack([s.basis, rows]), n)
    assert np.array_equal(grown.basis, want)
    assert grown.pivots == [int(np.flatnonzero(r)[0]) for r in want]

    # reduce: sequential elimination along the pivots, by the tables
    for v in rows:
        res = v.copy()
        for ri, pc in enumerate(s.pivots):
            res = t_sub(F, res, t_mul(F, res[pc], s.basis[ri]))
        assert np.array_equal(s.reduce(v), res)
    assert np.array_equal(s.reduce(rows),
                          np.array([s.reduce(v) for v in rows]).reshape(rows.shape))

    other = Subspace(F, n, draw_matrix(data, F, cols=n))
    both = s.intersect(other)
    total = s.add(other)
    assert np.array_equal(total.basis, t_span(F, np.vstack([s.basis, other.basis]), n))
    assert np.array_equal(both.basis, t_intersect(F, s, other))
    assert both.dim == s.dim + other.dim - total.dim
    assert both <= s and both <= other


# ---------------------------------------------------------------------------
# L1: coordinate lines

LINE_FIELDS = pytest.mark.parametrize("name", ["F5", "F25", "F3125"])


def line_seeded(data, F, cols):
    """Rows with one nonzero entry, chains and random rows, shuffled.

    A chain row is nonzero at some columns of earlier single-entry or chain
    rows and at one column more, so clearing the earlier columns leaves it
    with one nonzero entry.
    """
    nonzero = st.integers(1, F.q - 1)
    rows, peeled = [], []
    for c in data.draw(st.lists(st.integers(0, cols - 1), min_size=1,
                                max_size=cols + 2), label="lines"):
        row = np.zeros(cols, dtype=np.int64)
        row[c] = data.draw(nonzero)
        rows.append(row)
        peeled.append(c)
    for _ in range(data.draw(st.integers(0, cols), label="chain")):
        row = np.zeros(cols, dtype=np.int64)
        for c in data.draw(st.lists(st.sampled_from(peeled), min_size=1, max_size=3)):
            row[c] = data.draw(nonzero)
        c = data.draw(st.integers(0, cols - 1))
        row[c] = data.draw(nonzero)
        rows.append(row)
        peeled.append(c)
    extra = data.draw(st.integers(0, 2), label="random rows")
    rows += list(data.draw(hnp.arrays(np.int64, (extra, cols),
                                      elements=st.integers(0, F.q - 1))))
    order = data.draw(st.permutations(range(len(rows))), label="order")
    return np.array([rows[i] for i in order], dtype=np.int64).reshape(-1, cols)


def test_rref_peels_a_chain_of_lines():
    F = FIELDS["F3125"]
    # e_0 clears row 1 to a multiple of e_1, which clears row 2 to one of e_2
    a = np.array([[0, 7, 9, 0], [3, 0, 0, 0], [0, 0, 11, 4], [0, 0, 0, 0],
                  [0, 2, 0, 0]], dtype=np.int64)
    ech, pivots = rref(F, a)
    want, want_pivots = t_rref(F, a)
    assert pivots == want_pivots == [0, 1, 2, 3]
    assert np.array_equal(ech, want)
    assert np.array_equal(ech[:4], np.eye(4, dtype=np.int64))


@LINE_FIELDS
@KERNEL_SETTINGS
@given(data=st.data())
def test_rref_of_line_seeded_rows_matches_oracle(name, data):
    F = FIELDS[name]
    a = line_seeded(data, F, data.draw(st.integers(1, 7), label="cols"))
    ech, pivots = rref(F, a)
    want, want_pivots = t_rref(F, a)
    assert pivots == want_pivots and np.array_equal(ech, want)
    assert np.array_equal(kernel_arr(F, a), t_kernel(F, a))


def subspace_of(data, F, n, kind):
    """A full, empty, coordinate or mixed subspace of F^n."""
    if kind == "empty":
        return Subspace(F, n)
    if kind == "full":
        # nonzero diagonal, anything above it: rank n
        upper = np.triu(data.draw(hnp.arrays(np.int64, (n, n),
                                             elements=st.integers(0, F.q - 1))), 1)
        diag = data.draw(hnp.arrays(np.int64, n, elements=st.integers(1, F.q - 1)))
        return Subspace(F, n, upper + np.diag(diag))
    cols = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    rows = np.zeros((len(cols), n), dtype=np.int64)
    rows[np.arange(len(cols)), cols] = data.draw(
        hnp.arrays(np.int64, len(cols), elements=st.integers(1, F.q - 1)))
    if kind == "mixed":
        rows = np.vstack([rows, draw_matrix(data, F, cols=n)])
    return Subspace(F, n, rows)


@LINE_FIELDS
@pytest.mark.parametrize("kind", ["empty", "full", "coordinate", "mixed"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_subspace_with_lines_matches_oracle(name, kind, data):
    F = FIELDS[name]
    n = data.draw(st.integers(1, 7), label="n")
    s = subspace_of(data, F, n, kind)
    assert np.array_equal(s.basis, t_span(F, s.basis, n))
    rows = line_seeded(data, F, n) if data.draw(st.booleans()) else \
        draw_matrix(data, F, cols=n)

    want = rows.copy()
    for ri, pc in enumerate(s.pivots):
        want = t_sub(F, want, t_mul(F, want[:, pc][:, None], s.basis[ri][None, :]))
    assert np.array_equal(s.reduce(rows), want)

    grown = s.add_vectors(rows)
    want = t_span(F, np.vstack([s.basis, rows]), n)
    assert np.array_equal(grown.basis, want)
    assert grown.pivots == [int(np.flatnonzero(r)[0]) for r in want]

    ann = s.annihilator()
    want = t_kernel(F, s.basis) if s.dim else np.eye(n, dtype=np.int64)
    assert np.array_equal(ann.basis, want.reshape(-1, n))
    assert ann.pivots == [int(np.flatnonzero(r)[0]) for r in ann.basis]
    assert ann.dim == n - s.dim and not np.any(t_matmul(F, s.basis, ann.basis.T))


def test_dual_core_of_a_simple_module_stops_eliminating_after_its_spin(monkeypatch):
    """The certificate of a simple graded Verma over F_{5^5} spins the
    whole dual module and reads R = 0 off it with no rref: the spin's
    echelon insert eliminates by columns, and no rref follows it."""
    alg = build_algebra(2, 1, make_field(5))
    alg, chi, weights = weight_variety(
        alg, Character(alg, {(1, 1): 1, (2, 2): 1, (3, 3): 1}))
    assert alg.field.q == 5 ** 5
    Z = build_graded_verma(alg, chi, build_simple_g0_module(alg, chi, weights[0]))
    events = []
    rref_, spin_ = linalg.rref, analysis._spin_stack

    def counted_rref(field, arr):
        events.append("rref")
        return rref_(field, arr)

    def marked_spin(Ms, ws):
        out = spin_(Ms, ws)
        events.append("spin")
        spun.extend(S.dim for S in out)
        return out

    spun = []
    monkeypatch.setattr(linalg, "rref", counted_rref)
    monkeypatch.setattr(analysis, "_spin_stack", marked_spin)
    R = analysis.dual_core(Z)
    assert R.dim == 0 and spun == [Z.dim]
    assert events == ["spin"]
