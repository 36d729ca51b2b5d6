"""Exact linear algebra checked by defining properties, not by re-running
the same code path: every assertion below verifies an identity (A A^-1 = I,
A v = 0, m(A) = 0, A v = lam v) or compares against an exhaustive count.
"""

import itertools
import random
from unittest import mock

import numpy as np
import pytest

from glmn import linalg
from glmn.ffield import make_field
from glmn.linalg import (Matrix, Subspace, matmul, matrix_power, matvec, rref,
                         row_reduce, kernel, kernel_basis, inverse, solve,
                         generalized_eigenspaces)


F = make_field(5)
F25 = make_field(5, 2)


# ---------------------------------------------------------------------------
# oracles: the Krylov minimal polynomial and the root scan that the
# eigenvalue search used before it read the minimal polynomial off one
# kernel; and the eigenspaces at the eigenvalues it finds

def eigenspaces(field, a):
    """(eigenvalue, Subspace ker (a - eig I)) at each eigenvalue in the field
    of generalized_eigenspaces, and whether these eigenspaces span F^n."""
    n = a.shape[0]
    pairs = [(lam, kernel(field, field.sub(a, lam * np.eye(n, dtype=np.int64))))
             for lam, _ in generalized_eigenspaces(field, a)]
    return pairs, sum(ker.dim for _, ker in pairs) == n


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
            return [field.neg(int(c)) for c in sol] + [1]
        powers.append(flat)
        span = span.add_vectors(flat)


def poly_roots(field, coeffs):
    """All roots in the field of a polynomial given by coefficient list."""
    xs = np.arange(field.q, dtype=np.int64)
    acc = np.full(field.q, coeffs[-1] % field.q, dtype=np.int64)
    for c in reversed(coeffs[:-1]):
        acc = field.add(field.mul(acc, xs), int(c))
    return [int(x) for x in xs[acc == 0]]


def rand_mat(field, rows, cols, rng):
    return Matrix(field, np.array([[rng.randrange(field.q) for _ in range(cols)]
                                   for _ in range(rows)], dtype=np.int64))


class TestMatrixArithmetic:
    def test_matmul_against_modular_integers(self):
        rng = random.Random(1)
        for _ in range(20):
            a = np.array([[rng.randrange(5) for _ in range(4)] for _ in range(3)])
            b = np.array([[rng.randrange(5) for _ in range(2)] for _ in range(4)])
            assert np.array_equal(matmul(F, a, b), (a @ b) % 5)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_matvec_equals_the_product_with_a_column(self, k):
        # a vector with one nonzero entry takes the scaled column of a,
        # any other the product
        field = make_field(5, k)
        rng = random.Random(k)
        for n in (1, 2, 7):
            a = rand_mat(field, n + 1, n, rng).data
            for nonzeros in range(n + 1):
                v = np.zeros(n, dtype=np.int64)
                for t in rng.sample(range(n), nonzeros):
                    v[t] = rng.randrange(1, field.q)
                want = matmul(field, a, v.reshape(-1, 1))[:, 0]
                got = matvec(field, a, v)
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_associativity_over_extension(self):
        rng = random.Random(2)
        a = rand_mat(F25, 3, 3, rng)
        b = rand_mat(F25, 3, 3, rng)
        c = rand_mat(F25, 3, 3, rng)
        assert (a @ b) @ c == a @ (b @ c)

    def test_power_matches_repeated_product(self):
        rng = random.Random(3)
        a = rand_mat(F25, 3, 3, rng)
        acc = Matrix.identity(F25, 3)
        for e in range(6):
            assert a.power(e) == acc
            acc = acc @ a

    @pytest.mark.parametrize("k", [1, 5])
    def test_matrix_power_matches_repeated_product(self, k):
        field = make_field(5, k)
        a = rand_mat(field, 4, 4, random.Random(k)).data
        acc = np.eye(4, dtype=np.int64)
        for e in range(2 * field.p + 1):
            got = matrix_power(field, a, e)
            assert np.array_equal(got, acc), e
            assert not np.shares_memory(got, a), e
            acc = matmul(field, acc, a)

    def test_matrix_power_skips_the_identity_and_the_last_square(self):
        # matrix_power multiplies through matmul's kernel, _matmul
        calls = []
        real = linalg._matmul
        a = rand_mat(F, 3, 3, random.Random(2)).data
        with mock.patch.object(linalg, "_matmul",
                               lambda *args: calls.append(1) or real(*args)):
            got = matrix_power(F, a, 5)
        assert len(calls) == 3
        want = a
        for _ in range(4):
            want = real(F, want, a)
        assert np.array_equal(got, want)


class TestRref:
    def test_idempotent_and_row_space_preserved(self):
        rng = random.Random(4)
        for _ in range(20):
            a = rand_mat(F, 4, 6, rng)
            e, pivots = rref(F, a.data)
            e2, pivots2 = rref(F, e)
            assert np.array_equal(e, e2) and pivots == pivots2
            # same row space: each original row reduces to zero against e
            s = Subspace(F, 6, e[: len(pivots)])
            for row in a.data:
                assert s.contains(row)

    def test_rank_matches_exhaustive_small_case(self):
        # all 2x2 matrices over F_5: rank 0/1/2 counts are known
        # (1 zero matrix; (q^2-1)(q^2-q) invertible; rest rank 1)
        counts = {0: 0, 1: 0, 2: 0}
        for entries in itertools.product(range(5), repeat=4):
            m = Matrix(F, np.array(entries).reshape(2, 2))
            _, rank = row_reduce(m)
            counts[rank] += 1
        assert counts[0] == 1
        assert counts[2] == (25 - 1) * (25 - 5)
        assert counts[1] == 5 ** 4 - 1 - counts[2]


class TestKernelInverseSolve:
    def test_kernel_vectors_annihilate(self):
        rng = random.Random(5)
        for _ in range(20):
            a = rand_mat(F25, 3, 5, rng)
            ker = kernel_basis(a)
            _, rank = row_reduce(a)
            assert ker.dim == 5 - rank
            for row in ker.basis:
                assert not np.any(matvec(F25, a.data, row))

    def test_inverse(self):
        rng = random.Random(6)
        found = 0
        while found < 10:
            a = rand_mat(F25, 4, 4, rng)
            try:
                ainv = inverse(a)
            except ValueError:
                continue
            found += 1
            assert a @ ainv == Matrix.identity(F25, 4)
            assert ainv @ a == Matrix.identity(F25, 4)

    def test_inverse_rejects_singular(self):
        a = Matrix(F, np.array([[1, 2], [2, 4]]))
        with pytest.raises(ValueError):
            inverse(a)

    def test_solve(self):
        rng = random.Random(7)
        for _ in range(10):
            a = rand_mat(F, 4, 3, rng)
            x0 = np.array([rng.randrange(5) for _ in range(3)])
            b = matvec(F, a.data, x0)
            x = solve(F, a.data, b)
            assert np.array_equal(matvec(F, a.data, x), b)

    def test_solve_inconsistent(self):
        a = np.array([[1, 0], [1, 0]])
        with pytest.raises(ValueError):
            solve(F, a, np.array([1, 2]))


class TestPolynomials:
    def test_minimal_polynomial_annihilates(self):
        rng = random.Random(8)
        for _ in range(10):
            a = rand_mat(F25, 4, 4, rng).data
            coeffs = minimal_polynomial(F25, a)
            acc = np.zeros((4, 4), dtype=np.int64)
            power = np.eye(4, dtype=np.int64)
            for c in coeffs:
                acc = F25.add(acc, F25.mul(power, int(c)))
                power = matmul(F25, power, a)
            assert not np.any(acc)
            assert coeffs[-1] == 1

    def test_minimal_polynomial_of_scalar(self):
        a = F25.mul(3, np.eye(2, dtype=np.int64))
        coeffs = minimal_polynomial(F25, a)
        # x - 3
        assert coeffs == [F25.neg(3), 1]

    def test_poly_roots_against_brute_force(self):
        rng = random.Random(9)
        for _ in range(10):
            coeffs = [rng.randrange(F25.q) for _ in range(4)] + [1]
            roots = set(poly_roots(F25, coeffs))
            for x in range(F25.q):
                val = 0
                for c in reversed(coeffs):
                    val = F25.add(F25.mul(val, x), int(c))
                assert (val == 0) == (x in roots)


class TestEigen:
    def test_eigenspaces_satisfy_definition(self):
        rng = random.Random(10)
        a = rand_mat(F, 4, 4, rng).data
        pairs, complete = eigenspaces(F, a)
        for lam, ker in pairs:
            assert ker.dim > 0
            for row in ker.basis:
                assert np.array_equal(matvec(F, a, row), F.mul(lam, row))

    def test_diagonal_matrix_is_complete(self):
        a = np.diag([1, 2, 2, 4]).astype(np.int64)
        pairs, complete = eigenspaces(F, a)
        assert complete
        dims = {lam: ker.dim for lam, ker in pairs}
        assert dims == {1: 1, 2: 2, 4: 1}

    def test_nilpotent_jordan_block_incomplete(self):
        a = np.array([[0, 1], [0, 0]], dtype=np.int64)
        pairs, complete = eigenspaces(F, a)
        assert not complete
        assert [lam for lam, _ in pairs] == [0]
        # the generalized eigenspace is the whole plane
        [(lam, space)] = generalized_eigenspaces(F, a)
        assert lam == 0 and space.dim == 2

    def test_empty_matrix(self):
        assert eigenspaces(F, np.zeros((0, 0), dtype=np.int64)) == ([], True)


def minimal_polynomial_eigenspaces(field, a):
    """eigenspaces by the Krylov route: the roots of the oracle minimal
    polynomial and the kernel of a - eig*I at each."""
    n = a.shape[0]
    pairs = []
    for lam in poly_roots(field, minimal_polynomial(field, a)):
        shifted = field.sub(a, lam * np.eye(n, dtype=np.int64))
        pairs.append((lam, Subspace(field, n, kernel(field, shifted).basis)))
    return pairs, sum(ker.dim for _, ker in pairs) == n


def conjugate(field, a, rng):
    """g a g^-1 for a random invertible g."""
    n = a.shape[0]
    while True:
        g = rand_mat(field, n, n, rng)
        if row_reduce(g)[1] == n:
            return matmul(field, matmul(field, g.data, a), inverse(g).data)


class TestEigenRoutes:
    """eigenspaces against the Krylov route: the roots of the oracle
    minimal polynomial and the kernel of a - eig*I at each."""

    FIELDS = {"F5": F, "F5^5": make_field(5, 5)}

    def check(self, field, a):
        pairs, complete = eigenspaces(field, a)
        want_pairs, want_complete = minimal_polynomial_eigenspaces(field, a)
        assert complete == want_complete
        assert [lam for lam, _ in pairs] == [lam for lam, _ in want_pairs]
        assert all(ker == want for (_, ker), (_, want) in zip(pairs, want_pairs))
        # each generalized eigenspace is the kernel of the n-th power of
        # a - eig I, taken by n products, and holds the eigenspace
        n = a.shape[0]
        for (lam, space), (_, ker) in zip(generalized_eigenspaces(field, a), pairs):
            shifted = field.sub(a, lam * np.eye(n, dtype=np.int64))
            power = np.eye(n, dtype=np.int64)
            for _ in range(n):
                power = matmul(field, power, shifted)
            assert space == kernel(field, power) and ker <= space
        return pairs, complete

    @pytest.mark.parametrize("name", sorted(FIELDS))
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_scalar(self, name, n):
        field = self.FIELDS[name]
        rng = random.Random(n)
        for c in [0, 1] + [rng.randrange(field.q) for _ in range(3)]:
            pairs, complete = self.check(field, c * np.eye(n, dtype=np.int64))
            assert complete and [lam for lam, _ in pairs] == [c]

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_diagonalizable(self, name):
        field = self.FIELDS[name]
        rng = random.Random(11)
        for n in (2, 3, 5):
            values = [rng.randrange(field.q) for _ in range(n - 1)]
            diag = np.diag([(values[0] + 1) % field.q] + values)
            pairs, complete = self.check(field, conjugate(field, diag, rng))
            assert complete and len(pairs) > 1

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_random(self, name):
        # minimal polynomials of every degree up to n, split or not
        field = self.FIELDS[name]
        rng = random.Random(13)
        for n in (1, 2, 3, 4, 5):
            for _ in range(4):
                a = rand_mat(field, n, n, rng).data
                a[np.tril_indices(n, -1)] *= rng.randrange(2)
                self.check(field, a)

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_not_split(self, name):
        # 2 is not a square mod 5, nor in F_{5^5}, which has no F_25 inside
        field = self.FIELDS[name]
        rng = random.Random(12)
        companion = np.array([[0, 2], [1, 0]], dtype=np.int64)
        jordan = np.array([[3, 1], [0, 3]], dtype=np.int64)
        for block in (companion, jordan):
            a = np.zeros((3, 3), dtype=np.int64)
            a[:2, :2] = block
            a[2, 2] = 4
            _, complete = self.check(field, conjugate(field, a, rng))
            assert not complete


class TestSubspace:
    def test_canonical_equality(self):
        # same space from different spanning sets gives identical bases
        s1 = Subspace(F, 3, np.array([[1, 2, 3], [0, 1, 1]]))
        # rows below are combinations of s1's rows: r1+r2, 2*r2, 3*r1+r2
        s2 = Subspace(F, 3, np.array([[1, 3, 4], [0, 2, 2], [3, 2, 0]]))
        assert s1 == s2

    def test_membership_and_coords(self):
        s = Subspace(F, 4, np.array([[1, 0, 2, 0], [0, 1, 3, 0]]))
        v = F.add(F.mul(2, s.basis[0]), F.mul(4, s.basis[1]))
        assert s.contains(v)
        assert np.array_equal(s.coords(v), [2, 4])
        assert not s.contains(np.array([0, 0, 0, 1]))

    def test_intersection_by_exhaustion(self):
        s1 = Subspace(F, 3, np.array([[1, 0, 0], [0, 1, 0]]))
        s2 = Subspace(F, 3, np.array([[0, 1, 1], [1, 0, 4]]))
        inter = s1.intersect(s2)
        # brute force: enumerate all vectors of s2, keep those in s1
        members = []
        for c1 in range(5):
            for c2 in range(5):
                v = F.add(F.mul(c1, s2.basis[0]), F.mul(c2, s2.basis[1]))
                if s1.contains(v):
                    members.append(v)
        brute = Subspace(F, 3, np.array(members))
        assert inter == brute

    def test_sum_dims(self):
        s1 = Subspace(F, 4, np.array([[1, 0, 0, 0]]))
        s2 = Subspace(F, 4, np.array([[0, 1, 0, 0], [1, 1, 0, 0]]))
        assert s1.add(s2).dim == 2
