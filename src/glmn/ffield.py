"""Exact arithmetic in finite fields F_{p^k}.

Elements are encoded as integers 0 .. p^k - 1, the little-endian base-p
encoding of the coefficient vector of the residue representative.  The
arithmetic works elementwise on numpy arrays of element indices, so
matrices can be processed without Python loops, and in plain integers on
Python int scalars, for every k, with int results.  Over a prime field
(k == 1) an index is its residue, and add, neg, sub and mul are integer
arithmetic mod p.  Extension fields (k > 1) add and subtract base-p digits
and multiply through discrete log/exp tables; inverses, powers and the
Frobenius use those tables for every k.  The table `regular` holds the
F_p-matrix of multiplication by each element (its regular representation),
so that linalg multiplies matrices over F_{p^k} as one F_p product.  The
tables have q = p^k rows: make_field refuses q > 7^7 (BudgetExceeded, exit
code 2 in the CLI) before it builds anything, and `check_field_budget`
runs before any other check of p.  An Artin-Schreier equation over F_p has
its roots in F_{p^p}, so `Field.extend` is the one step F_p -> F_{p^p}; an
F_p index names the same element in both fields.

Primality of p and the prime factors of k and q - 1 come from trial
division, `_prime_factors`: the numbers it sees are at most 7^7.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import BudgetExceeded, CompositeP, NonIrreducibleModulus, PTooSmall


# ---------------------------------------------------------------------------
# primality and factors of small integers
# ---------------------------------------------------------------------------

def _prime_factors(n):
    """The distinct primes dividing n >= 1, increasing, by trial division."""
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


def isprime(n):
    """Primality of an integer, by trial division."""
    return n > 1 and _prime_factors(n) == [n]


# ---------------------------------------------------------------------------
# F_p-matrices: the companion matrix and Rabin's irreducibility test
# ---------------------------------------------------------------------------

def _companion(poly, p):
    """The F_p-matrix X of multiplication by x modulo the monic poly.

    digits(yx) = digits(y) @ X: row i is x^(i+1), the last row reduces
    x^k by poly.  The minimal polynomial of X is poly, so h(X) = 0 exactly
    when poly divides h.
    """
    X = np.eye(len(poly) - 1, k=1, dtype=np.int64)
    X[-1] = [-int(c) % p for c in poly[:-1]]
    return X


def _power(a, e, mul):
    """a^e for an int64 (n, n) array, or for each matrix of a (..., n, n)
    stack, by repeated squaring with the product mul, from a and not the
    identity and skipping the last, unused square: a^5 takes three products
    and a^0 is identities.  The result never shares memory with a."""
    assert a.shape[-1] == a.shape[-2] and e >= 0
    if e == 0:
        return np.broadcast_to(np.eye(a.shape[-1], dtype=np.int64), a.shape).copy()
    result, base = None, a
    while True:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if not e:
            return result.copy() if result is a else result
        base = mul(base, base)


def _matpow(M, e, p):
    """M^e mod p for a square int64 array over F_p."""
    return _power(M, e, lambda x, y: x @ y % p)


def is_irreducible(poly, p):
    """Irreducibility of a monic polynomial f over F_p, by Rabin's test.

    The test runs on the companion matrix C of f, of degree k.  C^(p^k) = C
    says that f divides x^(p^k) - x, so F_p[C] is a product of fields
    F_{p^d} with d | k, in which u is a unit iff u^(p^k - 1) = I.  f is
    then irreducible iff C^(p^(k/r)) - C is a unit for every prime r | k
    (Rabin, "Probabilistic algorithms in finite fields", SIAM J. Comput.
    9 (1980)).
    """
    poly = list(poly)
    k = len(poly) - 1
    if k < 1 or poly[-1] != 1:
        return False
    C, one = _companion(poly, p), np.eye(k, dtype=np.int64)
    if not np.array_equal(_matpow(C, p ** k, p), C):
        return False
    return all(np.array_equal(_matpow((_matpow(C, p ** (k // r), p) - C) % p,
                                      p ** k - 1, p), one)
               for r in _prime_factors(k))


def default_modulus(p, k):
    """Lexicographically least irreducible monic degree-k polynomial.

    For k = 1 that is x.  For k > 1 a polynomial with constant term 0 is
    divisible by x, so the constant term runs from 1.
    """
    if k == 1:
        return [0, 1]
    for tail in itertools.product(range(1, p), *[range(p)] * (k - 1)):
        poly = list(tail) + [1]
        if is_irreducible(poly, p):
            return poly
    raise NonIrreducibleModulus(f"no irreducible polynomial of degree {k} over F_{p}")


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class Field:
    """The finite field F_{p^k} with vectorized arithmetic on indices."""

    def __init__(self, p, k, modulus):
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = tuple(modulus)
        self._ppow = p ** np.arange(k, dtype=np.int64)
        idx = np.arange(self.q, dtype=np.int64)
        # regular[i, b] = digits of x^i b, row i of the F_p-matrix of
        # multiplication by b; digits[b] = regular[0, b], little-endian base p
        self.regular = np.zeros((k, self.q, k), dtype=np.min_scalar_type(p - 1))
        self.digits = self.regular[0]
        for d, w in enumerate(self._ppow):
            self.digits[:, d] = idx // w % p
        self._build_log_tables()
        for i in range(1, k):  # x^i g^j = g^(j + i log x): in log order, a rotation
            self.regular[i, self.exp_table] = self.digits[
                np.roll(self.exp_table, -i * int(self.log_table[p]))]

    # -- construction of log/exp tables -------------------------------------

    def _mul_matrix(self, a):
        """The F_p-matrix M of multiplication by a: digits(ya) = digits(y) @ M."""
        X = _companion(self.modulus, self.p)
        M, P = np.zeros_like(X), np.eye(self.k, dtype=np.int64)
        for c in self.digits[a]:
            M, P = (M + int(c) * P) % self.p, P @ X % self.p
        return M

    def _build_log_tables(self):
        """exp[i] = g^i and log[g^i] = i (log[0] = -1) for the least generator g.

        The digit rows of g^0 .. g^(s-1) times the F_p-matrix of
        multiplication by g^n are those of g^n .. g^(n+s-1): the exp table
        doubles, by blocks of at most 2^16 rows to bound the temporaries.
        """
        q, p, one = self.q, self.p, np.eye(self.k, dtype=np.int64)
        primes = _prime_factors(q - 1)
        self.generator = next(g for g in range(1, q) if not any(np.array_equal(
            _matpow(self._mul_matrix(g), (q - 1) // r, p), one) for r in primes))
        exp, Mg = np.empty(q - 1, dtype=np.int64), self._mul_matrix(self.generator)
        exp[0], n = 1, 1
        while n < q - 1:
            s = min(n, q - 1 - n, 1 << 16)
            rows = self.digits[exp[:s]] @ _matpow(Mg, n, p)
            rows %= p
            exp[n:n + s] = rows @ self._ppow
            n += s
        self.exp_table = exp
        self.log_table = np.full(q, -1, dtype=np.int64)
        self.log_table[exp] = np.arange(q - 1)

    # -- arithmetic on element indices ---------------------------------------

    # Python int scalars take plain integer arithmetic for every k, with int
    # results: add, neg and sub on base-p digits, mul, inv and power by one
    # log lookup per operand and one exp lookup.  Arrays, numpy scalars and
    # bools take the vectorized route.  Over F_p the index is the residue.

    def _digitwise(self, a, b, sign):
        """The index of digits(a) + sign * digits(b) mod p, for int indices."""
        p = self.p
        if self.k == 1:
            return (a + sign * b) % p
        out, w = 0, 1
        while a or b:
            (a, da), (b, db) = divmod(a, p), divmod(b, p)
            out, w = out + (da + sign * db) % p * w, w * p
        return out

    def _combine(self, ufunc, a, b):
        """np.add or np.subtract of digits(a) and digits(b) mod p, for arrays."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if self.k == 1:
            out = ufunc(a, b) % self.p
        else:
            out = (ufunc(self.digits[a], self.digits[b], dtype=np.int64) % self.p) @ self._ppow
        return out if out.ndim else int(out)

    def add(self, a, b):
        if type(a) is int and type(b) is int:
            return self._digitwise(a, b, 1)
        return self._combine(np.add, a, b)

    def neg(self, a):
        if type(a) is int:
            return self._digitwise(0, a, -1)
        return self._combine(np.subtract, 0, a)

    def sub(self, a, b):
        if type(a) is int and type(b) is int:
            return self._digitwise(a, b, -1)
        return self._combine(np.subtract, a, b)

    def mul(self, a, b):
        if type(a) is int and type(b) is int:
            if self.k == 1:
                return a * b % self.p
            if not a or not b:
                return 0
            log = self.log_table
            return self.exp_table.item((log.item(a) + log.item(b)) % (self.q - 1))
        if self.k == 1:
            out = np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64) % self.p
            return out if out.ndim else int(out)
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        la, lb = self.log_table[a], self.log_table[b]
        nz = (la >= 0) & (lb >= 0)
        prod = np.where(nz, self.exp_table[(la + lb) % (self.q - 1)], 0)
        return prod if prod.ndim else int(prod)

    def inv(self, a):
        if type(a) is int:
            if not a:
                raise ZeroDivisionError("inverse of zero in finite field")
            return self.exp_table.item(-self.log_table.item(a) % (self.q - 1))
        a = np.asarray(a, dtype=np.int64)
        la = self.log_table[a]
        if np.any(la < 0):
            raise ZeroDivisionError("inverse of zero in finite field")
        out = self.exp_table[(-la) % (self.q - 1)]
        return out if out.ndim else int(out)

    def power(self, a, e):
        if type(a) is int:
            if not a:
                if e < 0:
                    raise ZeroDivisionError("negative power of zero")
                return 0 if e else 1
            return self.exp_table.item(self.log_table.item(a) * e % (self.q - 1))
        a = np.asarray(a, dtype=np.int64)
        if e == 0:
            out = np.ones_like(a)
            return out if out.ndim else 1
        la = self.log_table[a]
        if e < 0 and np.any(la < 0):
            raise ZeroDivisionError("negative power of zero")
        out = np.where(la >= 0, self.exp_table[(la * (e % (self.q - 1))) % (self.q - 1)], 0)
        return out if out.ndim else int(out)

    def frob(self, a):
        return self.power(a, self.p)

    def frob_inv(self, a):
        return self.power(a, self.p ** (self.k - 1))

    def from_int(self, c):
        """The image of the integer c under the prime-subfield embedding."""
        return int(c) % self.p

    # -- element helpers ------------------------------------------------------

    def element(self, value):
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise ValueError("element of a different field")
            return value
        if isinstance(value, (int, np.integer)):
            return FieldElement(self, self.from_int(value))
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) > self.k:
            raise ValueError("too many coefficients")
        coeffs += [0] * (self.k - len(coeffs))
        return FieldElement(self, int(np.dot(np.array(coeffs, dtype=np.int64), self._ppow)))

    @property
    def zero(self):
        return FieldElement(self, 0)

    @property
    def one(self):
        return FieldElement(self, 1)

    def coeffs(self, idx):
        return [int(c) for c in self.digits[int(idx)]]

    def format_index(self, idx):
        return "[" + ",".join(str(c) for c in self.coeffs(idx)) + "]"

    def __repr__(self):
        return f"F_{self.p}^{self.k}"

    def __reduce__(self):
        # by (p, k, modulus): 59 bytes for F_{5^5}, whose tables (128 KB) unpickling rebuilds
        return (Field, (self.p, self.k, self.modulus))

    # -- extensions -----------------------------------------------------------

    def extend(self):
        """F_p -> F_{p^p}, where every Artin-Schreier equation over F_p has
        its roots; an F_p index names the same element in both fields.  From
        k > 1 the step is over FIELD_BUDGET, since p^(2p) >= 5^10 > 7^7, and
        raises BudgetExceeded."""
        return make_field(self.p, self.k * self.p)


class FieldElement:
    """A single element of F_{p^k}; thin wrapper over an element index."""

    __slots__ = ("field", "idx")

    def __init__(self, field, idx):
        self.field = field
        self.idx = int(idx)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("elements of different fields")
            return other.idx
        if isinstance(other, (int, np.integer)):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, self.field.add(self.idx, o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, self.field.sub(self.idx, o))

    def __rsub__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, self.field.sub(o, self.idx))

    def __mul__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, self.field.mul(self.idx, o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, self.field.mul(self.idx, self.field.inv(o)))

    def __pow__(self, e):
        return FieldElement(self.field, self.field.power(self.idx, e))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.idx))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field is other.field and self.idx == other.idx
        if isinstance(other, (int, np.integer)):
            return self.idx == self.field.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.idx))

    def __bool__(self):
        return self.idx != 0

    @property
    def coeffs(self):
        return self.field.coeffs(self.idx)

    def __str__(self):
        return self.field.format_index(self.idx)

    def __repr__(self):
        return f"FieldElement({self})"


_field_cache = {}

# F_{7^7}, forced by a semisimple chi at p = 7, has ~60 MB of tables; the
# F_{11^11} forced at p = 11 would have 2.9e11 entries in each table
FIELD_BUDGET = 7 ** 7


def check_field_budget(p, k):
    """Raise BudgetExceeded when q = p^k > FIELD_BUDGET, for k >= 1 (p < 2
    is left to the caller's primality test).  q >= 2^(k (b - 1)) for p of b
    bits, so q is computed only when that exponent is below the budget's
    bit length, and shown only when it fits in 64 bits."""
    bits = FIELD_BUDGET.bit_length()
    if p < 2 or (k * (p.bit_length() - 1) < bits and p ** k <= FIELD_BUDGET):
        return
    q = f" = {p ** k}" if k * p.bit_length() <= 64 else ""
    raise BudgetExceeded(f"field size q = {p}^{k}{q} exceeds 7^7 = {FIELD_BUDGET}")


def make_field(p, k=1, modulus=None):
    """Construct F_{p^k}.

    A deterministic default modulus (the lexicographically least monic
    irreducible) is used when none is given, so identical (p, k) always
    yield identical element encodings.  Raises BudgetExceeded when
    p^k > FIELD_BUDGET, before the modulus is sought or any table built.
    """
    p = int(p)
    k = int(k)
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    check_field_budget(p, k)
    if not isprime(p):
        raise CompositeP(f"{p} is not prime")
    if p < 5:
        raise PTooSmall(f"p must be at least 5, got {p}")
    if modulus is None:
        key = (p, k)
        if key in _field_cache:
            return _field_cache[key]
        field = Field(p, k, default_modulus(p, k))
        _field_cache[key] = field
        return field
    modulus = [int(c) % p for c in modulus]
    if len(modulus) != k + 1 or modulus[-1] % p != 1:
        raise NonIrreducibleModulus("modulus must be monic of degree k")
    if not is_irreducible(modulus, p):
        raise NonIrreducibleModulus("modulus is reducible")
    return Field(p, k, modulus)


def artin_schreier_roots(field, c):
    """All x in the field with x^p - x = c, in increasing index order.

    Returns a list of FieldElements; it is either empty or a full coset of
    the prime subfield (exactly p roots).  x -> x^p - x is F_p-linear with
    kernel F_p, so one solution of the K x K system over F_p on the digits
    of x gives them all: the coset runs over the lowest digit.
    """
    from .linalg import solve
    if isinstance(c, FieldElement):
        if c.field is not field:
            raise ValueError("element of a different field")
        c = c.idx
    p = field.p
    basis = field._ppow  # the indices of 1, x, ..., x^(K-1)
    images = field.digits[field.sub(field.frob(basis), basis)].astype(np.int64)
    try:
        x = solve(make_field(p), images.T, field.digits[int(c)].astype(np.int64))
    except ValueError:
        return []
    low = int(x[1:] @ basis[1:])
    return [FieldElement(field, low + r) for r in range(p)]
