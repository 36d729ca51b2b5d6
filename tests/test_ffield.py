"""Field arithmetic checked against independent brute-force oracles."""

import itertools
import random
import time

import numpy as np
import pytest

import sympy
from hypothesis import given, settings, strategies as st

from glmn import ffield
from glmn.errors import BudgetExceeded, CompositeP
from glmn.ffield import (Field, FieldElement, make_field, default_modulus,
                         artin_schreier_roots, isprime, _prime_factors)


def poly_mul_mod(p, modulus, a, b):
    """Schoolbook product of digit vectors a, b reduced mod the monic modulus.

    Independent of the Field implementation: plain integer arithmetic.
    """
    k = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce: x^k = -(modulus[0] + ... + modulus[k-1] x^{k-1})
    for d in range(len(prod) - 1, k - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for t in range(k):
                prod[d - k + t] = (prod[d - k + t] - c * modulus[t]) % p
    return tuple(x % p for x in prod[:k])


def digits_of(field, idx):
    out = []
    for _ in range(field.k):
        out.append(idx % field.p)
        idx //= field.p
    return tuple(out)


def index_of(field, digits):
    idx = 0
    for d in reversed(digits):
        idx = idx * field.p + d
    return idx


class TestPrimeField:
    def test_add_mul_match_modular_integers(self):
        f = make_field(7)
        for a in range(7):
            for b in range(7):
                assert f.add(a, b) == (a + b) % 7
                assert f.mul(a, b) == (a * b) % 7
                assert f.sub(a, b) == (a - b) % 7

    def test_inverse(self):
        f = make_field(11)
        for a in range(1, 11):
            assert f.mul(a, f.inv(a)) == 1

    def test_requires_prime(self):
        with pytest.raises(Exception):
            make_field(6)


class TestExtensionField:
    def test_modulus_is_irreducible(self):
        # brute force: no product of two lower-degree monic polys equals it
        f = make_field(5, 2)
        mod = f.modulus
        p = 5
        # degree 2: irreducible iff no root in F_p
        for x in range(p):
            val = (mod[0] + mod[1] * x + mod[2] * x * x) % p
            assert val != 0

    def test_mul_matches_polynomial_oracle(self):
        f = make_field(5, 3)
        rng = random.Random(0)
        for _ in range(200):
            a = rng.randrange(f.q)
            b = rng.randrange(f.q)
            expect = poly_mul_mod(5, f.modulus, digits_of(f, a), digits_of(f, b))
            assert f.mul(a, b) == index_of(f, expect)

    def test_add_is_digitwise(self):
        f = make_field(5, 2)
        for a in range(f.q):
            for b in range(f.q):
                da, db = digits_of(f, a), digits_of(f, b)
                s = tuple((x + y) % 5 for x, y in zip(da, db))
                assert f.add(a, b) == index_of(f, s)

    def test_every_nonzero_invertible(self):
        f = make_field(5, 2)
        for a in range(1, f.q):
            assert f.mul(a, f.inv(a)) == 1

    def test_frobenius_is_pth_power(self):
        f = make_field(5, 3)
        for a in range(f.q):
            assert f.frob(a) == f.power(a, 5)
            assert f.frob_inv(f.frob(a)) == a

    def test_multiplicative_group_order(self):
        f = make_field(5, 2)
        for a in range(1, f.q):
            assert f.power(a, f.q - 1) == 1

    def test_prime_subfield_is_low_indices(self):
        # indices 0..p-1 are fixed by Frobenius, others are not
        f = make_field(5, 2)
        fixed = [a for a in range(f.q) if f.frob(a) == a]
        assert fixed == list(range(5))


class TestEmbedding:
    def test_extend_multiplies_degree_by_p(self):
        # F_5 -> F_{5^5} keeps the indices 0..4 of the prime field
        f = make_field(5, 1)
        big = f.extend()
        assert big.k == 5
        a, b = np.meshgrid(np.arange(5), np.arange(5))
        for op in ("add", "sub", "mul"):
            assert np.array_equal(getattr(big, op)(a, b), getattr(f, op)(a, b))
        assert np.array_equal(big.inv(np.arange(1, 5)), f.inv(np.arange(1, 5)))

    def test_extend_from_an_extension_is_over_budget(self, monkeypatch):
        # F_25 -> F_{5^10}: refused before any table is built
        f = make_field(5, 2)

        def refuse(*args):
            raise AssertionError("work started on a field over the budget")
        monkeypatch.setattr(ffield, "default_modulus", refuse)
        monkeypatch.setattr(ffield, "Field", refuse)
        with pytest.raises(BudgetExceeded, match=r"q = 5\^10 = 9765625 "):
            f.extend()


class TestArtinSchreier:
    def test_roots_satisfy_equation(self):
        f = make_field(5, 5)
        for c in [1, 2, f.q - 3]:
            roots = artin_schreier_roots(f, c)
            for r in roots:
                assert f.sub(f.power(r.idx, 5), r.idx) == c

    def test_root_count_is_zero_or_p(self):
        f = make_field(5, 5)
        for c in range(0, 40):
            n = len(artin_schreier_roots(f, c))
            assert n in (0, 5)

    def test_no_roots_in_prime_field_for_nonzero_c(self):
        f = make_field(5, 1)
        assert artin_schreier_roots(f, 1) == []
        assert len(artin_schreier_roots(f, 0)) == 5


class TestElementWrapper:
    def test_arithmetic(self):
        f = make_field(5, 2)
        a = FieldElement(f, 7)
        b = FieldElement(f, 3)
        assert (a + b).idx == f.add(7, 3)
        assert (a * b).idx == f.mul(7, 3)
        assert (a - a).idx == 0
        assert (a / a).idx == 1

    def test_format_index_roundtrip(self):
        f = make_field(5, 2)
        assert f.format_index(0) == "[0,0]"
        assert f.format_index(7) == "[2,1]"


def test_field_pickles():
    import pickle
    f = make_field(5, 3)
    g = pickle.loads(pickle.dumps(f))
    assert g.p == 5 and g.k == 3 and g.modulus == f.modulus
    assert g.mul(7, 9) == f.mul(7, 9)


def test_default_modulus_is_lex_least():
    # scanning (c0, c1) lexicographically, the first irreducible monic
    # quadratic over F_5 is x^2 + x + 1 (discriminant -3 = 2 is a nonsquare)
    assert list(default_modulus(5, 2)) == [1, 1, 1]
    # everything lex-before it must be reducible
    from glmn.ffield import is_irreducible
    assert not is_irreducible([0, 0, 1], 5)
    assert not is_irreducible([0, 4, 1], 5)
    assert not is_irreducible([1, 0, 1], 5)


@pytest.mark.parametrize("p", [5, 823541])
def test_default_modulus_of_degree_one_is_x(p, monkeypatch):
    # no candidate list: product(range(823541)) would copy the range
    def no_product(*pools, **kw):
        raise AssertionError("degree 1 needs no candidate scan")
    monkeypatch.setattr(ffield.itertools, "product", no_product)
    assert list(default_modulus(p, 1)) == [0, 1]
    assert make_field(p).modulus == (0, 1)


def scan_modulus(p, k):
    """The full lexicographic scan: every monic degree-k candidate in turn,
    x-divisible ones included, until one is irreducible."""
    from glmn.ffield import is_irreducible
    for tail in itertools.product(range(p), repeat=k):
        poly = list(tail) + [1]
        if is_irreducible(poly, p):
            return poly
    raise AssertionError("no irreducible polynomial")


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_default_modulus_matches_full_scan(p):
    k = 1
    while p ** k <= 30_000:
        assert list(default_modulus(p, k)) == scan_modulus(p, k), (p, k)
        k += 1


def gauss_count(p, k):
    """The number of monic irreducible polynomials of degree k over F_p:
    (1/k) sum over d | k of mu(d) p^(k/d)."""
    def mobius(d):
        factors = sympy.factorint(d)
        return 0 if any(e > 1 for e in factors.values()) else (-1) ** len(factors)
    return sum(mobius(d) * p ** (k // d) for d in sympy.divisors(k)) // k


@pytest.mark.parametrize("p,k", [(5, k) for k in range(1, 6)]
                         + [(7, k) for k in range(1, 5)])
def test_irreducible_count_is_gauss_count(p, k):
    from glmn.ffield import is_irreducible
    accepted = sum(is_irreducible(list(tail) + [1], p)
                   for tail in itertools.product(range(p), repeat=k))
    assert accepted == gauss_count(p, k)


@pytest.mark.parametrize("p,k", [(5, 2), (5, 3), (7, 3), (11, 2)])
def test_irreducible_matches_sympy(p, k):
    from glmn.ffield import is_irreducible
    x = sympy.Symbol("x")
    for tail in itertools.product(range(p), repeat=k):
        poly = list(tail) + [1]
        want = sympy.Poly(list(reversed(poly)), x, modulus=p).is_irreducible
        assert is_irreducible(poly, p) == want, poly


def test_default_modulus_of_degree_seven_is_fast():
    # F_{7^7}: the full scan tests the 7^6 candidates divisible by x first
    from glmn.ffield import is_irreducible
    start = time.perf_counter()
    modulus = default_modulus(7, 7)
    assert time.perf_counter() - start < 1.0
    assert len(modulus) == 8 and is_irreducible(modulus, 7)


# ---------------------------------------------------------------------------
# primality and factors of small integers, with sympy as the oracle

# psi_1 ... psi_6 and psi_9 = psi_10 = psi_11: the least strong pseudoprime
# to all of the first t prime bases.  psi_7 = psi_8 and psi_12 are over the
# field budget, and their least prime factors, 10670053 and 399165290221,
# are out of reach of a quick trial division
STRONG_PSEUDOPRIMES = [2047, 1373653, 25326001, 3215031751, 2152302898747,
                       3474749660383, 3825123056546413051]
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
              321197185, 5394826801, 232250619601, 9746347772161]


def test_isprime_matches_sympy_below_ten_to_the_five():
    assert [n for n in range(-3, 10 ** 5)
            if isprime(n) != sympy.isprime(n)] == []


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES + CARMICHAEL)
def test_pseudoprimes_are_composite(n):
    assert not sympy.isprime(n)
    assert isprime(n) is False


def test_prime_factors_match_sympy():
    assert [n for n in range(1, 10 ** 5 + 1)
            if _prime_factors(n) != sorted(sympy.factorint(n))] == []


@pytest.mark.parametrize("p", [561, 2047])
def test_make_field_rejects_pseudoprime_p(p):
    with pytest.raises(CompositeP):
        make_field(p)


@pytest.mark.parametrize("p,k", [(5, 10), (11, 11), (823547, 1), (907, 3)])
def test_field_over_budget_raises_before_any_work(p, k, monkeypatch):
    # neither the modulus search nor the tables may run
    def refuse(*args):
        raise AssertionError("work started on a field over the budget")
    monkeypatch.setattr(ffield, "default_modulus", refuse)
    monkeypatch.setattr(ffield, "is_irreducible", refuse)
    monkeypatch.setattr(ffield, "Field", refuse)
    with pytest.raises(BudgetExceeded, match=rf"q = {p}\^{k} = {p ** k} .*7\^7"):
        make_field(p, k)
    with pytest.raises(BudgetExceeded):
        make_field(p, k, modulus=[1] * k + [1])


@pytest.mark.parametrize("p,k,shown", [
    (5, 100000, "q = 5^100000 exceeds"),
    (5, 10 ** 9, "q = 5^1000000000 exceeds"),
    (2 ** 89 - 1, 1, f"q = {2 ** 89 - 1}^1 exceeds"),
    (2 ** 61 - 1, 1, f"q = {2 ** 61 - 1}^1 = {2 ** 61 - 1} exceeds")])
def test_field_budget_takes_no_primality_test_and_no_large_power(
        p, k, shown, monkeypatch):
    def refuse(n):
        raise AssertionError("primality tested on a field over the budget")
    monkeypatch.setattr(ffield, "isprime", refuse)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as info:
        make_field(p, k)
    assert time.perf_counter() - start < 1.0
    assert shown in str(info.value)


def test_field_budget_admits_fields_up_to_it(monkeypatch):
    # the fields are not built: Field is replaced by a stub
    assert ffield.FIELD_BUDGET == 7 ** 7
    monkeypatch.setattr(ffield, "Field", lambda p, k, modulus: (p, k))
    for p, k in ((7, 7), (823541, 1), (907, 2)):  # 823541: largest prime below 7^7
        assert make_field(p, k, modulus=default_modulus(p, k)) == (p, k)


# ---------------------------------------------------------------------------
# the int route of the scalar ops against the array route
# ---------------------------------------------------------------------------

# F_5, F_25, F_{5^5} (the graded scans' extension) and F_49
ROUTE_FIELDS = [(5, 1), (5, 2), (5, 5), (7, 2)]
ROUTE_SETTINGS = settings(max_examples=100, deadline=None)


def array_route(field, name, *args):
    """The op on np.int64 arguments: the vectorized route, as the oracle."""
    return getattr(field, name)(*(np.int64(x) for x in args))


def int_route(field, name, *args):
    out = getattr(field, name)(*args)
    assert type(out) is int, (name, args, type(out))
    return out


@st.composite
def field_and_elements(draw, n=2):
    field = make_field(*draw(st.sampled_from(ROUTE_FIELDS)))
    elements = st.one_of(st.sampled_from([0, 1, field.q - 1]),
                         st.integers(0, field.q - 1))
    return (field, *(draw(elements) for _ in range(n)))


@ROUTE_SETTINGS
@given(field_and_elements())
def test_int_route_matches_array_route(case):
    field, a, b = case
    for name in ("add", "sub", "mul"):
        assert int_route(field, name, a, b) == array_route(field, name, a, b), name
    assert int_route(field, "neg", a) == array_route(field, "neg", a)
    if a:
        assert int_route(field, "inv", a) == array_route(field, "inv", a)


@ROUTE_SETTINGS
@given(field_and_elements(n=1), st.data())
def test_int_power_matches_array_route(case, data):
    field, a = case
    q = field.q
    e = data.draw(st.one_of(st.integers(-3 * q, -1), st.just(0),
                            st.integers(1, q - 2), st.integers(q - 1, 3 * q)))
    if a == 0 and e < 0:
        with pytest.raises(ZeroDivisionError):
            field.power(a, e)
        with pytest.raises(ZeroDivisionError):
            field.power(np.int64(a), e)
    else:
        assert int_route(field, "power", a, e) == field.power(np.int64(a), e)


@pytest.mark.parametrize("p,k", ROUTE_FIELDS)
def test_int_route_on_zero_operands(p, k):
    field = make_field(p, k)
    for x in (0, 1, field.p, field.q - 1):
        for name in ("add", "sub", "mul"):
            assert int_route(field, name, 0, x) == array_route(field, name, 0, x)
            assert int_route(field, name, x, 0) == array_route(field, name, x, 0)
    assert int_route(field, "neg", 0) == 0
    assert int_route(field, "power", 0, 0) == field.power(np.int64(0), 0) == 1
    assert int_route(field, "power", 0, field.q - 1) == field.power(np.int64(0), field.q - 1) == 0
    for zero in (0, np.int64(0)):
        with pytest.raises(ZeroDivisionError):
            field.inv(zero)
        with pytest.raises(ZeroDivisionError):
            field.power(zero, -1)
