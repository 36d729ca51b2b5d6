"""The reduced enveloping algebra u(g, chi) of gl(m|n) in PBW normal form.

Monomials are written in the fixed order f-block, h-block, e-block, where
the f and e blocks run over negative and positive root vectors in a fixed
order of the positive roots (ascending height, then lex, unless a caller
supplies another order) and the h block runs over the diagonal units.
Straightening moves an out-of-order generator leftward one swap at a time,
picking up the super sign and a bracket term, and reduces exponents with
x^p = x^[p] + chi(x)^p for even x and x^2 = (1/2)[x, x] for odd x.

Straightening depends only on (algebra, chi, f_order), never on a weight,
so ``reduction_context`` keeps one context, with its weight-free caches,
per such triple on the algebra and every weight of a scan shares it.
"""

from __future__ import annotations

import numpy as np

from .errors import MixedParity, NotWeightZero, OddInput
from .ffield import FieldElement


class ReductionContext:
    """Straightening context for u(g, chi), immutable apart from its caches.

    f_order, when given, lists the positive roots in the order their
    negative root vectors appear in the f block; the default is the
    canonical positive order.  Its caches are weight-free: ``_memo`` holds
    single-generator straightening steps, ``_plans`` the induction plans of
    ``verma.build_induced`` and ``_layouts`` its frames per plan, inner parity
    and acting units (``verma._layout``).  Library code obtains contexts
    from ``reduction_context``, so its caches serve every weight of a given
    (algebra, chi, f_order).
    """

    def __init__(self, algebra, chi, f_order=None):
        self.algebra = algebra
        self.chi = chi
        self.field = algebra.field
        rs = algebra.root_system()
        self.rs = rs
        self.f_order = list(f_order) if f_order is not None else list(rs.positive)
        assert sorted(r.key for r in self.f_order) == sorted(r.key for r in rs.positive)
        self.e_order = list(rs.positive)
        # generator table: (unit, parity, cap) per position
        units = []
        for r in self.f_order:
            units.append(rs.f_unit(r))
        for i in range(1, algebra.d + 1):
            units.append((i, i))
        for r in self.e_order:
            units.append(rs.e_unit(r))
        self.nf = len(self.f_order)
        self.nh = algebra.d
        self.ngens = len(units)
        self.units = units
        self.parities = [algebra.parity(*u) for u in units]
        p = algebra.field.p
        self.caps = [2 if par else p for par in self.parities]
        self.unit_to_pos = {u: t for t, u in enumerate(units)}
        self.zero_exps = (0,) * self.ngens
        # chi(x)^p per generator
        f = self.field
        self.chi_p = [f.power(chi.value(u), p) for u in units]
        self._memo = {}
        self._plans = {}
        self._layouts = {}

    def gen_parity(self, pos):
        return self.parities[pos]

    def mono_parity(self, exps):
        return sum(e for e, par in zip(exps, self.parities) if par) % 2

    def admissible_monomials(self):
        """All PBW monomials of u(g, chi), as raw exponent tuples."""
        import itertools
        ranges = [range(c) for c in self.caps]
        return [tuple(t) for t in itertools.product(*ranges)]

    def __repr__(self):
        return f"ReductionContext({self.algebra!r}, {self.chi!r})"


def reduction_context(algebra, chi, f_order=None):
    """The shared ReductionContext of (algebra, chi, f_order).

    Contexts are cached on the algebra, keyed by the values of chi and
    the root order of the f block (the default order and the same order
    given explicitly are one key), so an equal Character built afresh
    finds the same context and its straightening memo.
    """
    assert chi.algebra is algebra, "chi belongs to another algebra"
    roots = f_order if f_order is not None else algebra.root_system().positive
    key = (tuple(sorted(chi.values.items())), tuple(r.key for r in roots))
    ctx = algebra._contexts.get(key)
    if ctx is None:
        ctx = algebra._contexts[key] = ReductionContext(algebra, chi, f_order)
    return ctx


class PBWMonomial:
    """A single normal-form monomial, a view on an exponent tuple."""

    __slots__ = ("ctx", "exps")

    def __init__(self, ctx, exps):
        self.ctx = ctx
        self.exps = tuple(exps)

    @property
    def f_exps(self):
        return self.exps[: self.ctx.nf]

    @property
    def h_exps(self):
        return self.exps[self.ctx.nf: self.ctx.nf + self.ctx.nh]

    @property
    def e_exps(self):
        return self.exps[self.ctx.nf + self.ctx.nh:]

    @property
    def parity(self):
        return self.ctx.mono_parity(self.exps)

    def __eq__(self, other):
        return (isinstance(other, PBWMonomial) and self.ctx is other.ctx
                and self.exps == other.exps)

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return (f"f{self.f_exps}h{self.h_exps}e{self.e_exps}")


class PBWElement:
    """A finite linear combination of PBW monomials over one context."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @classmethod
    def one(cls, ctx):
        return cls(ctx, {ctx.zero_exps: 1})

    @classmethod
    def generator(cls, ctx, unit):
        pos = ctx.unit_to_pos[tuple(unit)]
        exps = list(ctx.zero_exps)
        exps[pos] = 1
        return cls(ctx, {tuple(exps): 1})

    @classmethod
    def from_matrix(cls, ctx, mat):
        """Degree-one element from a Matrix algebra element."""
        terms = {}
        for (i, j) in ctx.algebra.units:
            c = int(mat.data[i - 1, j - 1])
            if c:
                exps = list(ctx.zero_exps)
                exps[ctx.unit_to_pos[(i, j)]] = 1
                terms[tuple(exps)] = c
        return cls(ctx, terms)

    def items(self):
        return [(PBWMonomial(self.ctx, m), FieldElement(self.ctx.field, c))
                for m, c in sorted(self.terms.items())]

    @property
    def parity(self):
        """0, 1, or None for mixed; the zero element counts as even."""
        pars = {self.ctx.mono_parity(m) for m in self.terms}
        if len(pars) > 1:
            return None
        return pars.pop() if pars else 0

    def __add__(self, other):
        f = self.ctx.field
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = f.add(terms.get(m, 0), c)
        return PBWElement(self.ctx, terms)

    def __sub__(self, other):
        f = self.ctx.field
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = f.sub(terms.get(m, 0), c)
        return PBWElement(self.ctx, terms)

    def __neg__(self):
        f = self.ctx.field
        return PBWElement(self.ctx, {m: f.neg(c) for m, c in self.terms.items()})

    def scale(self, c):
        c = c.idx if isinstance(c, FieldElement) else c % self.ctx.field.p
        f = self.ctx.field
        return PBWElement(self.ctx, {m: f.mul(cc, c) for m, cc in self.terms.items()})

    def __mul__(self, other):
        return multiply(self.ctx, self, other)

    def __eq__(self, other):
        return isinstance(other, PBWElement) and self.terms == other.terms

    def scalar_part(self):
        return FieldElement(self.ctx.field, self.terms.get(self.ctx.zero_exps, 0))

    def dump(self):
        """Canonical textual form: 'coeff * f(...)h(...)e(...)' terms."""
        if not self.terms:
            return "0"
        ctx = self.ctx
        parts = []
        for exps in sorted(self.terms):
            m = PBWMonomial(ctx, exps)
            parts.append(f"{ctx.field.format_index(self.terms[exps])} * "
                         f"f{m.f_exps}h{m.h_exps}e{m.e_exps}")
        return " + ".join(parts)

    def __repr__(self):
        return f"PBWElement({self.dump()})"


def _accumulate(field, target, terms, scalar):
    if not scalar:
        return
    for m, c in terms.items():
        target[m] = field.add(target.get(m, 0), field.mul(c, scalar))


def _bump(ctx, exps, pos):
    """exps * (one more copy of generator pos), pos at or past the tail.

    Returns a dict of exponent tuples to coefficients, applying the cap
    reductions x^2 = (1/2)[x,x] (odd) and x^p = x^[p] + chi(x)^p (even).
    """
    f = ctx.field
    new = exps[pos] + 1
    if new < ctx.caps[pos]:
        out = list(exps)
        out[pos] = new
        return {tuple(out): 1}
    if ctx.parities[pos]:
        # odd square: (1/2)[x,x], and an odd generator is a unit E(i,j) with
        # i != j, whose bracket with itself is 2 delta_ij E(i,i) = 0
        return {}
    # even generator at exponent p: x^p = x^[p] + chi(x)^p
    base = list(exps)
    base[pos] = 0
    result = {}
    i, j = ctx.units[pos]
    if i == j:
        # E(i,i)^[p] = E(i,i)
        withx = list(base)
        withx[pos] = 1
        result[tuple(withx)] = 1
    # off-diagonal even root vectors have x^[p] = 0
    if ctx.chi_p[pos]:
        base = tuple(base)
        result[base] = f.add(result.get(base, 0), ctx.chi_p[pos])
    return {m: c for m, c in result.items() if c}


def _mono_times_gen(ctx, exps, pos):
    """Normal form of (monomial) * (generator at pos), memoized."""
    key = (exps, pos)
    hit = ctx._memo.get(key)
    if hit is not None:
        return hit
    f = ctx.field
    last = -1
    for t in range(ctx.ngens - 1, -1, -1):
        if exps[t]:
            last = t
            break
    if last <= pos:
        result = _bump(ctx, exps, pos)
    else:
        # peel the trailing generator x: exps = head * x, and
        # (head * x) * g = sign(x,g) * (head * g) * x + head * [x, g]
        head = list(exps)
        head[last] -= 1
        head = tuple(head)
        sign = -1 if ctx.parities[last] and ctx.parities[pos] else 1
        result = {}
        inner = _mono_times_gen(ctx, head, pos)
        for m, c in inner.items():
            c2 = c if sign == 1 else f.neg(c)
            _accumulate(f, result, _mono_times_gen(ctx, m, last), c2)
        xu = ctx.units[last]
        gu = ctx.units[pos]
        for coeff, unit in ctx.algebra.bracket_table[(xu, gu)]:
            _accumulate(f, result,
                        _mono_times_gen(ctx, head, ctx.unit_to_pos[unit]), coeff)
        result = {m: c for m, c in result.items() if c}
    ctx._memo[key] = result
    return result


def _terms_times_mono(ctx, terms, exps):
    """Right-multiply a term dict by a normal-form monomial."""
    f = ctx.field
    for pos in range(ctx.ngens):
        for _ in range(exps[pos]):
            nxt = {}
            for m, c in terms.items():
                _accumulate(f, nxt, _mono_times_gen(ctx, m, pos), c)
            terms = nxt
    return terms


def normalize(ctx, word):
    """Straighten a word into PBW normal form.

    The word is a sequence whose entries are matrix-unit pairs (i, j),
    field scalars (FieldElement or int), or Matrix algebra elements;
    the result is the product taken left to right.
    """
    f = ctx.field
    result = PBWElement.one(ctx)
    for item in word:
        if isinstance(item, FieldElement):
            result = result.scale(item)
        elif isinstance(item, int):
            result = result.scale(item % f.p)
        elif isinstance(item, tuple):
            result = multiply(ctx, result, PBWElement.generator(ctx, item))
        else:
            result = multiply(ctx, result, PBWElement.from_matrix(ctx, item))
    return result


def multiply(ctx, a, b):
    """Product in u(g, chi) of two normal-form elements."""
    f = ctx.field
    out = {}
    for mb, cb in b.terms.items():
        prod = _terms_times_mono(ctx, dict(a.terms), mb)
        _accumulate(f, out, prod, cb)
    return PBWElement(ctx, out)


def ad_action(ctx, a, u):
    """ad(a)(u) = a u - (-1)^{p(a) p(u)} u a for homogeneous a and u."""
    pa = ctx.algebra.element_parity(a)
    if pa is None:
        raise OddInput("ad requires a homogeneous algebra element")
    pu = u.parity
    if pu is None:
        raise MixedParity("ad requires a homogeneous PBW element")
    ea = PBWElement.from_matrix(ctx, a)
    left = multiply(ctx, ea, u)
    right = multiply(ctx, u, ea)
    if pa and pu:
        return left + right
    return left - right


def monomial_weight(rs, mono):
    """Adjoint-action weight of a monomial: sum of e roots minus f roots.

    Returned as an integer coordinate vector on the diagonal units,
    reduced mod p.
    """
    ctx = mono.ctx
    d = rs.d
    w = np.zeros(d, dtype=np.int64)
    for r, e in zip(ctx.f_order, mono.f_exps):
        w -= e * r.vector(d)
    for r, e in zip(ctx.e_order, mono.e_exps):
        w += e * r.vector(d)
    return w % rs.algebra.field.p


def hc_gamma(ctx, u):
    """Harish-Chandra projection: keep pure Cartan monomials.

    Every monomial of u must have weight zero.
    """
    rs = ctx.rs
    out = {}
    for exps, c in u.terms.items():
        mono = PBWMonomial(ctx, exps)
        if np.any(monomial_weight(rs, mono)):
            raise NotWeightZero(f"monomial {mono} has nonzero weight")
        if not any(mono.f_exps) and not any(mono.e_exps):
            out[exps] = c
    return PBWElement(ctx, out)


def evaluate_cartan(ctx, u, lam):
    """Evaluate a pure Cartan element at a weight: h_i -> lam(i)."""
    f = ctx.field
    acc = 0
    for exps, c in u.terms.items():
        mono = PBWMonomial(ctx, exps)
        assert not any(mono.f_exps) and not any(mono.e_exps)
        term = c
        for i, e in enumerate(mono.h_exps, start=1):
            if e:
                term = f.mul(term, f.power(lam.value(i), e))
        acc = f.add(acc, term)
    return FieldElement(f, acc)
