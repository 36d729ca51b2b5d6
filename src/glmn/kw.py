"""Dimension reduction for reduced enveloping algebras of gl(m|n).

A normalized character chi splits into a semisimple part on the diagonal
and a nilpotent part on negative root vectors.  The coroot values of chi
cut out Phi' and the Levi-type subalgebra l', and every simple module is
induced from a simple module of the parabolic P = l' + N.  This module
computes that data, reorders Phi' by simple reflections, verifies the
dimension formula on explicit modules, and handles the dot action and
character conjugation.
"""

from __future__ import annotations

import random

import numpy as np

from .algebra import Character, Weight, reflect
from .enveloping import reduction_context
from .errors import (ClosureFailure, NotNormalized, NotNormalizable,
                     NotStandardLevi, OddInput, OrderingStuck, SingularG,
                     FormulaMismatch)
from .linalg import Matrix, Subspace, eigenspaces, inverse
from .verma import ModuleRep, build_baby_verma, build_induced, induced_hom
from .analysis import (_candidate_spaces, _line_representatives, _top_coordinate,
                       is_simple, simple_head, spin)


class CharacterDecomposition:
    """chi = chi_s + chi_n with chi_s on H and chi_n on root vectors."""

    __slots__ = ("chi", "chi_s", "chi_n")

    def __init__(self, chi, chi_s, chi_n):
        self.chi = chi
        self.chi_s = chi_s
        self.chi_n = chi_n

    def __repr__(self):
        return f"CharacterDecomposition(chi_s={self.chi_s!r}, chi_n={self.chi_n!r})"


class LeviData:
    """Phi', l', l = [l', l'], the parabolic P and the nilradical N."""

    __slots__ = ("phi_prime", "levi_prime", "levi", "parabolic", "nilradical",
                 "n_even", "n_odd")

    def __init__(self, phi_prime, levi_prime, levi, parabolic, nilradical,
                 n_even, n_odd):
        self.phi_prime = phi_prime
        self.levi_prime = levi_prime
        self.levi = levi
        self.parabolic = parabolic
        self.nilradical = nilradical
        self.n_even = n_even
        self.n_odd = n_odd

    def __repr__(self):
        return (f"LeviData(phi_prime={[r.key for r in self.phi_prime]}, "
                f"dim N = ({self.n_even}|{self.n_odd}))")


def phi_prime_roots(rs, chi):
    """Positive roots whose coroot value under chi is nonzero."""
    return [r for r in rs.positive if chi_on_coroot(rs, chi, r)]


def chi_on_coroot(rs, chi, root):
    f = rs.algebra.field
    acc = 0
    for t, c in enumerate(rs.coroot_diag(root)):
        v = chi.value((t + 1, t + 1))
        if c == 1:
            acc = f.add(acc, v)
        elif c == -1:
            acc = f.sub(acc, v)
    return acc


def _check_normalized(rs, chi):
    for (i, j) in chi.values:
        if i < j:
            raise NotNormalized(f"chi(E({i},{j})) must vanish on N+")
    phi = phi_prime_roots(rs, chi)
    for r in phi:
        if chi.value(rs.f_unit(r)):
            raise NotNormalized(
                f"chi must vanish on f for {r!r} in Phi'")
    return phi


def decompose_character(rs, chi):
    """Split chi into its diagonal and root-vector parts."""
    _check_normalized(rs, chi)
    alg = rs.algebra
    chi_s = chi.restrict_h()
    chi_n = Character(alg, {u: v for u, v in chi.values.items() if u[0] != u[1]})
    return CharacterDecomposition(chi, chi_s, chi_n)


def levi_data(rs, chi):
    """Phi', the centralizer l' of chi_s, l, P and the nilradical N."""
    alg = rs.algebra
    phi = order_phi_prime(rs, chi).order
    phi_keys = {r.key for r in phi}
    levi_roots = [r for r in rs.positive if r.key not in phi_keys]
    levi_prime = list(alg.diag_units)
    for r in levi_roots:
        levi_prime.append(rs.e_unit(r))
        levi_prime.append(rs.f_unit(r))
    nilradical = [rs.e_unit(r) for r in phi]
    parabolic = levi_prime + nilradical
    # closure of l'
    lp = set(levi_prime)
    for x in levi_prime:
        for y in levi_prime:
            for c, unit in alg.bracket_table[(x, y)]:
                if c and unit not in lp:
                    raise ClosureFailure(f"l' not closed at [{x}, {y}]")
    # N an ideal of P
    nset = set(nilradical)
    pset = set(parabolic)
    for x in parabolic:
        for y in nilradical:
            for c, unit in alg.bracket_table[(x, y)]:
                if c and unit not in nset:
                    raise ClosureFailure(f"N not an ideal at [{x}, {y}]")
    # l = [l', l'] as a span inside the algebra
    f = alg.field
    rows = []
    for x in levi_prime:
        for y in levi_prime:
            vec = np.zeros(alg.dim, dtype=np.int64)
            for c, unit in alg.bracket_table[(x, y)]:
                pos = alg.units.index(unit)
                vec[pos] = f.add(int(vec[pos]), c)
            if vec.any():
                rows.append(vec)
    levi = Subspace(f, alg.dim, np.array(rows, dtype=np.int64)) if rows \
        else Subspace(f, alg.dim)
    n_even = sum(1 for r in phi if r.parity == 0)
    n_odd = sum(1 for r in phi if r.parity == 1)
    return LeviData(phi, levi_prime, levi, parabolic, nilradical, n_even, n_odd)


class PhiPrimeOrder:
    """An admissible order on Phi' with the per-step systems."""

    __slots__ = ("order", "steps")

    def __init__(self, order, steps):
        self.order = order
        self.steps = steps

    def __repr__(self):
        return f"PhiPrimeOrder({[r.key for r in self.order]})"


def _simple_of(rs, positives):
    """Roots of a positive system not expressible as a sum of two of them."""
    d = rs.d
    vecs = {r.key: r.vector(d) for r in positives}
    keys = list(vecs)
    sums = set()
    for a in range(len(keys)):
        for b in range(len(keys)):
            if a != b:
                sums.add(tuple(vecs[keys[a]] + vecs[keys[b]]))
    return [r for r in positives if tuple(vecs[r.key]) not in sums]


def _reflect_system(rs, alpha, positives):
    """s_alpha applied to a positive system.

    Even alpha acts by the coordinate transposition; odd (isotropic)
    alpha acts as the odd reflection, replacing alpha by -alpha.
    """
    if alpha.parity == 0:
        return [reflect(rs, alpha, r) for r in positives]
    out = []
    for r in positives:
        out.append(rs.root(alpha.j, alpha.i) if r.key == alpha.key else r)
    return out


def order_phi_prime(rs, chi):
    """The reordering of Phi' by successive simple reflections.

    Greedy: at each step pick a root of Phi' simple in the current
    system, reflect the system, and repeat; certifies that each prefix
    of -Phi' is bracket-closed and normalized by the positive roots of l.
    """
    alg = rs.algebra
    phi = _check_normalized(rs, chi)
    remaining = {r.key for r in phi}
    levi_pos = [r for r in rs.positive if r.key not in remaining]
    positives = list(rs.positive)
    order = []
    steps = []
    seen = set()
    while remaining:
        delta = _simple_of(rs, positives)
        steps.append(([r.key for r in positives], [r.key for r in delta]))
        candidates = sorted((r for r in delta if r.key in remaining),
                            key=lambda r: r.key)
        if not candidates:
            raise OrderingStuck(
                f"no root of Phi' is simple in the current system; "
                f"remaining={sorted(remaining)}, "
                f"delta={sorted(r.key for r in delta)}")
        alpha = candidates[0]
        if alpha.key in seen:
            raise OrderingStuck(f"root {alpha.key} repeated")
        seen.add(alpha.key)
        order.append(alpha)
        remaining.discard(alpha.key)
        positives = _reflect_system(rs, alpha, positives)
        _certify_prefix(rs, order, levi_pos)
    steps.append(([r.key for r in positives], [r.key for r in _simple_of(rs, positives)]))
    return PhiPrimeOrder(order, steps)


def _certify_prefix(rs, prefix, levi_pos):
    """Prefixes of -Phi' are bracket-closed and normalized by Phi+ of l."""
    alg = rs.algebra
    prefix_units = {rs.f_unit(r) for r in prefix}
    for x in prefix_units:
        for y in prefix_units:
            for c, unit in alg.bracket_table[(x, y)]:
                if c and unit not in prefix_units:
                    raise ClosureFailure(
                        f"prefix not closed: [{x}, {y}] hits {unit}")
    for r in levi_pos:
        unit = rs.e_unit(r)
        for x in prefix_units:
            for c, u2 in alg.bracket_table[(unit, x)]:
                if c and u2 not in prefix_units:
                    raise ClosureFailure(
                        f"prefix not normalized: [{unit}, {x}] hits {u2}")


def build_levi_verma(algebra, chi, lam, phi):
    """The baby Verma of l' at lambda: induced over the roots outside Phi'."""
    rs = algebra.root_system()
    phi_keys = {r.key for r in phi}
    levi_roots = [r for r in rs.positive if r.key not in phi_keys]
    order = levi_roots + [r for r in rs.positive if r.key in phi_keys]
    ctx = reduction_context(algebra, chi, f_order=order)
    inner = {}
    for i in range(algebra.d):
        inner[ctx.nf + i] = np.array([[lam.value(i + 1)]], dtype=np.int64)
    Z = build_induced(ctx, levi_roots, 1, [0], inner)
    units = list(algebra.diag_units)
    for r in levi_roots:
        units.append(rs.e_unit(r))
        units.append(rs.f_unit(r))
    M = ModuleRep(algebra, chi, units, Z.matrices(units), Z.parity,
                  labels=Z.labels, highest_vector=Z.highest_vector)
    M.lam = lam
    return M


def build_kw_module(algebra, chi, M_prime, phi):
    """u(g, chi) tensored over the parabolic with a simple u(l')-module.

    The nilradical acts by zero on M_prime; the basis is (monomials in
    the Phi' negative root vectors) x (basis of M_prime).
    """
    rs = algebra.root_system()
    phi_keys = {r.key for r in phi}
    levi_roots = [r for r in rs.positive if r.key not in phi_keys]
    order = list(phi) + levi_roots
    ctx = reduction_context(algebra, chi, f_order=order)
    inner = {}
    for t, r in enumerate(ctx.f_order):
        if t >= len(phi):
            inner[t] = M_prime.matrix(rs.f_unit(r))
    for i in range(algebra.d):
        inner[ctx.nf + i] = M_prime.matrix((i + 1, i + 1))
    for t, r in enumerate(ctx.e_order):
        if r.key not in phi_keys:
            inner[ctx.nf + ctx.nh + t] = M_prime.matrix(rs.e_unit(r))
        # Phi' positive root vectors span N, which kills M_prime
    Z = build_induced(ctx, list(phi), M_prime.dim, list(M_prime.parity),
                      inner, inner_highest=M_prime.highest_vector)
    Z.lam = getattr(M_prime, "lam", None)
    return Z


def kw_verify(algebra, chi, lam, line_budget=10 ** 4, seed=0):
    """Check the reduction dim M = p^{dim N_0} 2^{dim N_1} dim M' at lambda.

    Builds the simple u(l', chi)-module of highest weight lambda, induces
    over the parabolic, and oracle-checks simplicity and the dimension
    formula.  Returns a report dictionary.
    """
    rs = algebra.root_system()
    p = algebra.field.p
    dec = decompose_character(rs, chi)
    ld = levi_data(rs, chi)
    # chi restricted to l = [l', l'] must be nilpotent: its diagonal
    # component pairs to zero with chi
    f = algebra.field
    chi_l_nilpotent = True
    for row in ld.levi.basis:
        acc = 0
        for t, (i, j) in enumerate(algebra.units):
            if i == j and row[t]:
                acc = f.add(acc, f.mul(int(row[t]), chi.value((i, i))))
        if acc:
            chi_l_nilpotent = False
    ZL = build_levi_verma(algebra, chi, lam, ld.phi_prime)
    _, M_prime = simple_head(ZL, line_budget, seed)
    M_prime.lam = lam
    M = build_kw_module(algebra, chi, M_prime, ld.phi_prime)
    predicted = (p ** ld.n_even) * (2 ** ld.n_odd) * M_prime.dim
    if M.dim != predicted:
        raise FormulaMismatch(f"dim M = {M.dim}, predicted {predicted}")
    verdict = is_simple(M, line_budget, seed)
    return {
        "phi_prime": [r.key for r in ld.phi_prime],
        "dim_n": [ld.n_even, ld.n_odd],
        "dim_m_prime": M_prime.dim,
        "dim_m": M.dim,
        "predicted_dim": predicted,
        "induced_simple": bool(verdict.simple),
        "probabilistic": bool(verdict.probabilistic),
        "chi_l_nilpotent": chi_l_nilpotent,
        "chi_s_support": sorted(dec.chi_s.values),
        "chi_n_support": sorted(dec.chi_n.values),
    }


def dot_action(rs, word, lam):
    """w . lambda = w(lambda + rho) - rho for a word of even reflections."""
    f = rs.algebra.field
    mu = Weight(f, [f.add(int(c), int(r)) for c, r in zip(lam.coords, rs.rho)])
    for alpha in reversed(list(word)):
        mu = reflect(rs, alpha, mu)
    return Weight(f, [f.sub(int(c), int(r)) for c, r in zip(mu.coords, rs.rho)])


def _unique_maximal_by_sampling(Z, R, line_budget, seed, samples):
    """(radical_absorbs_all, outside_vectors_generate) for a module that
    dual_core declines: the spin of every maximal-vector line, and of the
    homogeneous parts of `samples` random vectors outside R.
    """
    f = Z.field
    rng = random.Random(seed)
    total = R.total()
    absorbed = True
    for fp, sub, par in _candidate_spaces(Z):
        reps, _ = _line_representatives(f, sub, line_budget, rng)
        for v in reps:
            s = spin(Z, v)
            if s.dim < Z.dim and total.reduce(s.basis_rows()).any():
                absorbed = False
    outside_generate = True
    for _ in range(samples):
        v = np.array([rng.randrange(f.q) for _ in range(Z.dim)], dtype=np.int64)
        if not v.any() or total.contains(v):
            continue
        comps = [np.where(Z.parity == par, v, 0) for par in (0, 1)]
        comps = [c for c in comps if c.any() and not total.contains(c)]
        for c in comps:
            if spin(Z, c).dim < Z.dim:
                outside_generate = False
    return absorbed, outside_generate


def levi_scan(algebra, chi, lam, line_budget=10 ** 4, seed=0, samples=10):
    """Cor 5.18-style scan for a standard Levi character.

    For each simple even root alpha with chi(f_alpha) nonzero, checks
    that f_alpha^(a+1) v is maximal of weight (s_alpha . lambda) and that
    the induced map from the baby Verma at that weight is an isomorphism;
    also certifies unique-maximal-submodule behavior of Z^chi(lambda)
    (Prop 5.17).  Where simple_head took the dual-spin route, its R is
    core(W), which contains every proper submodule, so both checks hold
    by that certificate; otherwise they spin every maximal-vector line
    and `samples` random vectors outside R.
    """
    from .algebra import classify_character
    rs = algebra.root_system()
    f = algebra.field
    p = f.p
    cc = classify_character(rs, chi)
    if not cc.standard_levi:
        raise NotStandardLevi("chi is not in standard Levi form")
    Z = build_baby_verma(algebra, chi, lam)
    R, headZ = simple_head(Z, line_budget, seed)
    fpZ = sorted(fp for fp, _, _ in _candidate_spaces(headZ))
    report = {"I": [r.key for r in cc.levi_set], "dim": Z.dim, "alphas": []}
    for alpha in cc.levi_set:
        a = rs.weight_on_coroot(lam, alpha)
        if f.power(a, p) != a:
            raise NotStandardLevi("lambda(h_alpha) not in the prime field")
        a = int(a)  # prime-subfield elements are the indices 0..p-1
        u = Z.highest_vector
        for _ in range(a + 1):
            u = Z.act(rs.f_unit(alpha), u)
        mu = dot_action(rs, [alpha], lam)
        source = build_baby_verma(algebra, chi, mu)
        T, rank = induced_hom(source, Z, u)
        _, headS = simple_head(source, line_budget, seed)
        fpS = sorted(fp for fp, _, _ in _candidate_spaces(headS))
        heads_match = (headZ.dim == headS.dim and fpZ == fpS)
        report["alphas"].append({
            "alpha": alpha.key,
            "a": a,
            "weight": [int(c) for c in mu.coords],
            "rank": int(rank),
            "isomorphism": rank == Z.dim,
            "heads_match": bool(heads_match),
        })
    absorbed = outside_generate = True
    if _top_coordinate(Z) is None:
        absorbed, outside_generate = _unique_maximal_by_sampling(
            Z, R, line_budget, seed, samples)
    report["radical_dim"] = R.dim
    report["head_dim"] = headZ.dim
    report["radical_absorbs_all"] = absorbed
    report["outside_vectors_generate"] = outside_generate
    return report


def conjugate_character(algebra, g, chi):
    """(g . chi)(x) = chi(g^-1 x g) for an even invertible g."""
    f = algebra.field
    if isinstance(g, tuple):
        m, n = algebra.m, algebra.n
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
        x = algebra.unit_matrix(i, j)
        conj = (ginv @ x @ g).data
        acc = 0
        for (a, b) in algebra.even_units:
            c = int(conj[a - 1, b - 1])
            if c:
                acc = f.add(acc, f.mul(c, chi.value((a, b))))
        if acc:
            values[(i, j)] = acc
    return Character(algebra, values)


def normalize_character(algebra, chi):
    """A conjugator g with (g . chi)(N+) = 0 when the avatar allows it.

    The even avatar of chi is the pair of blocks C with C[a, b] =
    chi(E(a+1, b+1)); conjugation by g sends the transposed avatar A to
    g A g^-1.  When both transposed blocks are diagonalizable over the
    field, the inverse of the eigenvector matrix is such a g.  Returns
    (g, new_chi).
    """
    f = algebra.field
    m, n, d = algebra.m, algebra.n, algebra.d
    avatar = np.zeros((d, d), dtype=np.int64)
    for (i, j), v in chi.values.items():
        avatar[i - 1, j - 1] = v
    full = np.zeros((d, d), dtype=np.int64)
    for lo, hi in ((0, m), (m, d)):
        block = avatar[lo:hi, lo:hi].T
        pairs, complete = eigenspaces(f, block)
        if not complete:
            raise NotNormalizable(
                "the avatar block is not diagonalizable over this field")
        cols = []
        for eig, ker in pairs:
            cols.extend(ker.basis)
        h = Matrix(f, np.array(cols, dtype=np.int64).T)
        full[lo:hi, lo:hi] = inverse(h).data
    g = Matrix(f, full)
    return g, conjugate_character(algebra, g, chi)
