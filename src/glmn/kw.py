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

import numpy as np

from .algebra import Character, Weight, reflect
from .errors import (ClosureFailure, GlmnError, NotNormalized, NotNormalizable,
                     NotStandardLevi, OddInput, OrderingStuck, SingularG,
                     FormulaMismatch)
from .linalg import Matrix, Subspace, eigenspaces, inverse
from .verma import (_induce_all, build_baby_vermas, induce, induced_hom,
                    weight_line)
from .analysis import (_candidate_spaces, dual_cores, is_simple, simple_head,
                       simple_heads)


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
    """chi(h_alpha): the coroot value of chi's diagonal values."""
    alg = rs.algebra
    diag = Weight(alg.field, [chi.value(u) for u in alg.diag_units])
    return rs.weight_on_coroot(diag, root)


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
    hit = alg.bracket_escape(levi_prime, levi_prime, set(levi_prime))
    if hit:
        raise ClosureFailure("l' not closed at [{}, {}]".format(*hit))
    hit = alg.bracket_escape(parabolic, nilradical, set(nilradical))
    if hit:
        raise ClosureFailure("N not an ideal at [{}, {}]".format(*hit))
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
    phi = _check_normalized(rs, chi)
    remaining = {r.key for r in phi}
    levi_pos = [r for r in rs.positive if r.key not in remaining]
    positives = list(rs.positive)
    order = []
    steps = []
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
    hit = alg.bracket_escape(prefix_units, prefix_units, prefix_units)
    if hit:
        raise ClosureFailure("prefix not closed: [{}, {}] hits {}".format(*hit))
    hit = alg.bracket_escape([rs.e_unit(r) for r in levi_pos], prefix_units,
                             prefix_units)
    if hit:
        raise ClosureFailure("prefix not normalized: [{}, {}] hits {}".format(*hit))


def build_levi_verma(algebra, chi, lam, phi):
    """The baby Verma of l' at lambda: induced over the roots outside Phi'."""
    return next(build_levi_vermas(algebra, chi, [lam], phi))[0]


def build_levi_vermas(algebra, chi, lams, phi):
    """build_levi_verma at each lambda of lams, in stacks (verma._induce_all)."""
    rs = algebra.root_system()
    phi_keys = {r.key for r in phi}
    levi_roots = [r for r in rs.positive if r.key not in phi_keys]
    units = list(algebra.diag_units)
    for r in levi_roots:
        units.append(rs.e_unit(r))
        units.append(rs.f_unit(r))
    return _induce_all(algebra, chi, levi_roots,
                       (weight_line(algebra, chi, lam) for lam in lams), units=units)


def build_kw_module(algebra, chi, M_prime, phi):
    """u(g, chi) tensored over the parabolic with a simple u(l')-module.

    The nilradical acts by zero on M_prime; the basis is (monomials in
    the Phi' negative root vectors) x (basis of M_prime).
    """
    # the Phi' positive root vectors span N, which is not among the units
    # of M_prime and so kills it
    return induce(algebra, chi, phi, M_prime)


def kw_verify(algebra, chi, lam):
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
    _, M_prime = simple_head(ZL)
    M = build_kw_module(algebra, chi, M_prime, ld.phi_prime)
    predicted = (p ** ld.n_even) * (2 ** ld.n_odd) * M_prime.dim
    if M.dim != predicted:
        raise FormulaMismatch(f"dim M = {M.dim}, predicted {predicted}")
    verdict = is_simple(M)
    return {
        "phi_prime": [r.key for r in ld.phi_prime],
        "dim_n": [ld.n_even, ld.n_odd],
        "dim_m_prime": M_prime.dim,
        "dim_m": M.dim,
        "predicted_dim": predicted,
        "induced_simple": bool(verdict.simple),
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


def levi_scan(algebra, chi, lam):
    """The Levi scan at one weight: levi_scans at [lam]."""
    return levi_scans(algebra, chi, [lam])[0]


def levi_scans(algebra, chi, lams):
    """Cor 5.18-style scan for a standard Levi character, one report per
    weight of lams, in order.

    For each simple even root alpha with chi(f_alpha) nonzero, checks
    that f_alpha^(a+1) v is maximal of weight (s_alpha . lambda) and that
    the induced map from the baby Verma at that weight is an isomorphism;
    also decides whether Z = Z^chi(lambda) has a unique maximal submodule
    (Prop 5.17), exactly: radical_absorbs_all and outside_vectors_generate
    both hold iff it does.

    That is read off the Levi baby Verma Z_L(lambda).  Let I be the simple
    roots alpha with chi(f_alpha) nonzero.  Every relation of u(g, chi) is
    homogeneous modulo the root lattice ZPhi_I, so u(g, chi) and Z are
    graded by ZPhi/ZPhi_I, and the degree-0 part of Z is Z_L(lambda), the
    module induced over the positive roots of ZPhi_I alone.  The radical
    of a graded module over a graded Artin algebra is graded (Gordon &
    Green, Graded Artin algebras, J. Algebra 76, 1982), and Z is generated
    by its degree-0 part.  So when Z_L(lambda) is simple, which it is when
    chi is regular nilpotent on the Levi (Jantzen, Representations of Lie
    algebras in prime characteristic, 1998), rad Z misses degree 0 and
    Z / rad Z is simple.  That simplicity is checked, not assumed: where
    Z_L(lambda) is not simple, NotStandardLevi is raised rather than a
    verdict reported.

    The weights go in stages: one build_baby_vermas of every Z(lambda) and
    Z(s_alpha . lambda) and one _induce_all of every Z_L(lambda); one
    simple_heads of all the Z's and one dual_cores of all the Z_L's, each
    spinning its certificates in lockstep; then each weight's report, with
    its maximal vectors and induced_hom.  When a stage raises, the weights
    run again one at a time, so the error raised is that of the first
    weight in order that fails, as from levi_scan at each weight in turn.
    """
    try:
        return _levi_stages(algebra, chi, lams)
    except GlmnError:
        if len(lams) > 1:
            for lam in lams:
                _levi_stages(algebra, chi, [lam])
        raise


def _levi_stages(algebra, chi, lams):
    """levi_scans' stages, raising at the first failure of any weight."""
    from .algebra import classify_character
    rs = algebra.root_system()
    f = algebra.field
    p = f.p
    cc = classify_character(rs, chi)
    if not cc.standard_levi:
        raise NotStandardLevi("chi is not in standard Levi form")
    alphas, n = cc.levi_set, len(lams)
    mus = [dot_action(rs, [alpha], lam) for lam in lams for alpha in alphas]
    Zs = [Z for stack in build_baby_vermas(algebra, chi, list(lams) + mus) for Z in stack]
    # the positive roots outside ZPhi_I: those with a simple root outside I
    levi = {r.key for r in cc.levi_set}
    phi = [r for r in rs.positive
           if any((k, k + 1) not in levi for k in range(r.i, r.j))]
    ZLs = [Z for stack in build_levi_vermas(algebra, chi, lams, phi) for Z in stack]
    heads = simple_heads(Zs)
    cores = dual_cores(ZLs)
    fps = [sorted(fp for fp, _, _ in _candidate_spaces(head)) for _, head in heads]
    reports = []
    for w, lam in enumerate(lams):
        Z, (R, headZ) = Zs[w], heads[w]
        report = {"I": [r.key for r in cc.levi_set], "dim": Z.dim, "alphas": []}
        for j, alpha in enumerate(alphas):
            a = rs.weight_on_coroot(lam, alpha)
            if f.power(a, p) != a:
                raise NotStandardLevi("lambda(h_alpha) not in the prime field")
            a = int(a)  # prime-subfield elements are the indices 0..p-1
            u = Z.highest_vector
            for _ in range(a + 1):
                u = Z.act(rs.f_unit(alpha), u)
            s = n + w * len(alphas) + j
            T, rank = induced_hom(Zs[s], Z, u)
            headS = heads[s][1]
            heads_match = (headZ.dim == headS.dim and fps[w] == fps[s])
            report["alphas"].append({
                "alpha": alpha.key,
                "a": a,
                "weight": [int(c) for c in mus[w * len(alphas) + j].coords],
                "rank": int(rank),
                "isomorphism": rank == Z.dim,
                "heads_match": bool(heads_match),
            })
        if cores[w].dim:
            raise NotStandardLevi(
                f"Z_L(lambda) is not simple at lambda = {[int(c) for c in lam.coords]}, "
                "so Prop 5.17 is not decided there")
        report["radical_dim"] = R.dim
        report["head_dim"] = headZ.dim
        report["radical_absorbs_all"] = True
        report["outside_vectors_generate"] = True
        reports.append(report)
    return reports


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
