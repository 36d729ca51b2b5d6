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

import collections

import numpy as np

from .algebra import Character, Weight, classify_character, reflect
from .errors import (ClosureFailure, GlmnError, NotNormalized, NotNormalizable,
                     NotStandardLevi, OddInput, OrderingStuck, SingularG,
                     FormulaMismatch)
from .linalg import (Matrix, Subspace, generalized_eigenspaces, invert, kernel, matmul,
                     matvec)
from .verma import (_axiom_table, build_baby_vermas, build_levi_verma,
                    build_levi_vermas, induce, induced_hom, levi_parts)
from .analysis import (_candidate_spaces, dual_cores, is_simple, simple_head,
                       simple_heads)


# chi = chi_s + chi_n with chi_s on H and chi_n on root vectors.
CharacterDecomposition = collections.namedtuple("CharacterDecomposition", "chi chi_s chi_n")

# Phi', l', l = [l', l'] and the nilradical N of the parabolic P = l' + N.
LeviData = collections.namedtuple(
    "LeviData", "phi_prime levi_prime levi nilradical n_even n_odd")


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
    levi_prime = levi_parts(alg, phi)[1]
    nilradical = [rs.e_unit(r) for r in phi]
    parabolic = levi_prime + nilradical
    hit = alg.bracket_escape(levi_prime, levi_prime, set(levi_prime))
    if hit:
        raise ClosureFailure("l' not closed at [{}, {}]".format(*hit))
    hit = alg.bracket_escape(parabolic, nilradical, set(nilradical))
    if hit:
        raise ClosureFailure("N not an ideal at [{}, {}]".format(*hit))
    # l = [l', l']: the span of the bracket coefficients of the l' pairs
    pos = [alg.units.index(u) for u in levi_prime]
    coef = _axiom_table(alg, tuple(alg.units))[1][np.ix_(pos, pos)]
    levi = Subspace(alg.field, alg.dim, coef.reshape(-1, alg.dim))
    n_even = sum(1 for r in phi if r.parity == 0)
    n_odd = sum(1 for r in phi if r.parity == 1)
    return LeviData(phi, levi_prime, levi, nilradical, n_even, n_odd)


# An admissible order on Phi' with the per-step systems.
PhiPrimeOrder = collections.namedtuple("PhiPrimeOrder", "order steps")


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
    levi_pos = levi_parts(rs.algebra, phi)[0]
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
    # chi restricted to l = [l', l'] must be nilpotent: the diagonal
    # component of each basis row pairs to zero with chi (an empty l is)
    cartan = [algebra.units.index(u) for u in algebra.diag_units]
    chi_h = np.array([[chi.value(u)] for u in algebra.diag_units], dtype=np.int64)
    chi_l_nilpotent = not matmul(algebra.field, ld.levi.basis[:, cartan], chi_h).any()
    ZL = build_levi_verma(algebra, chi, lam, ld.phi_prime)
    _, M_prime = simple_head(ZL)
    # the Phi' positive root vectors span N, no unit of M_prime, so N kills it
    M = induce(algebra, chi, ld.phi_prime, M_prime)
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
    Z(s_alpha . lambda) and one build_levi_vermas of every Z_L(lambda); one
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
    rs = algebra.root_system()
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
            # a standard-Levi chi vanishes on h, so X^chi = F_p^d (the builders
            # refused any other lambda) and lambda(h_alpha) is an index 0..p-1
            a = int(rs.weight_on_coroot(lam, alpha))
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


def _avatar(algebra, chi):
    """The avatar of chi: the (d, d) index array C with C[i-1, j-1] = chi(E(i,j))."""
    avatar = np.zeros((algebra.d, algebra.d), dtype=np.int64)
    for (i, j), v in chi.values.items():
        avatar[i - 1, j - 1] = v
    return avatar


def conjugate_character(algebra, g, chi):
    """(g . chi)(x) = chi(g^-1 x g) for an even invertible g: a Matrix, or
    the pair of its even blocks."""
    f, m, d = algebra.field, algebra.m, algebra.d
    if isinstance(g, tuple):
        full = np.zeros((d, d), dtype=np.int64)
        full[:m, :m], full[m:, m:] = g
    else:
        full = g.data
    if full[:m, m:].any() or full[m:, :m].any():
        raise OddInput("g must be an even block matrix")
    try:
        ginv = invert(f, full)
    except ValueError:
        raise SingularG("g is not invertible") from None
    # chi(g^-1 E(i,j) g) is entry (i, j) of g^-T C g^T, C the avatar of chi
    conj = matmul(f, matmul(f, ginv.T, _avatar(algebra, chi)), full.T)
    return Character(algebra, {(i + 1, j + 1): conj[i, j] for i, j in np.argwhere(conj).tolist()})


def normalize_character(algebra, chi):
    """(g, g . chi) with g . chi in standard Levi form: zero on N+, the
    eigenvalues of chi's even avatar blocks on the diagonal and 1 on the
    E(i+1, i) where a Jordan chain goes on.  Conjugation by an even g sends
    the transposed avatar A of chi (A[a, b] = chi(E(b+1, a+1))) to g A g^-1,
    so g = P^-1 does it, P a Jordan basis of each even block of A with its
    1s on the superdiagonal (_jordan_basis).  Raises NotNormalizable when an
    eigenvalue lies outside the field."""
    f, m, d = algebra.field, algebra.m, algebra.d
    avatar, g = _avatar(algebra, chi).T, np.zeros((d, d), dtype=np.int64)
    for lo, hi in ((0, m), (m, d)):
        g[lo:hi, lo:hi] = invert(f, _jordan_basis(f, avatar[lo:hi, lo:hi]))
    g = Matrix(f, g)
    return g, conjugate_character(algebra, g, chi)


def _jordan_basis(f, a):
    """Columns P with P^-1 a P in Jordan form, 1s on the superdiagonal: for
    each eigenvalue in turn (generalized_eigenspaces), the chains N^(s-1) v,
    ..., N v, v of N = a - eig I, longest first.  A head v of length s is a
    vector of ker N^s outside ker N^(s-1) and the vectors that the longer
    chains put at that level.  Raises NotNormalizable when the eigenvalues
    in the field leave part of the space uncovered."""
    n, cols = len(a), []
    spaces = generalized_eigenspaces(f, a)
    if sum(V.dim for _, V in spaces) < n:
        raise NotNormalizable(f"an eigenvalue of chi's even avatar lies outside F_{f.q}, "
                              "so chi has no standard Levi form over it")
    for lam, V in spaces:
        N = f.sub(a, lam * np.eye(n, dtype=np.int64))
        kers, power = [Subspace(f, n)], np.eye(n, dtype=np.int64)
        while kers[-1].dim < V.dim:
            power = matmul(f, power, N)
            kers.append(kernel(f, power))
        level = np.zeros((0, n), dtype=np.int64)
        for s in range(len(kers) - 1, 0, -1):
            span = kers[s - 1].add_vectors(level)
            for v in kers[s].basis:
                if not span.contains(v):
                    span, level, chain = span.add_vectors(v), np.vstack([level, v]), [v]
                    while len(chain) < s:
                        chain.insert(0, matvec(f, N, chain[0]))
                    cols += chain
            level = matmul(f, level, N.T)
    return np.array(cols, dtype=np.int64).T
