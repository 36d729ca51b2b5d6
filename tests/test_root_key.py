"""Induced modules' root keys and the two memos they index.

Every module built by verma.build_induced carries a root_key: the blocks
of its acting root-unit matrices in the context's induction plan, with the
number of free roots, the inner dimension, the parity and the acting units.
dual_core's certificate (the spin of e_t in the dual) and _top_coefficient
(e-word f-word v) read only the root-unit matrices, so the context keeps
them per key and modules of different weights share them.  Here the
memoized results are compared with fresh ones, on keyless copies of the
modules and after clearing the memos, on every gl(2|1) weight of three
settings, and the spins, dual builds and word evaluations of whole scans
are counted.
"""

import contextlib
import functools
from unittest import mock

import numpy as np
import pytest

from _line_oracle import witness

from glmn import analysis, cli, verma
from glmn.algebra import (Character, Weight, build_algebra, classify_character,
                          weight_variety)
from glmn.analysis import dual_core, is_simple, simple_head
from glmn.errors import NonScalarResult
from glmn.ffield import make_field
from glmn.kw import build_kw_module, build_levi_verma, levi_data
from glmn.linalg import Subspace
from glmn.verma import (ModuleRep, build_baby_verma, build_even_verma,
                        build_graded_verma, build_simple_g0_module, f1_direct,
                        f_direct)

CHI0 = {}
DIAG = {(1, 1): 1, (2, 2): 1, (3, 3): 1}
LEVI = {(2, 1): 1}


def fresh_setting(chi):
    """gl(2|1) over F_5 (F_{5^5} for DIAG) on a new algebra, so its
    contexts and their memos start empty."""
    alg = build_algebra(2, 1, make_field(5))
    return weight_variety(alg, Character(alg, chi))


def _graded(alg, chi, lam):
    E = build_even_verma(alg, chi, lam)
    G = build_graded_verma(alg, chi, build_simple_g0_module(alg, chi, lam))
    return [E, G, build_baby_verma(alg, chi, lam)]


def _levi(alg, chi, lam):
    phi = levi_data(alg.root_system(), chi).phi_prime
    ZL = build_levi_verma(alg, chi, lam, phi)
    K = build_kw_module(alg, chi, simple_head(ZL)[1], phi)
    return [build_baby_verma(alg, chi, lam), ZL, K]


MODULES = {
    "chi0": (CHI0, lambda alg, chi, lam: [build_baby_verma(alg, chi, lam)]),
    "diag": (DIAG, _graded),
    "levi": (LEVI, _levi),
}


def clear_memos(M):
    M.ctx._cores.clear()
    M.ctx._tops.clear()


def keyless(M):
    """M as a module without a root key, which reads no memo."""
    return ModuleRep(M.algebra, M.chi, M.units, M.actions, M.parity,
                     labels=M.labels, highest_vector=M.highest_vector,
                     lam=M.lam, ctx=M.ctx)


def summary(M):
    """Everything read through the memos, as comparable plain values."""
    R = dual_core(M)
    found = witness(M)
    out = {"R": (R.basis.tolist(), list(R.pivots)),
           "simple": is_simple(M).simple,
           "witness": None if found is None else found[0].tolist(),
           "witness_key": None if found is None else found[1:],
           "head_dim": simple_head(M)[1].dim}
    if M.units == M.algebra.units:
        for name, fn in (("f_direct", f_direct), ("f1_direct", f1_direct)):
            try:
                out[name] = fn(M).idx
            except NonScalarResult:
                out[name] = "not scalar"
    return out


@functools.lru_cache(maxsize=None)
def memoized_and_fresh(name):
    """(summaries read through a memo shared by the whole sweep, the same
    read on copies without a key, which read no memo, the memo sizes)."""
    chi, builders = MODULES[name]
    alg, chi, weights = fresh_setting(chi)
    modules = [M for lam in weights for M in builders(alg, chi, lam)]
    memoized = [summary(M) for M in modules]
    contexts = {id(M.ctx): M.ctx for M in modules}.values()
    sizes = (sum(len(c._cores) for c in contexts), sum(len(c._tops) for c in contexts))
    return memoized, [summary(keyless(M)) for M in modules], sizes


@pytest.mark.parametrize("name", sorted(MODULES))
def test_memoized_results_equal_fresh_ones(name):
    memoized, fresh, _ = memoized_and_fresh(name)
    assert len(memoized) >= 125
    for t, (got, want) in enumerate(zip(memoized, fresh)):
        assert got == want, t


@pytest.mark.parametrize("name", sorted(MODULES))
def test_memos_are_shared_across_weights(name):
    memoized, _, (cores, tops) = memoized_and_fresh(name)
    count = len(memoized)
    # the levi sweep has 125 weights but few distinct root actions too
    assert 0 < cores < count and 0 < tops < count


def test_equal_root_action_at_different_weights():
    alg, chi, _ = fresh_setting(CHI0)
    f = alg.field
    # lambda + (1, 1, -1) keeps lambda1 - lambda2, lambda1 + lambda3 and
    # lambda2 + lambda3, the values at the coroots
    Z1 = build_baby_verma(alg, chi, Weight(f, [1, 2, 3]))
    Z2 = build_baby_verma(alg, chi, Weight(f, [2, 3, 2]))
    assert Z1.root_key == Z2.root_key
    cartan = alg.diag_units
    roots = [u for u in alg.units if u not in cartan]
    assert np.array_equal(Z1.matrices(roots), Z2.matrices(roots))
    assert not np.array_equal(Z1.matrices(cartan), Z2.matrices(cartan))
    spins = []
    real_spin = analysis._spin_stack
    with mock.patch.object(analysis, "_spin_stack",
                           lambda Ms, ws: spins.extend(Ms) or real_spin(Ms, ws)):
        first, second = summary(Z1), summary(Z2)
    # one module spun: the dual of Z1's root units
    assert len(spins) == 1
    clear_memos(Z2)
    assert second == summary(Z2)
    # all but the witness's weight, which is read off the Cartan diagonal
    assert first.pop("witness_key") != second.pop("witness_key")
    assert first == second


def test_units_top_coordinate_and_vector_are_part_of_the_key():
    alg, chi, weights = fresh_setting(CHI0)
    f, rs = alg.field, alg.root_system()
    babies = [build_baby_verma(alg, chi, lam) for lam in weights]
    # the even-part Verma is the same induction as the module below, on
    # fewer acting units
    full = verma.induce(alg, chi, rs.positive_even,
                        next(verma.weight_lines(alg, chi, weights[:1])))
    even = build_even_verma(alg, chi, weights[0])
    # Z(lam) + Z(mu) from two weight lines whose coordinate sums differ, so
    # neither top weight occurs in the other summand: equal actions, with
    # the highest vector on the first or on the second line
    lam = next(Z.lam for Z in babies if f_direct(Z).idx)
    mu = next(Z.lam for Z in babies if not f_direct(Z).idx
              and sum(Z.lam.coords) % 5 != sum(lam.coords) % 5)
    lines = [np.diag([lam.value(i), mu.value(i)]) for i in range(1, alg.d + 1)]

    def induced(parity, hv=None):
        inner = ModuleRep(alg, chi, alg.diag_units, lines, parity, highest_vector=hv)
        return verma.induce(alg, chi, rs.positive, inner)
    pair = [induced([0, 0], hv) for hv in ([1, 0], [0, 1])]
    assert full.root_key != even.root_key
    assert pair[0].root_key == pair[1].root_key
    assert [analysis._top_coordinate(M) for M in pair] == [0, 1]
    assert [bool(f_direct(M).idx) for M in pair] == [True, False]
    for M in [full, even] + pair:
        assert summary(M) == summary(keyless(M))
    # the parity alone separates keys too
    assert induced([1, 1]).root_key != induced([0, 0]).root_key


def test_modules_outside_induce_have_no_key():
    alg, chi, weights = fresh_setting(CHI0)
    Z = next(Z for Z in (build_baby_verma(alg, chi, lam) for lam in weights)
             if not is_simple(Z))
    R = dual_core(Z)
    Q, _, _ = analysis.quotient_module(Z, R)
    sub = analysis.restrict_module(Z, R)[0]
    dual = analysis.dual_module(Z)
    assert Z.root_key is not None
    assert Q.root_key is sub.root_key is dual.root_key is None
    cores = len(Z.ctx._cores)
    dual_core(Q)
    assert len(Z.ctx._cores) == cores


@pytest.mark.parametrize("k", [1, 5])
def test_nonzeros_round_trip(k):
    # ambient above 255 and q - 1 above 255 need wider index and value types
    field = make_field(5, k)
    rng = np.random.default_rng(k)
    rows = rng.integers(0, field.q, size=(40, 300)) * (rng.random((40, 300)) < 0.1)
    for space in (Subspace(field, 300, rows), Subspace(field, 300)):
        back = analysis._from_nonzeros(field, 300, analysis._nonzeros(space))
        assert back == space and back.pivots == space.pivots


def test_action_is_read_only():
    alg, chi, weights = fresh_setting(CHI0)
    Z = build_baby_verma(alg, chi, weights[0])
    for view in (Z.actions, Z.stacked_action, Z.matrix((1, 2))):
        with pytest.raises(ValueError):
            view[0, 0] = 1
    # the caller's array is left as it was
    mats = np.zeros((1, 2, 2), dtype=np.int64)
    M = ModuleRep(alg, chi, [(1, 1)], mats, [0, 0])
    mats[0, 0, 0] = 1
    with pytest.raises(ValueError):
        M.actions[0, 0, 0] = 1


# every R is read through _dual_cores, and every spin, lockstep or alone, is
# made by _spin_stack: both take a list of modules, and each module counts
COUNTED = {"spin": (analysis, "_spin_stack"), "dual_core": (analysis, "_dual_cores"),
           "apply_word": (ModuleRep, "apply_word"),
           "top": (verma, "_top_coefficient")}
PER_MODULE = {"spin", "dual_core"}


def count_scan(chi, graded, counted=COUNTED, setting=None):
    """The modules spun and the modules whose R is read, and the calls of
    each other counted function (by default apply_word and
    _top_coefficient), over a whole gl(2|1) scan on fresh contexts, or on
    setting, fresh_setting(chi)'s (algebra, chi, weights), if given."""
    alg, chi, weights = setting or fresh_setting(chi)
    counts = dict.fromkeys(counted, 0)

    def counting(owner, attr, key):
        real = getattr(owner, attr)

        def counted(*args, **kwargs):
            counts[key] += len(args[0]) if key in PER_MODULE else 1
            return real(*args, **kwargs)
        return mock.patch.object(owner, attr, counted)

    with contextlib.ExitStack() as stack:
        for key, (owner, attr) in counted.items():
            stack.enter_context(counting(owner, attr, key))
        semisimple = classify_character(alg.root_system(), chi).semisimple
        cols = cli._run_scan(alg, chi, weights, graded, semisimple)
    assert all(len(col) == 125 for col in cols.values())
    return counts


def test_graded_scan_spins_each_root_action_once():
    # lambda_i = r + c_i with r a root of x^5 - x - 1: 5 distinct even
    # Vermas and 25 graded Vermas once the Cartan units are set aside; the
    # 125 even Vermas' heads take one R per distinct even Verma, and each of
    # the 125 oracle verdicts one; f_direct and f1_direct are both read off
    # each graded Verma, and each top coefficient applies two words
    counts = count_scan(DIAG, graded=True)
    assert counts == {"spin": 30, "dual_core": 5 + 125, "apply_word": 2 * 50, "top": 250}


def test_chi0_scan_spins_each_root_action_once():
    counts = count_scan(CHI0, graded=False)
    assert counts == {"spin": 25, "dual_core": 125, "apply_word": 2 * 25, "top": 125}


@pytest.mark.parametrize("chi,graded,spins,calls", [(DIAG, True, 30, 130),
                                                    (CHI0, False, 25, 125)],
                         ids=["diag-graded", "chi0"])
def test_scans_build_the_dual_only_to_spin(chi, graded, spins, calls):
    # a memo hit reads S and R without the dual module, so the dual is
    # built once per certificate spin
    counts = count_scan(chi, graded, dict(COUNTED, dual=(analysis, "dual_module")))
    assert counts["dual_core"] == calls
    assert counts["dual"] == counts["spin"] == spins
