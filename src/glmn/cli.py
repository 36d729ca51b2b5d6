"""Command line front end: config ingestion, scans, and report emission.

Commands, the one positional argument (COMMANDS): run (execute the task
list of a config), scan (simplicity scan over the weight variety), kw
(dimension-reduction verification), levi (standard-Levi isomorphism scan),
check (structure invariants).
Reports are deterministic given (config, seed): the structured output
carries no timings, so byte-identical configs give byte-identical files.
Exit codes: 0 all checks pass, 1 a hard check failed, 2 configuration or
budget error.

Importing this module registers gc.freeze with atexit: exit then skips the
import heap instead of collecting it object by object (stdio flushes after).
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import random
import re
import sys

import numpy as np

from . import __version__
from .algebra import (Character, ColumnRows, Weights, build_algebra, classify_character,
                      weights_in_variety, weight_variety, write_json)
from .analysis import (composition_series, dual_cores, frobenius_gram,
                       regular_module, shifted_joint_kernel)
from .enveloping import normalize, reduction_context
from .errors import BudgetExceeded, ConfigInvalid, GlmnError
from .ffield import check_field_budget, isprime, make_field
from .kw import kw_verify, levi_scans
from .linalg import matmul, matrix_power
from .verma import (STACK_ENTRIES, _axiom_table, build_baby_verma, build_baby_vermas,
                    build_graded_vermas, build_simple_g0_modules, f1_direct,
                    f_direct, f_formulas)

DEFAULTS = {
    "field_degree": 1,
    "chi": {},
    "lambda": "scan-all-X",
    "tasks": ["verma-scan"],
    "seed": 0,
    "jobs": 1,  # accepted and ignored: every scan runs serially
    "dim_budget": 2000,
}

atexit.register(gc.freeze)

_CHI_KEY = re.compile(r"^E\((\d+),(\d+)\)$")


def task_seed(seed, label):
    """Deterministic per-task seed derived from the config seed.  SHA-256 is
    CPython's own, as random.py's SHA-512 is: no run loads OpenSSL (hashlib)."""
    try:
        from _sha256 import sha256  # CPython 3.11
    except ImportError:
        try:
            from _sha2 import sha256  # CPython 3.12+
        except ImportError:
            from hashlib import sha256
    return int.from_bytes(sha256(f"{seed}:{label}".encode()).digest()[:8], "big")


def load_config(path, **overrides):
    """The config at path, each override that is not None put in place of
    its key before the whole is validated."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigInvalid(f"cannot read config: {exc}") from None
    if isinstance(raw, dict):
        raw.update((k, v) for k, v in overrides.items() if v is not None)
    return validate_config(raw)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def validate_config(raw):
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a JSON object")
    unknown = sorted(set(raw) - set(DEFAULTS) - {"p", "m", "n"})
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {', '.join(unknown)}")
    cfg = dict(DEFAULTS)
    cfg.update(raw)
    for key in ("p", "m", "n", "field_degree", "seed", "jobs", "dim_budget"):
        if not _is_int(cfg.get(key)):
            raise ConfigInvalid(f"config needs integer '{key}'")
    if cfg["p"] < 5:
        raise ConfigInvalid("p must be at least 5")
    if cfg["field_degree"] < 1:
        raise ConfigInvalid("field_degree must be at least 1")
    if cfg["dim_budget"] < 1:
        raise ConfigInvalid("dim_budget must be at least 1")
    check_field_budget(cfg["p"], cfg["field_degree"])
    if not isprime(cfg["p"]):
        raise ConfigInvalid(f"p = {cfg['p']} is not prime")
    if cfg["m"] < 1 or cfg["n"] < 1:
        raise ConfigInvalid("m and n must be positive")
    if not isinstance(cfg["tasks"], list):
        raise ConfigInvalid("tasks must be a list of task names")
    for t in cfg["tasks"]:
        if not isinstance(t, str) or t not in TASK_RUNNERS:
            raise ConfigInvalid(f"unknown task {t!r}; known: {', '.join(TASK_RUNNERS)}")
    if not isinstance(cfg["chi"], dict):
        raise ConfigInvalid("chi must be an object keyed by 'E(i,j)'")
    lam = cfg["lambda"]
    if lam != "scan-all-X" and not isinstance(lam, list):
        raise ConfigInvalid("lambda must be 'scan-all-X' or a coordinate list")
    return cfg


def element_index(field, value):
    """A field element from an integer or a list of integer coefficients."""
    if _is_int(value):
        return value % field.p
    if not isinstance(value, list) or not all(map(_is_int, value)):
        raise ConfigInvalid(
            f"field element must be an int or a list of ints, got {value!r}")
    if len(value) > field.k:
        raise ConfigInvalid(f"coefficient list {value} too long for k={field.k}")
    return sum((c % field.p) * int(w) for c, w in zip(value, field._ppow))


def parse_chi(algebra, spec):
    values = {}
    for key, value in spec.items():
        mt = _CHI_KEY.match(key)
        if not mt:
            raise ConfigInvalid(f"chi key {key!r} is not of the form 'E(i,j)'")
        i, j = int(mt.group(1)), int(mt.group(2))
        if not (1 <= i <= algebra.d and 1 <= j <= algebra.d):
            raise ConfigInvalid(f"chi key {key!r} out of range for d={algebra.d}")
        values[(i, j)] = element_index(algebra.field, value)
    try:
        return Character(algebra, values)
    except GlmnError as exc:
        raise ConfigInvalid(str(exc)) from None


def build_setting(cfg):
    """(algebra, chi, weights) over the field the run executes in, the
    weights as Weights; those of X^chi are enumerated only for a task of cfg
    that reads them."""
    field = make_field(cfg["p"], cfg["field_degree"])
    algebra = build_algebra(cfg["m"], cfg["n"], field)
    chi = parse_chi(algebra, cfg["chi"])
    lam = cfg["lambda"]
    if lam == "scan-all-X":
        reads = any(t in WEIGHT_TASKS for t in cfg["tasks"])
        return weight_variety(algebra, chi, None if reads else 0)
    coords = [element_index(field, c) for c in lam]
    if len(coords) != algebra.d:
        raise ConfigInvalid(f"lambda needs {algebra.d} coordinates")
    weights = Weights(field, np.array([coords], dtype=np.int64))
    if not weights_in_variety(algebra, chi, weights)[0]:
        raise ConfigInvalid("lambda does not lie in the weight variety of chi")
    return algebra, chi, weights


# the tasks that read the weights of X^chi
WEIGHT_TASKS = ("verma-scan", "graded-verma-scan", "kw-verify", "levi-scan")
# the tasks whose modules are baby Vermas, or as large as one (u(n-))
DIM_BUDGET_TASKS = WEIGHT_TASKS + ("frobenius-check", "regular-module-check")


def check_budgets(cfg, tasks, dump_module=False, dump_element=False):
    """Refuse the config at the first budget it exceeds, read off the config
    alone before the field is built, in this order: the dimension D =
    p^(even positive roots) 2^(odd positive roots) of its baby Vermas
    against dim_budget, for a task that builds one or --dump-module; then,
    against dim_budget^2, the (m + n)^6 entries of structure-check's bracket
    table, the (m + n)^4 of the algebra's, the weight table of X^chi (p^(m +
    n) weights, as each coordinate has p Artin-Schreier roots in the field
    of the run, of m + n coordinates) for a task that reads every weight,
    and dim u(g, chi) = D^2 p^(m + n) for --dump-element.  A power is
    taken only where a bound on its bit length does not decide the check."""
    p, m, n, budget = cfg["p"], cfg["m"], cfg["n"], cfg["dim_budget"]
    d, even, odd = m + n, (m * (m - 1) + n * (n - 1)) // 2, m * n
    D = p ** even * 2 ** odd if even + odd < max(64, budget.bit_length()) else None
    if (dump_module or any(t in DIM_BUDGET_TASKS for t in tasks)) and (D is None or D > budget):
        dim = D if even + odd < 64 else f"{p}^(m(m-1)/2 + n(n-1)/2) 2^(mn) at m = {m}, n = {n}"
        raise BudgetExceeded(f"predicted module dimension {dim} exceeds dim_budget {budget}")
    for power, table in [(6, "structure-check's bracket table")] * ("structure-check" in tasks) + [
            (4, "the algebra's bracket table")]:
        if d ** power > budget ** 2:
            entries = d ** power if d < 1024 else f"(m + n)^{power} at m + n = {d}"
            raise BudgetExceeded(f"{table} of {entries} entries exceeds dim_budget^2 = {budget}^2")
    over = d * (p.bit_length() - 1) >= 2 * budget.bit_length()  # p^d > dim_budget^2
    if (cfg["lambda"] == "scan-all-X" and any(t in WEIGHT_TASKS for t in tasks)
            and (over or p ** d * d > budget ** 2)):
        raise BudgetExceeded(f"the weight table of X^chi of {p}^{d} x {d} entries "
                             f"exceeds dim_budget^2 = {budget}^2")
    if dump_element and (D is None or over or D * D * p ** d > budget ** 2):
        raise BudgetExceeded(f"dim u(g, chi) = D^2 {p}^{d} with D = {D or f'{p}^{even} 2^{odd}'} "
                             f"exceeds dim_budget^2 = {budget}^2")


# ---------------------------------------------------------------------------
# scans

def _run_scan(algebra, chi, weights, graded, semisimple):
    """The columns of a scan of weights, on the algebra and chi given so that
    a later scan on them finds their plans: f_direct, dim_z and oracle_simple
    per weight, and dim_m and f1_direct when graded, as arrays (the f's of
    indices, oracle_simple of objects).

    The supertrace sigma = (1, ..., 1 | -1, ..., -1) kills every bracket, so
    for c in F_p, k_{c sigma} (E(i,i) acting by c sigma_i, root vectors by
    0) is a u(g, 0)-module, lambda + c sigma lies in X^chi with lambda, and
    tensoring with k_{c sigma} twists Z^chi(lambda), M(lambda) and Z^chi(M)
    into those of lambda + c sigma on the same root-unit matrices.  The unit
    brackets lie in F_p, so where phi^e (phi: x -> x^p) fixes chi, the
    modules of phi^e lambda are those of lambda with every entry raised to
    p^e.  So only the first weight of each orbit of both, in the given
    order, is built (_twist_orbits); an index array copies its columns to
    the rest, and one power per shift raises the f's.  Each module is built
    once, stacked by size: a plain scan's Z(lambda), a graded scan's Z(M) in
    order of dim M after the heads M.  f_direct is read off Z(M): v -> 1 (x)
    v_M is a nonzero module map Z(lambda) -> Z(M) (n+_0 kills v_M, g_1 acts
    on M by 0).  The oracle (dual_cores by stack: whether Z is simple) runs
    for semisimple chi; oracle_simple is None otherwise."""
    first, orbit, shifts = _twist_orbits(algebra, chi, weights)
    n, weights = len(first), [weights[t] for t in first.tolist()]
    cols = {"f_direct": np.zeros(n, dtype=np.int64), "dim_z": np.zeros(n, dtype=np.int64),
            "oracle_simple": np.full(n, None, dtype=object)}
    if graded:
        Ms = build_simple_g0_modules(algebra, chi, weights)
        order = sorted(range(n), key=lambda t: Ms[t].dim)
        stacks = build_graded_vermas(algebra, chi, [Ms[t] for t in order])
        cols.update(dim_m=np.array([M.dim for M in Ms], dtype=np.int64),
                    f1_direct=np.zeros(n, dtype=np.int64))
    else:
        order, stacks = range(n), build_baby_vermas(algebra, chi, weights)
    fd, dim_z, oracle = cols["f_direct"], cols["dim_z"], cols["oracle_simple"]
    for Z, simple, t in _with_verdicts(stacks, semisimple, order):
        fd[t], dim_z[t], oracle[t] = f_direct(Z).idx, Z.dim, simple
        if graded:
            cols["f1_direct"][t] = f1_direct(Z).idx
        del Z
    out, fs = {k: v[orbit] for k, v in cols.items()}, ["f_direct", "f1_direct"][:1 + graded]
    for power, at in shifts.items():
        for k, v in zip(fs, algebra.field.power(np.stack([out[k][at] for k in fs]), power)):
            out[k][at] = v
    return out


def _twist_orbits(algebra, chi, weights):
    """(first, orbit, shifts) for the orbits of weights under the twists by
    c sigma (c in F_p) and phi^e, e the least divisor of K = [F : F_p] with
    phi^e fixing chi: the index of each orbit's first weight, in order, each
    weight's position in first, and {p^(je): the weights phi^(je) of their
    first, up to a twist} for 0 < j < K/e.  A weight's key is the
    lexicographically least over j of the twist keys mu - c sigma of mu =
    phi^(-je) lambda, c the F_p digit (index mod p) of mu_1."""
    f, n, mu = algebra.field, len(weights), weights.coords
    e = next(e for e in range(1, f.k + 1) if not f.k % e and all(
        f.power(v, f.p ** e) == v for v in chi.values.values()))
    twist = lambda mu: f.sub(mu, f.mul(mu[:, :1] % f.p, algebra.str_signs))
    keys, g, shift, rows = twist(mu), f.k // e, np.zeros(n, dtype=np.int64), np.arange(n)
    for j in range(1, g):
        mu = f.power(mu, f.p ** (f.k - e))  # phi^(-e)
        key = twist(mu)
        col = (key != keys).argmax(axis=1)  # the first column where they differ
        less = key[rows, col] < keys[rows, col]
        keys[less], shift[less] = key[less], j
    order = np.lexsort((rows, *keys.T))  # by key, then by index
    head = np.concatenate(([True], (keys[order[1:]] != keys[order[:-1]]).any(axis=1)))
    rep = np.empty(n, dtype=np.int64)  # the first weight of each weight's orbit
    rep[order] = order[head][np.cumsum(head) - 1]
    is_first = rep == rows
    return (np.flatnonzero(is_first), (np.cumsum(is_first) - 1)[rep],
            {f.p ** (j * e): np.flatnonzero((shift - shift[rep]) % g == j) for j in range(1, g)})


def _with_verdicts(stacks, oracle, items):
    """(module, verdict, item) for each module of the stacks and item of
    items, in order: with oracle, whether the module is simple, one
    dual_cores per stack; None otherwise.  The verdicts are taken when the
    stack is, so no name may keep a module, here or in the caller, once the
    next one is asked for."""
    items = iter(items)
    for stack in stacks:
        yield from zip(stack, [not R.dim for R in dual_cores(stack)] if oracle
                       else [None] * len(stack), items)
        del stack


def _fit_constant(field, lhs, rhs):
    """(consistent, c) fitting lhs = c * rhs across two index arrays: c is
    None when rhs is 0 everywhere, where no constant is pinned down, and
    consistent is False where lhs is nonzero at a zero of rhs or two ratios
    differ."""
    nz = rhs != 0
    ratios = field.mul(lhs[nz], field.inv(rhs[nz]))
    if lhs[~nz].any() or (ratios != ratios[:1]).any():
        return False, None
    return True, int(ratios[0]) if len(ratios) else None


def verma_scan_task(cfg, algebra, chi, weights, graded=False):
    """The scan's report, built from _run_scan's columns and the closed
    formulas (f_formulas) as array operations.  c fits f_direct = c *
    f_formula and, graded, c_prime fits f1_direct * f0 = c' * f_direct; both
    fits are claims for semisimple chi alone.  Where the oracle ran, a row
    agrees when the direct value (f1_direct for Z(M), f_direct for
    Z(lambda)) is nonzero exactly when the module is simple.  The rows stay
    columns (ColumnRows) until the report is written."""
    field, rs = algebra.field, algebra.root_system()
    semisimple = classify_character(rs, chi).semisimple
    coords = weights.coords
    ff, f0, f1 = f_formulas(rs, coords)
    scan = _run_scan(algebra, chi, weights, graded, semisimple)
    fd, oracle = scan["f_direct"], scan["oracle_simple"]
    direct = scan["f1_direct"] if graded else fd
    agreement = np.equal(oracle, None) | np.equal(oracle, direct != 0)
    fits = {"c": _fit_constant(field, fd, ff)}
    if graded:
        fits["c_prime"] = _fit_constant(field, field.mul(scan["f1_direct"], f0), fd)
    passed = bool(agreement.all()) and (not semisimple or all(ok for ok, _ in fits.values()))
    cols = {"lambda": coords, "f_formula": ff, "f0": f0, "f1": f1, **scan, "agreement": agreement}
    indexed = ("lambda", "f_formula", "f0", "f1", "f_direct", "f1_direct")
    record = {"rows": ColumnRows(cols, field.digits, indexed), "count": len(weights),
              "simple_count": int(np.equal(oracle, True).sum())}
    record.update((k, None if c is None else field.coeffs(c)) for k, (_, c) in fits.items())
    return record, passed


# ---------------------------------------------------------------------------
# other tasks

def structure_task(cfg, algebra, chi, weights):
    """Super anticommutativity, Jacobi, ad(x)^p = ad(x^[p]) and str [x, y] =
    0, all read off the (U, U, U) bracket coefficients of the units."""
    f, U, d = algebra.field, len(algebra.units), algebra.d
    odd, coef, even, _ = _axiom_table(algebra, tuple(algebra.units))
    # [x, y] = -(-1)^{p(x)p(y)} [y, x] at each nonzero (a, b, c); a zero whose
    # mirror is nonzero fails there, so no zero needs a look
    a, b, c = np.nonzero(coef)
    v = coef[a, b, c]
    ok = np.array_equal(coef[b, a, c], np.where(odd[a] & odd[b], v, f.neg(v)))
    # ad(x)^p = ad(x^[p]) is not linear in x, so 50 random x join the even units
    rng = random.Random(task_seed(cfg["seed"], "structure"))
    xs = np.zeros((len(even) + 50, U), dtype=np.int64)
    xs[:, even] = np.vstack([np.eye(len(even), dtype=np.int64),
                             [[rng.randrange(f.q) for _ in even] for _ in range(50)]])
    # str [x, y] = 0 is bilinear: the table's diagonal columns times str's signs
    ok = (ok and _jacobi_holds(f, odd, coef) and _ad_powers_hold(algebra, coef, xs)
          and not matmul(f, coef[:, :, ::d + 1].reshape(U * U, d),
                         algebra.str_signs[:, None]).any())
    checked = dict(anticommutativity=U * U, jacobi=U ** 3, ad_p_power=len(xs), supertrace=U * U)
    return {"checked": checked, "sampled": ["ad_p_power"], "all_pass": ok}, ok


def _jacobi_holds(f, odd, coef):
    """(-1)^{p(x)p(z)} [x, [y, z]] + cyclic = 0 for every triple of units.
    A term [a, [b, c]] is nonzero only through a unit u of [b, c] with [a, u]
    != 0, found among the table's nonzeros sorted by u; it is added (on base-p
    digits) to the three triples that hold (a, b, c) in cyclic order."""
    U = len(coef)
    b, c, u = np.nonzero(coef)  # u in [b, c]
    ru, ra, rw = np.nonzero(coef.transpose(1, 0, 2))  # w in [a, u], by u
    lo, hi = np.searchsorted(ru, u), np.searchsorted(ru, u, side="right")
    i = np.repeat(np.arange(len(u)), hi - lo)  # i: a u in [b, c], as often as
    j = np.arange(len(i)) + np.repeat(hi - np.cumsum(hi - lo), hi - lo)  # j: each w in [a, u]
    a, b, c, u, w = ra[j], b[i], c[i], u[i], rw[j]
    v = f.mul(coef[b, c, u], coef[a, u, w])
    v = np.where(odd[a] & odd[c], f.neg(v), v)
    keys = np.concatenate([((x * U + y) * U + z) * U + w
                           for x, y, z in ((a, b, c), (c, a, b), (b, c, a))])
    triples, group = np.unique(keys, return_inverse=True)
    sums = np.zeros((len(triples), f.k), dtype=np.int64)
    np.add.at(sums, group, f.digits[np.tile(v, 3)])
    return not (sums % f.p).any()


def _ad_powers_hold(algebra, coef, xs):
    """ad(x)^p = ad(x^[p]) for each row x of xs, an even element on the unit
    basis: the transpose of ad(x) is x times the table reshaped to (U, U * U),
    on its nonzero columns, in chunks of rows whose ad stays below STACK_ENTRIES."""
    f, U, d = algebra.field, len(coef), algebra.d
    xps = matrix_power(f, xs.reshape(-1, d, d), f.p).reshape(-1, U)
    cols = np.flatnonzero(coef.reshape(U, U * U).any(axis=0))
    table = coef.reshape(U, U * U)[:, cols]
    chunk = max(1, STACK_ENTRIES // (U * U))
    for s in range(0, len(xs), chunk):
        x = np.concatenate([xs[s:s + chunk], xps[s:s + chunk]])
        ads = np.zeros((len(x), U * U), dtype=np.int64)
        ads[:, cols] = matmul(f, x, table)
        ads = ads.reshape(2, -1, U, U)
        if not np.array_equal(matrix_power(f, ads[0], f.p), ads[1]):
            return False
    return True


def _nminus_units(algebra):
    rs = algebra.root_system()
    return [rs.f_unit(r) for r in rs.positive]


def frobenius_task(cfg, algebra, chi, weights):
    sub = _nminus_units(algebra)
    gram, nondegenerate = frobenius_gram(algebra, sub, chi,
                                         dim_budget=cfg["dim_budget"])
    return {"sub": sub, "gram_dim": gram.rows,
            "nondegenerate": bool(nondegenerate)}, bool(nondegenerate)


def regular_task(cfg, algebra, chi, weights):
    sub = _nminus_units(algebra)
    left = regular_module(algebra, sub, chi, side="left")
    right = regular_module(algebra, sub, chi, side="right")
    # the socles of the shifted actions; with chi zero on n- they are the
    # trivial submodules
    tl = shifted_joint_kernel(left)
    tr = shifted_joint_kernel(right)
    same_line = tl.dim == 1 == tr.dim and bool((tl.basis == tr.basis).all())
    series = composition_series(left)
    factor_dims = [d for d, _ in series.factors]
    uniform = len({fp for _, fp in series.factors}) <= 1
    passed = same_line and sum(factor_dims) == left.dim and uniform
    return {"sub": sub, "dim": left.dim,
            "trivial_dim_left": tl.dim, "trivial_dim_right": tr.dim,
            "v_left_equals_v_right": same_line,
            "factor_dims": factor_dims,
            "factors_uniform": uniform}, passed


def _sampled_task(cfg, algebra, weights, label, scan, passes, count=5):
    """scan's reports on count weights sampled by (seed, label), or on all
    of them if there are no more, each with its lambda digits; the task
    passes when passes holds for every report."""
    if len(weights) <= count:
        lams = list(weights)
    else:
        rng = random.Random(task_seed(cfg["seed"], label))
        lams = [weights[t] for t in sorted(rng.sample(range(len(weights)), count))]
    reports = scan(lams)
    for lam, rep in zip(lams, reports):
        rep["lambda"] = algebra.field.digits[lam.coords].tolist()
    return {"reports": reports}, all(map(passes, reports))


def kw_task(cfg, algebra, chi, weights):
    return _sampled_task(cfg, algebra, weights, "kw",
                         lambda lams: [kw_verify(algebra, chi, lam) for lam in lams],
                         lambda rep: rep["induced_simple"] and rep["chi_l_nilpotent"])


def levi_task(cfg, algebra, chi, weights):
    return _sampled_task(cfg, algebra, weights, "levi",
                         lambda lams: levi_scans(algebra, chi, lams),
                         lambda rep: rep["radical_absorbs_all"] and rep["outside_vectors_generate"]
                         and all(a["isomorphism"] and a["heads_match"] for a in rep["alphas"]))


TASK_RUNNERS = {
    "structure-check": structure_task,
    "verma-scan": lambda cfg, a, c, w: verma_scan_task(cfg, a, c, w, False),
    "graded-verma-scan": lambda cfg, a, c, w: verma_scan_task(cfg, a, c, w, True),
    "kw-verify": kw_task,
    "levi-scan": levi_task,
    "frobenius-check": frobenius_task,
    "regular-module-check": regular_task,
}


# ---------------------------------------------------------------------------
# report emission

def emit(report, fmt, stream):
    """report as json (json.dump's text, sorted keys, indent 2: write_json), csv or a table."""
    if fmt == "json":
        write_json(report, stream)
        stream.write("\n")
    elif fmt == "csv":
        _emit_csv(report, stream)
    elif fmt == "table":
        _emit_table(report, stream)
    else:
        raise ConfigInvalid(f"unknown format {fmt!r}")


def _emit_csv(report, stream):
    import csv
    scans = [t["record"]["rows"] for t in report["tasks"] if "rows" in t["record"]]
    writer = csv.writer(stream)
    if not scans:
        writer.writerow(["task", "passed"])
        for task in report["tasks"]:
            writer.writerow([task["task"], task["passed"]])
        return
    # one block, its header and its rows, per scan task in task order
    for rows in scans:
        writer.writerow(["lambda", "f_direct", "f_formula", "f0", "f1",
                         "oracle_simple", "agreement"])
        writer.writerows([";".join(str(c) for c in r["lambda"]),
                          str(r.get("f_direct")), str(r["f_formula"]),
                          str(r["f0"]), str(r["f1"]),
                          r["oracle_simple"], r["agreement"]] for r in rows)


def _emit_table(report, stream):
    stream.write(f"glmn {report['library_version']} report\n")
    fld = report["field"]
    stream.write(f"field: p={fld['p']} k={fld['k']} modulus={fld['modulus']}\n")
    for task in report["tasks"]:
        rec = task["record"]
        status = "pass" if task["passed"] else "FAIL"
        stream.write(f"\n[{task['task']}] {status}\n")
        if "rows" in rec:
            stream.write(f"  rows: {rec['count']}  simple: "
                         f"{rec.get('simple_count')}  c: {rec.get('c')}\n")
            header = f"  {'lambda':<28} {'f_direct':<12} {'f_formula':<12} verdict"
            stream.write(header + "\n")
            for r in rec["rows"]:
                lam = ",".join(str(c) for c in r["lambda"])
                stream.write(f"  {lam:<28} {str(r.get('f_direct')):<12} "
                             f"{str(r['f_formula']):<12} {r['oracle_simple']}\n")
        else:
            stream.write("  " + json.dumps(rec, sort_keys=True) + "\n")


def make_report(cfg, algebra, results):
    field = algebra.field
    return {
        "schema_version": 3,
        "library_version": __version__,
        # jobs is accepted and has no effect, so the report leaves it out
        "config": {k: cfg[k] for k in sorted(cfg) if k != "jobs"},
        "field": {"p": field.p, "k": field.k,
                  "modulus": [int(c) for c in field.modulus]},
        "tasks": [{"task": name, "record": rec, "passed": passed}
                  for name, rec, passed in results],
        "passed": all(passed for _, _, passed in results),
    }


def dump_module(module, stream):
    stream.write(f"dim {module.dim}\n")
    stream.write("parity " + " ".join(str(int(x)) for x in module.parity) + "\n")
    if module.labels is not None:
        for t, label in enumerate(module.labels):
            stream.write(f"label {t} {label}\n")
    for unit in module.units:
        stream.write(f"action E{unit}\n")
        for row in module.matrix(unit):
            stream.write("  " + " ".join(str(int(x)) for x in row) + "\n")


# ---------------------------------------------------------------------------
# entry points

def check_output_paths(out, dump_module_path=None, dump_element_path=None, reports=()):
    """Refuse, before any task runs, an --out whose nearest existing path is
    no writable directory, a report file (of the names in reports) that is a
    directory in it, and a dump file that is a directory or whose directory
    is no writable directory."""
    for flag, path, kind in [("--out", out, "a directory"),
                             ("--dump-module", dump_module_path, "a file"),
                             ("--dump-element", dump_element_path, "a file"),
                             *(("--out", os.path.join(out, r), "a file") for r in reports if out)]:
        if not path:
            continue
        at = os.path.abspath(path)
        parent = at if kind == "a directory" else os.path.dirname(at)
        while flag == "--out" and not os.path.exists(parent):
            parent = os.path.dirname(parent)
        if (not os.path.isdir(parent) or not os.access(parent, os.W_OK | os.X_OK)
                or kind == "a file" and os.path.isdir(at)):
            raise ConfigInvalid(f"{flag} {path} cannot be written as {kind}")


def _execute(cfg, tasks, fmt, out, dump_module_path=None, dump_element_path=None):
    check_budgets(cfg, tasks, dump_module_path, dump_element_path)
    check_output_paths(out, dump_module_path, dump_element_path,
                       [f"{name}.{_ext(fmt)}" for name in (*tasks, "summary")])
    algebra, chi, weights = build_setting(dict(cfg, tasks=tasks))
    results = []
    for name in tasks:
        rec, passed = TASK_RUNNERS[name](cfg, algebra, chi, weights)
        results.append((name, rec, passed))
    report = make_report(cfg, algebra, results)
    if dump_module_path:
        Z = build_baby_verma(algebra, chi, (weights or weight_variety(algebra, chi, 1)[2])[0])
        with open(dump_module_path, "w") as fh:
            dump_module(Z, fh)
    if dump_element_path:
        ctx = reduction_context(algebra, chi)
        rs = algebra.root_system()
        word = []
        for r in rs.positive:
            word += [rs.e_unit(r)] * (ctx.caps[ctx.unit_to_pos[rs.e_unit(r)]] - 1)
        for r in rs.positive:
            word += [rs.f_unit(r)] * (ctx.caps[ctx.unit_to_pos[rs.f_unit(r)]] - 1)
        with open(dump_element_path, "w") as fh:
            fh.write(normalize(ctx, word).dump() + "\n")
    if out:
        os.makedirs(out, exist_ok=True)
        for name, rec, passed in results:
            sub = make_report(cfg, algebra, [(name, rec, passed)])
            with open(os.path.join(out, f"{name}.{_ext(fmt)}"), "w") as fh:
                emit(sub, fmt, fh)
        with open(os.path.join(out, f"summary.{_ext(fmt)}"), "w") as fh:
            emit(report, fmt, fh)
    else:
        emit(report, fmt, sys.stdout)
    return 0 if report["passed"] else 1


def _ext(fmt):
    return {"json": "json", "csv": "csv", "table": "txt"}[fmt]


# each command's tasks; run takes the config's own
COMMANDS = {"run": None, "scan": ["verma-scan"], "kw": ["kw-verify"],
            "levi": ["levi-scan"], "check": ["structure-check"]}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="glmn",
        description="Exact gl(m|n) module computations over finite fields.")
    parser.add_argument("command", choices=COMMANDS, help="; ".join(
        f"{name}: {', '.join(tasks or ['the tasks listed in the config'])}"
        for name, tasks in COMMANDS.items()))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None,
                        help="directory for report files (default: stdout)")
    parser.add_argument("--format", default="json", choices=("json", "csv", "table"))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--dim-budget", type=int, default=None)
    parser.add_argument("--dump-module", default=None,
                        help="write the baby Verma at the first weight here")
    parser.add_argument("--dump-element", default=None,
                        help="write the straightened top monomial product here")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, dim_budget=args.dim_budget)
        tasks = COMMANDS[args.command] or cfg["tasks"]
        return _execute(cfg, tasks, args.format, args.out,
                        args.dump_module, args.dump_element)
    except (ConfigInvalid, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GlmnError as exc:
        print(f"task failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
