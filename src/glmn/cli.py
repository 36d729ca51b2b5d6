"""Command line front end: config ingestion, scans, and report emission.

Subcommands: run (execute the task list of a config), scan (simplicity
scan over the weight variety), kw (dimension-reduction verification),
levi (standard-Levi isomorphism scan), check (structure invariants).
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
import hashlib
import itertools
import json
import os
import random
import re
import sys

import numpy as np

from . import __version__
from .algebra import (Character, Weight, build_algebra, classify_character,
                      weights_in_variety, weight_variety)
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

TASKS = ("structure-check", "verma-scan", "graded-verma-scan", "kw-verify",
         "levi-scan", "frobenius-check", "regular-module-check")

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
    """Deterministic per-task seed derived from the config seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


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
        if t not in TASKS:
            raise ConfigInvalid(f"unknown task {t!r}; known: {', '.join(TASKS)}")
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


def coeffs_of(field, idx):
    return [int(c) for c in field.digits[idx]]


def build_setting(cfg):
    """(algebra, chi, weights) over the field the run executes in; the
    weights of X^chi are enumerated only for a task of cfg that reads them."""
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
    weight = Weight(field, coords)
    if not weights_in_variety(algebra, chi, [weight])[0]:
        raise ConfigInvalid("lambda does not lie in the weight variety of chi")
    return algebra, chi, [weight]


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
    """The rows of a scan of weights on the algebra and chi given, so that a
    later scan on them finds their plans and certificates.  It runs in
    stages over all the weights, each stacked by its own modules' size: the
    formulas and report coefficients as array operations; a graded scan's
    heads M, then Z(M) in order of dim M, with f1_direct and the oracle;
    then the baby Vermas with f_direct, and the oracle in a plain scan.
    semisimple, whether chi is, says whether the oracle (dual_cores by
    stack) runs."""
    field = algebra.field
    coords = np.array([lam.coords for lam in weights], dtype=np.int64).reshape(-1, algebra.d)
    ff, f0, f1 = f_formulas(algebra.root_system(), coords)
    cols = [field.digits[x].tolist() for x in (coords, ff, f0, f1)]
    rows = [dict(zip(("lambda", "f_formula", "f0", "f1"), vals), _f0_idx=i, _ff_idx=j,
                 _f1_idx=None, oracle_simple=None)
            for *vals, i, j in zip(*cols, f0.tolist(), ff.tolist())]
    if graded:
        Ms = build_simple_g0_modules(algebra, chi, weights)
        order = sorted(range(len(Ms)), key=lambda t: Ms[t].dim)
        stacks = build_graded_vermas(algebra, chi, [Ms[t] for t in order])
        for Z, simple, t in _with_verdicts(stacks, semisimple, order):
            f1d = f1_direct(Z).idx
            rows[t].update(dim_m=Ms[t].dim, dim_z=Z.dim, f1_direct=coeffs_of(field, f1d),
                           _f1_idx=f1d, oracle_simple=simple)
            del Z
    stacks = build_baby_vermas(algebra, chi, weights)
    for Z, simple, row in _with_verdicts(stacks, semisimple and not graded, rows):
        fd = f_direct(Z)
        row.update(f_direct=coeffs_of(field, fd.idx), _fd_idx=fd.idx)
        if not graded:
            row.update(dim_z=Z.dim, oracle_simple=simple)
        del Z
    return rows


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


def _fit_constant(field, pairs):
    """Fit lhs = c * rhs across all pairs.

    Returns (consistent, c).  c is None when every pair is (0, 0), in
    which case the data does not pin down a constant but nothing is
    contradicted either.
    """
    c = None
    for lhs, rhs in pairs:
        if rhs == 0:
            if lhs != 0:
                return False, None
            continue
        this = field.mul(lhs, field.inv(rhs))
        if c is None:
            c = this
        elif c != this:
            return False, None
    return True, c


def verma_scan_task(cfg, algebra, chi, weights, graded=False):
    field = algebra.field
    semisimple = classify_character(algebra.root_system(), chi).semisimple
    rows = _run_scan(algebra, chi, weights, graded, semisimple)
    record = {"rows": [], "count": len(rows)}
    c_ok, c = _fit_constant(field, [(r["_fd_idx"], r["_ff_idx"]) for r in rows])
    record["c"] = coeffs_of(field, c) if c is not None else None
    if graded:
        cp_ok, cp = _fit_constant(field, [(field.mul(r["_f1_idx"], r["_f0_idx"]),
                                           r["_fd_idx"]) for r in rows])
        record["c_prime"] = coeffs_of(field, cp) if cp is not None else None
    # the closed formula and its constant are claims for semisimple chi
    passed = c_ok if semisimple else True
    simple_count = 0
    for r in rows:
        direct = r["_f1_idx"] if graded else r["_fd_idx"]
        agree = True
        if r["oracle_simple"] is not None:
            agree = (direct != 0) == r["oracle_simple"]
            if r["oracle_simple"]:
                simple_count += 1
        r["agreement"] = agree
        passed = passed and agree
        for k in list(r):
            if k.startswith("_"):
                del r[k]
        record["rows"].append(r)
    record["simple_count"] = simple_count
    if graded and semisimple:
        passed = passed and cp_ok
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


def _sample_weights(cfg, weights, label, count=5):
    if len(weights) <= count:
        return list(weights)
    rng = random.Random(task_seed(cfg["seed"], label))
    idx = sorted(rng.sample(range(len(weights)), count))
    return [weights[t] for t in idx]


def kw_task(cfg, algebra, chi, weights):
    reports = []
    passed = True
    for lam in _sample_weights(cfg, weights, "kw"):
        rep = kw_verify(algebra, chi, lam)
        rep["lambda"] = algebra.field.digits[lam.coords].tolist()
        passed = passed and rep["induced_simple"] and rep["chi_l_nilpotent"]
        reports.append(rep)
    return {"reports": reports}, passed


def levi_task(cfg, algebra, chi, weights):
    lams = _sample_weights(cfg, weights, "levi")
    reports = levi_scans(algebra, chi, lams)
    passed = True
    for lam, rep in zip(lams, reports):
        rep["lambda"] = algebra.field.digits[lam.coords].tolist()
        ok = (rep["radical_absorbs_all"] and rep["outside_vectors_generate"]
              and all(a["isomorphism"] and a["heads_match"]
                      for a in rep["alphas"]))
        passed = passed and ok
    return {"reports": reports}, passed


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
    """report as json (json.dump's text, one write per 4096 chunks), csv or a table."""
    if fmt == "json":
        chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(report)
        while block := "".join(itertools.islice(chunks, 4096)):
            stream.write(block)
        stream.write("\n")
    elif fmt == "csv":
        _emit_csv(report, stream)
    elif fmt == "table":
        _emit_table(report, stream)
    else:
        raise ConfigInvalid(f"unknown format {fmt!r}")


def _scan_rows(report):
    for task in report["tasks"]:
        rec = task["record"]
        if "rows" in rec:
            return task["task"], rec["rows"]
    return None, []


def _emit_csv(report, stream):
    import csv
    name, rows = _scan_rows(report)
    writer = csv.writer(stream)
    if not rows:
        writer.writerow(["task", "passed"])
        for task in report["tasks"]:
            writer.writerow([task["task"], task["passed"]])
        return
    header = ["lambda", "f_direct", "f_formula", "f0", "f1",
              "oracle_simple", "agreement"]
    writer.writerow(header)
    for r in rows:
        writer.writerow([
            ";".join(str(c) for c in r["lambda"]),
            str(r.get("f_direct")), str(r["f_formula"]),
            str(r["f0"]), str(r["f1"]),
            r["oracle_simple"], r["agreement"]])


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

def _execute(cfg, tasks, fmt, out, dump_module_path=None, dump_element_path=None):
    check_budgets(cfg, tasks, dump_module_path, dump_element_path)
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="glmn",
        description="Exact gl(m|n) module computations over finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
            ("run", "execute every task listed in the config"),
            ("scan", "simplicity scan over the weight variety"),
            ("kw", "verify the parabolic dimension reduction"),
            ("levi", "standard-Levi isomorphism scan"),
            ("check", "structure invariant checks")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None,
                       help="directory for report files (default: stdout)")
        p.add_argument("--format", default="json",
                       choices=("json", "csv", "table"))
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--dim-budget", type=int, default=None)
        p.add_argument("--dump-module", default=None,
                       help="write the baby Verma at the first weight here")
        p.add_argument("--dump-element", default=None,
                       help="write the straightened top monomial product here")
    return parser


COMMAND_TASKS = {
    "scan": ["verma-scan"],
    "kw": ["kw-verify"],
    "levi": ["levi-scan"],
    "check": ["structure-check"],
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, dim_budget=args.dim_budget)
        tasks = COMMAND_TASKS.get(args.command, cfg["tasks"])
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
