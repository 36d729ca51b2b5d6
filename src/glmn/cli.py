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
                      weight_in_variety, weight_variety)
from .analysis import (composition_series, dual_cores, frobenius_gram,
                       regular_module, shifted_joint_kernel)
from .enveloping import normalize, reduction_context
from .errors import BudgetExceeded, ConfigInvalid, GlmnError
from .ffield import check_field_budget, isprime, make_field
from .kw import kw_verify, levi_scans
from .verma import (_axiom_table, build_baby_verma, build_baby_vermas,
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
    "jobs": 1,
    "dim_budget": 2000,
}

atexit.register(gc.freeze)

_CHI_KEY = re.compile(r"^E\((\d+),(\d+)\)$")


def task_seed(seed, label):
    """Deterministic per-task seed derived from the config seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigInvalid(f"cannot read config: {exc}") from None
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
    """(algebra, chi, weights) over the field the run executes in."""
    field = make_field(cfg["p"], cfg["field_degree"])
    algebra = build_algebra(cfg["m"], cfg["n"], field)
    chi = parse_chi(algebra, cfg["chi"])
    lam = cfg["lambda"]
    if lam == "scan-all-X":
        algebra, chi, weights = weight_variety(algebra, chi)
        return algebra, chi, weights
    coords = [element_index(field, c) for c in lam]
    if len(coords) != algebra.d:
        raise ConfigInvalid(f"lambda needs {algebra.d} coordinates")
    weight = Weight(field, coords)
    if not weight_in_variety(algebra, chi, weight):
        raise ConfigInvalid("lambda does not lie in the weight variety of chi")
    return algebra, chi, [weight]


# the tasks whose modules are baby Vermas, or as large as one (u(n-))
DIM_BUDGET_TASKS = ("verma-scan", "graded-verma-scan", "kw-verify",
                    "levi-scan", "frobenius-check", "regular-module-check")


def check_dim_budget(cfg):
    """Refuse a config whose baby Vermas, of dimension p^(even positive
    roots) 2^(odd positive roots), exceed dim_budget; read off the config
    alone, before the field or the weight variety is built.  p > 2, so the
    dimension is at least 2 to the number of positive roots: it is taken
    only below the budget's bit length, and shown only below 64 roots."""
    p, m, n, budget = cfg["p"], cfg["m"], cfg["n"], cfg["dim_budget"]
    even, odd = (m * (m - 1) + n * (n - 1)) // 2, m * n
    if even + odd < budget.bit_length() and p ** even * 2 ** odd <= budget:
        return
    dim = (p ** even * 2 ** odd if even + odd < 64
           else f"{p}^(m(m-1)/2 + n(n-1)/2) 2^(mn) at m = {m}, n = {n}")
    raise BudgetExceeded(
        f"predicted module dimension {dim} exceeds dim_budget {budget}")


def check_structure_budget(cfg):
    """Refuse a structure-check whose (U, U, U) bracket table, U = (m + n)^2,
    holds more entries than a dim_budget x dim_budget matrix; read off the
    config alone, before the field or the algebra is built."""
    d, budget = cfg["m"] + cfg["n"], cfg["dim_budget"]
    if d ** 6 > budget ** 2:
        entries = d ** 6 if d < 1024 else f"(m + n)^6 at m + n = {d}"
        raise BudgetExceeded(f"structure-check's bracket table of {entries} entries "
                             f"exceeds dim_budget^2 = {budget}^2")


# ---------------------------------------------------------------------------
# scan workers (top level so a process pool can pickle them)

_WORKER = {}


def _init_scan_worker(p, k, m, n, chi_values, graded, semisimple):
    field = make_field(p, k)
    algebra = build_algebra(m, n, field)
    _WORKER["algebra"] = algebra
    _WORKER["chi"] = Character(algebra, chi_values)
    _WORKER["graded"] = graded
    _WORKER["semisimple"] = semisimple


def _scan_share(share):
    """The rows of a share of weights, in stages over all of it, each stacked
    by its own modules' size: the formulas and report coefficients as array
    operations; a graded scan's heads M, then Z(M) in order of dim M, with
    f1_direct and the oracle (dual_cores by stack, for semisimple chi); then the baby
    Vermas with f_direct, and the oracle in a plain scan."""
    algebra, chi, graded = _WORKER["algebra"], _WORKER["chi"], _WORKER["graded"]
    field = algebra.field
    coords = np.array(share, dtype=np.int64).reshape(len(share), algebra.d)
    lams = [Weight(field, c) for c in coords]
    ff, f0, f1 = f_formulas(algebra.root_system(), coords)
    cols = [field.digits[x].tolist() for x in (coords, ff, f0, f1)]
    rows = [dict(zip(("lambda", "f_formula", "f0", "f1"), vals), _f0_idx=i, _ff_idx=j,
                 _f1_idx=None, oracle_simple=None)
            for *vals, i, j in zip(*cols, f0.tolist(), ff.tolist())]
    oracle = _WORKER["semisimple"]
    if graded:
        Ms = build_simple_g0_modules(algebra, chi, lams)
        order = sorted(range(len(Ms)), key=lambda t: Ms[t].dim)
        stacks = build_graded_vermas(algebra, chi, [Ms[t] for t in order])
        for Z, simple, t in _with_verdicts(stacks, oracle, order):
            f1d = f1_direct(Z).idx
            rows[t].update(dim_m=Ms[t].dim, dim_z=Z.dim, f1_direct=coeffs_of(field, f1d),
                           _f1_idx=f1d, oracle_simple=simple)
            del Z
    stacks = build_baby_vermas(algebra, chi, lams)
    for Z, simple, row in _with_verdicts(stacks, oracle and not graded, rows):
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


def _run_scan(cfg, algebra, chi, weights, graded, semisimple):
    """_scan_share's rows: serially one share of all the weights, with jobs
    > 1 a process pool maps one share of consecutive weights per worker.
    semisimple, whether chi is, says whether the oracle runs."""
    initargs = (algebra.field.p, algebra.field.k, algebra.m, algebra.n,
                dict(chi.values), graded, semisimple)
    coords = [tuple(int(c) for c in lam.coords) for lam in weights]
    # a fork pool starts all its workers at once: never more than the
    # weights or the CPUs; jobs < 1 runs serially
    workers = max(1, min(cfg["jobs"], len(coords), os.cpu_count() or 1))
    shares = [s for s in np.array_split(coords, workers) if len(s)]
    if workers > 1:
        # imported here: loading concurrent.futures.process pulls in
        # multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_init_scan_worker,
                                 initargs=initargs) as pool:
            parts = list(pool.map(_scan_share, shares))
    else:
        _init_scan_worker(*initargs)
        parts = [_scan_share(s) for s in shares]
    return [row for part in parts for row in part]


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
    rows = _run_scan(cfg, algebra, chi, weights, graded, semisimple)
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
    """Super anticommutativity, Jacobi, restrictedness, supertrace checks."""
    from .algebra import supertrace
    alg = algebra
    f = alg.field
    rng = random.Random(task_seed(cfg["seed"], "structure"))
    checked = {"anticommutativity": 0, "jacobi": 0, "ad_p_power": 0,
               "supertrace": 0}
    # [x, y] = -(-1)^{p(x)p(y)} [y, x], on the bracket coefficients of
    # every pair of units at once
    odd, coef, _, _ = _axiom_table(alg, tuple(alg.units))
    swapped = coef.transpose(1, 0, 2)
    both = (odd[:, None] & odd[None, :])[:, :, None]
    ok = np.array_equal(coef, np.where(both, swapped, f.neg(swapped)))
    checked["anticommutativity"] = len(alg.units) ** 2
    units = alg.units
    for x in units:
        for y in units:
            for z in units:
                # (-1)^{p(x)p(z)} [x,[y,z]] + cyclic = 0
                acc = {}
                for (a, b, c3) in ((x, y, z), (y, z, x), (z, x, y)):
                    sgn = -1 if alg.parity(*a) and alg.parity(*c3) else 1
                    for c1, u1 in alg.bracket_table[(b, c3)]:
                        for c2, u2 in alg.bracket_table[(a, u1)]:
                            v = f.mul(c1, c2)
                            if sgn == -1:
                                v = f.neg(v)
                            acc[u2] = f.add(acc.get(u2, 0), v)
                ok = ok and not any(acc.values())
                checked["jacobi"] += 1
    from .algebra import p_power
    from .linalg import Matrix
    # ad(x)^p = ad(x^[p]) is not linear in x, so 50 random x join the units
    even_samples = [alg.unit_matrix(*u) for u in alg.even_units]
    for _ in range(50):
        m_ = np.zeros((alg.d, alg.d), dtype=np.int64)
        for (i, j) in alg.even_units:
            m_[i - 1, j - 1] = rng.randrange(f.q)
        even_samples.append(Matrix(f, m_))
    for xmat in even_samples:
        adx = alg.ad_matrix(xmat)
        adp = alg.ad_matrix(p_power(alg, xmat))
        ok = ok and adx.power(f.p) == adp
        checked["ad_p_power"] += 1
    # str([a, b]) = 0 is bilinear, so every pair of matrix units decides it
    for x in alg.units:
        for y in alg.units:
            ok = ok and supertrace(alg, alg.bracket(alg.unit_matrix(*x),
                                                    alg.unit_matrix(*y))).idx == 0
            checked["supertrace"] += 1
    return {"checked": checked, "sampled": ["ad_p_power"], "all_pass": ok}, ok


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
        # jobs only controls parallelism; identical results either way
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
    if dump_module_path or any(t in DIM_BUDGET_TASKS for t in tasks):
        check_dim_budget(cfg)
    if "structure-check" in tasks:
        check_structure_budget(cfg)
    algebra, chi, weights = build_setting(cfg)
    results = []
    for name in tasks:
        rec, passed = TASK_RUNNERS[name](cfg, algebra, chi, weights)
        results.append((name, rec, passed))
    report = make_report(cfg, algebra, results)
    if dump_module_path:
        Z = build_baby_verma(algebra, chi, weights[0])
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
        p.add_argument("--jobs", type=int, default=None)
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
        cfg = load_config(args.config)
        for key in ("seed", "jobs", "dim_budget"):
            flag = getattr(args, key)
            if flag is not None:
                cfg[key] = flag
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
