"""The tasks that check the algebra and u(n-, chi), not weights: structure-check,
frobenius-check and regular-module-check (by the radical layers of the regular
module), imported only by a run that lists one."""

from __future__ import annotations

import random

import numpy as np

from .cli import task_seed
from .linalg import matmul, matrix_power
from .series import frobenius_gram, radical_layers, regular_module, shifted_joint_kernel
from .verma import _axiom_table, _slices


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
    on its nonzero columns, in chunks of rows whose ad stays below verma's budget."""
    f, U, d = algebra.field, len(coef), algebra.d
    xps = matrix_power(f, xs.reshape(-1, d, d), f.p).reshape(-1, U)
    cols = np.flatnonzero(coef.reshape(U, U * U).any(axis=0))
    table = coef.reshape(U, U * U)[:, cols]
    for C in _slices(len(xs), U * U):
        x = np.concatenate([xs[C], xps[C]])
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
    gram, nondegenerate = frobenius_gram(algebra, sub, chi, dim_budget=cfg["dim_budget"])
    return {"sub": sub, "gram_dim": gram.rows,
            "nondegenerate": bool(nondegenerate)}, bool(nondegenerate)


def regular_task(cfg, algebra, chi, weights):
    sub = _nminus_units(algebra)
    left = regular_module(algebra, sub, chi, side="left")
    right = regular_module(algebra, sub, chi, side="right")
    # the socles of the shifted actions; with chi zero on n- they are the
    # trivial submodules
    tl, tr = shifted_joint_kernel(left), shifted_joint_kernel(right)
    same_line = tl.dim == 1 == tr.dim and bool((tl.basis == tr.basis).all())
    # every y_x acts by 0 on each layer: one factor, the chi-module, per
    # dimension peeled; a chain that stalls above 0 leaves the rest unpeeled
    peeled = sum(radical_layers(left))
    uniform = peeled == left.dim
    return {"sub": sub, "dim": left.dim, "trivial_dim_left": tl.dim, "trivial_dim_right": tr.dim,
            "v_left_equals_v_right": same_line, "factor_dims": [1] * peeled,
            "factors_uniform": uniform}, same_line and uniform
