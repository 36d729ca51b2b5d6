"""The induction plan by one PBW product per (unit, free monomial).

This is the loop verma._induction_plan replaced: u * m straightened in
full for every acting unit u and free monomial m, each term's coefficient
filed under its (unit, row monomial, column monomial) slot and its tail.
The result is put in the plan's canonical form, slots and tails sorted, so
that the two plans compare as arrays.
"""

import itertools

import numpy as np

from glmn.enveloping import PBWElement, multiply


def pbw_plan(ctx, nfree):
    """(free monomials, slots, tails, coef) of u * m for every unit u and
    free monomial m, as verma._induction_plan returns them."""
    free_monos = [tuple(t) for t in
                  itertools.product(*[range(c) for c in ctx.caps[:nfree]])]
    index = {m: t for t, m in enumerate(free_monos)}
    rest = ctx.zero_exps[nfree:]
    terms = {}
    for ui, u in enumerate(ctx.algebra.units):
        gen = PBWElement.generator(ctx, u)
        for col, mono in enumerate(free_monos):
            prod = multiply(ctx, gen, PBWElement(ctx, {mono + rest: 1}))
            for exps, c in prod.terms.items():
                terms[ui, index[exps[:nfree]], col, exps[nfree:]] = c
    slots = sorted({key[:3] for key in terms})
    tails = sorted({key[3] for key in terms})
    slot_index = {g: t for t, g in enumerate(slots)}
    tail_index = {s: t for t, s in enumerate(tails)}
    coef = np.zeros((len(slots), len(tails)), dtype=np.int64)
    for (ui, n, col, tail), c in terms.items():
        coef[slot_index[ui, n, col], tail_index[tail]] = c
    return free_monos, np.array(slots, dtype=np.int64).reshape(-1, 3), tails, coef
