"""The Frobenius Gram by one PBW product per pair of monomials.

This is the loop series.frobenius_gram replaced: m_a * m_b straightened
in full for every pair of PBW monomials of u(sub, chi), the coefficient of
the top monomial (every exponent maximal) filed at (a, b).
"""

import numpy as np

from glmn.enveloping import PBWElement, multiply
from glmn.series import sub_enveloping_basis


def pbw_gram(algebra, sub_units, chi):
    """The (dim, dim) index array of top coefficients of m_a * m_b."""
    ctx, positions, monos = sub_enveloping_basis(algebra, chi, sub_units)
    top = tuple(ctx.caps[pos] - 1 if pos in positions else 0
                for pos in range(ctx.ngens))
    elts = [PBWElement(ctx, {m: 1}) for m in monos]
    gram = np.zeros((len(monos), len(monos)), dtype=np.int64)
    for a, x in enumerate(elts):
        for b, y in enumerate(elts):
            gram[a, b] = multiply(ctx, x, y).terms.get(top, 0)
    return gram
