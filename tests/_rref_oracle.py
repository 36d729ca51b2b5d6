"""The row reduction linalg.rref replaced: a peel of coordinate lines and
a pivot loop of its own, kept as the fast oracle of rref on inputs too
large for the table oracle t_rref of test_kernels.

A row with one nonzero entry, at column c, spans the coordinate line e_c,
so e_c is the canonical row of pivot c and every other row is 0 at c.
Such rows are peeled first, with no field arithmetic: their columns are
cleared from the other rows by assignment, which may leave new
single-entry rows, and peeling repeats until none is left.  The rows and
columns left over go through the pivot loop (eliminate), and the two
sets of pivot rows are merged by pivot.
"""

import numpy as np


def peel_rref(field, arr):
    """(echelon array of arr's shape, pivot column list) of an index array."""
    a = np.array(arr, dtype=np.int64)
    nz = a != 0
    count = nz.sum(axis=1)
    single = count == 1
    if not single.any():
        return eliminate(field, a)
    live = count > 1
    line = np.zeros(a.shape[1], dtype=bool)
    while single.any():
        cols = nz[single].any(axis=0)
        line |= cols
        count -= nz[:, cols].sum(axis=1)
        nz[:, cols] = False
        single = live & (count == 1)
        live &= count > 1
    lines, rest = np.flatnonzero(line), np.flatnonzero(~line)
    b, bpivots = eliminate(field, a[np.ix_(live, rest)]) if live.any() else (a, [])
    # the output reuses a: the pivot rows, lines first, then sorted by pivot
    a[:] = 0
    a[np.arange(len(lines)), lines] = 1
    if not bpivots:
        return a, lines.tolist()
    pivots = np.concatenate((lines, rest[bpivots]))
    order = np.argsort(pivots)
    a[len(lines):len(pivots), rest] = b[:len(bpivots)]
    a[:len(pivots)] = a[order]
    return a, pivots[order].tolist()


def eliminate(field, a):
    """rref of the int64 array a, in place, by the pivot loop; each pivot
    step updates only the rows with a nonzero entry in the pivot column."""
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if len(nz) == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = field.mul(a[r], field.inv(int(a[r, c])))
        # row r vanishes left of c: earlier columns are pivots or were zero
        rows = np.flatnonzero(a[:, c])
        rows = rows[rows != r]
        if len(rows):
            a[rows, c:] = field.sub(a[rows, c:],
                                    field.mul(a[rows, c][:, None], a[r, c:][None, :]))
        pivots.append(c)
        r += 1
    return a, pivots
