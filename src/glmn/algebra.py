"""The restricted Lie superalgebra gl(m|n) over F_{p^k}.

Basis elements are the matrix units E(i,j) with 1-based indices; the
parity of E(i,j) is odd exactly when i and j lie on opposite sides of m.
The super bracket, supertrace, p-mapping, root system with heights and
coroots, rho, reflections, character classification, the weight variety
X (Weights, a read-only sequence over one index array) and a scan's rows
(ColumnRows, one over its columns, which write_json writes), all live here.
"""

from __future__ import annotations

import collections
import itertools
import json
import operator
from collections.abc import Sequence

import numpy as np

from . import ffield
from .errors import (BadDims, InvalidSupport, OddInput,
                     OddReflectionOnWeight)
from .ffield import FieldElement
from .linalg import Matrix, matmul


class SuperAlgebra:
    """gl(m|n) with structure tables over a fixed finite field."""

    def __init__(self, m, n, field):
        if m < 1 or n < 1:
            raise BadDims("block sizes must be at least 1")
        if field.p < 5:
            raise BadDims("field characteristic must be at least 5")
        self.m = m
        self.n = n
        self.d = m + n
        self.field = field
        self.units = [(i, j) for i in range(1, self.d + 1)
                      for j in range(1, self.d + 1)]
        self.even_units = [u for u in self.units if self.parity(*u) == 0]
        self.odd_units = [u for u in self.units if self.parity(*u) == 1]
        self.diag_units = [(i, i) for i in range(1, self.d + 1)]
        # the d x d mask of odd entries: row and column on opposite sides of m
        side = np.arange(self.d) >= m
        self._odd = side[:, None] != side[None, :]
        # the sign of each diagonal entry in the supertrace: 1, then -1 below m
        self.str_signs = np.where(side, field.p - 1, 1)
        self.bracket_table = {
            (u, v): tuple(self.bracket_units(*u, *v))
            for u in self.units for v in self.units
        }
        self._root_system = None
        # enveloping.reduction_context: (chi values, f_order keys) -> context
        self._contexts = {}
        # verma._axiom_table: tuple of acting units -> axiom-check table
        self._axiom_tables = {}

    @property
    def dim(self):
        return self.d * self.d

    def parity(self, i, j):
        return 0 if (i <= self.m) == (j <= self.m) else 1

    def unit_matrix(self, i, j):
        mat = Matrix.zeros(self.field, self.d, self.d)
        mat.data[i - 1, j - 1] = 1
        return mat

    def element_parity(self, x):
        """Parity of a Matrix algebra element; None when mixed, 0 for zero:
        its nonzero entries counted on the odd mask and in all."""
        odd, total = np.count_nonzero(x.data[self._odd]), np.count_nonzero(x.data)
        return 0 if not odd else (1 if odd == total else None)

    def bracket_units(self, i, j, k, l):
        """[E(i,j), E(k,l)] as a list of (coefficient sign, unit) pairs."""
        sign = (-1) ** (self.parity(i, j) * self.parity(k, l))
        comps = {}
        if j == k:
            comps[(i, l)] = comps.get((i, l), 0) + 1
        if l == i:
            comps[(k, j)] = comps.get((k, j), 0) - sign
        return [(c % self.field.p, u) for u, c in sorted(comps.items()) if c % self.field.p]

    def bracket_escape(self, xs, ys, inside):
        """The first (x, y, unit) with unit in [x, y] outside `inside`, for
        x in xs and y in ys in turn; None when every bracket stays inside.
        The bracket table lists only units with a nonzero coefficient."""
        for x in xs:
            for y in ys:
                for _, unit in self.bracket_table[(x, y)]:
                    if unit not in inside:
                        return x, y, unit
        return None

    def bracket(self, x, y):
        """Super bracket of homogeneous Matrix elements."""
        px = self.element_parity(x)
        py = self.element_parity(y)
        if px is None or py is None:
            raise OddInput("bracket requires homogeneous arguments")
        f = self.field
        xy = matmul(f, x.data, y.data)
        yx = matmul(f, y.data, x.data)
        if px and py:
            return Matrix(f, f.add(xy, yx))
        return Matrix(f, f.sub(xy, yx))

    def ad_matrix(self, x):
        """Matrix of ad(x) = [x, .] on the unit basis (d^2 x d^2)."""
        cols = []
        for (k, l) in self.units:
            b = self.bracket(x, self.unit_matrix(k, l))
            cols.append(b.data.reshape(-1))
        return Matrix(self.field, np.array(cols, dtype=np.int64).T)

    def root_system(self):
        if self._root_system is None:
            self._root_system = RootSystem(self)
        return self._root_system

    def __repr__(self):
        return f"gl({self.m}|{self.n}) over {self.field}"


def build_algebra(m, n, field):
    return SuperAlgebra(m, n, field)


def supertrace(algebra, x):
    """str(A) = tr(upper-left m block) - tr(lower-right n block)."""
    f, diag = algebra.field, x.data.diagonal()[:, None]
    return FieldElement(f, matmul(f, algebra.str_signs[None, :], diag).item())


def p_power(algebra, x):
    """The p-mapping: p-th matrix power of an even element."""
    if algebra.element_parity(x) != 0:
        raise OddInput("p-mapping applies to even elements only")
    return x.power(algebra.field.p)


class Root:
    """The root eps_i - eps_j of gl(m|n) (with eps_{m+t} = delta_t)."""

    __slots__ = ("i", "j", "parity", "height", "positive")

    def __init__(self, algebra, i, j):
        assert i != j
        self.i = i
        self.j = j
        self.parity = algebra.parity(i, j)
        self.height = j - i
        self.positive = i < j

    @property
    def key(self):
        return (self.i, self.j)

    def vector(self, d):
        v = np.zeros(d, dtype=np.int64)
        v[self.i - 1] += 1
        v[self.j - 1] -= 1
        return v

    def __eq__(self, other):
        return isinstance(other, Root) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Root(e{self.i}-e{self.j})"


class RootSystem:
    """Roots, heights, coroots and rho for gl(m|n)."""

    def __init__(self, algebra):
        self.algebra = algebra
        d = algebra.d
        self.d = d
        self.roots = [Root(algebra, i, j)
                      for i in range(1, d + 1) for j in range(1, d + 1) if i != j]
        self._by_key = {r.key: r for r in self.roots}
        # positive roots by ascending height, (i, j)-lex tie-break
        self.positive = sorted((r for r in self.roots if r.positive),
                               key=lambda r: (r.height, r.i, r.j))
        self.simple = [self._by_key[(i, i + 1)] for i in range(1, d)]
        self.positive_even = [r for r in self.positive if r.parity == 0]
        self.positive_odd = [r for r in self.positive if r.parity == 1]
        self.rho = self._compute_rho()

    def root(self, i, j):
        return self._by_key[(i, j)]

    def e_unit(self, root):
        return (root.i, root.j) if root.positive else (root.j, root.i)

    def f_unit(self, root):
        return (root.j, root.i) if root.positive else (root.i, root.j)

    def coroot_diag(self, root):
        """h_alpha = [e_alpha, f_alpha] as an integer diagonal vector."""
        v = np.zeros(self.d, dtype=np.int64)
        i, j = (root.i, root.j) if root.positive else (root.j, root.i)
        v[i - 1] = 1
        v[j - 1] = -1 if root.parity == 0 else 1
        return v

    def coroot_matrix(self, root):
        mat = Matrix.zeros(self.algebra.field, self.d, self.d)
        for t, c in enumerate(self.coroot_diag(root)):
            mat.data[t, t] = c % self.algebra.field.p
        return mat

    def _compute_rho(self):
        """rho as an integer vector of values on the diagonal units.

        Determined by rho(h_alpha) = 1 on simple coroots and rho = 0 on the
        basis-completing element E(d,d).
        """
        d = self.d
        rho = np.zeros(d, dtype=np.int64)
        for i in range(d - 1, 0, -1):
            if self.simple[i - 1].parity == 0:
                rho[i - 1] = rho[i] + 1
            else:
                rho[i - 1] = 1 - rho[i]
        return rho % self.algebra.field.p

    def rho_value(self, root):
        """rho(h_alpha) as an integer mod p."""
        return int(np.dot(self.rho, self.coroot_diag(root))) % self.algebra.field.p

    def weight_on_coroot(self, lam, root):
        """lambda(h_alpha) for a Weight lambda."""
        f = self.algebra.field
        acc = 0
        for t, c in enumerate(self.coroot_diag(root)):
            if c == 1:
                acc = f.add(acc, int(lam.coords[t]))
            elif c == -1:
                acc = f.sub(acc, int(lam.coords[t]))
        return acc


class Character:
    """A linear functional on the even part, stored on even matrix units."""

    def __init__(self, algebra, values=None):
        self.algebra = algebra
        self.field = algebra.field
        vals = {}
        for unit, v in (values or {}).items():
            unit = tuple(unit)
            idx = v.idx if isinstance(v, FieldElement) else int(v)
            if idx == 0:
                continue
            if algebra.parity(*unit) != 0:
                raise InvalidSupport(f"chi must vanish on odd unit E{unit}")
            vals[unit] = idx
        self.values = vals

    def value(self, unit):
        return self.values.get(tuple(unit), 0)

    def element(self, unit):
        return FieldElement(self.field, self.value(unit))

    def restrict_h(self):
        """chi with all off-diagonal values dropped (semisimple part)."""
        return Character(self.algebra,
                         {u: v for u, v in self.values.items() if u[0] == u[1]})

    def __eq__(self, other):
        return isinstance(other, Character) and self.values == other.values

    def __repr__(self):
        if not self.values:
            return "Character(0)"
        parts = ", ".join(f"E{u}={self.field.format_index(v)}"
                          for u, v in sorted(self.values.items()))
        return f"Character({parts})"


class Weight:
    """Values on the diagonal units E(i,i), i = 1..m+n."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = np.array([c.idx if isinstance(c, FieldElement) else int(c)
                                for c in coords], dtype=np.int64)

    def value(self, i):
        return int(self.coords[i - 1])

    def element(self, i):
        return FieldElement(self.field, self.value(i))

    def key(self):
        return tuple(int(c) for c in self.coords)

    def __eq__(self, other):
        return isinstance(other, Weight) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Weight(" + ",".join(self.field.format_index(c) for c in self.coords) + ")"


def _equal(self, other):
    """self == other for a read-only sequence and a list or a sequence of
    self's class: item by item, as list equality, building no list."""
    if not isinstance(other, (list, type(self))):
        return NotImplemented
    return len(self) == len(other) and all(map(operator.eq, self, other))


class ColumnRows(Sequence):
    """The rows of the arrays cols as read-only dicts keyed as cols, the
    columns named in indexed (of field indices) read as digit lists, made as
    they are read, CHUNK at a time, so that no more are held at once; a
    slice is a list of them.  write_json reads cols."""

    CHUNK = 1024
    __eq__ = _equal

    def __init__(self, cols, digits, indexed):
        self.cols, self.digits, self.indexed = cols, digits, indexed
        self.n = len(next(iter(cols.values())))

    def __len__(self):
        return self.n

    def __iter__(self):
        for start in range(0, self.n, self.CHUNK):
            yield from self.items(start, start + self.CHUNK)

    def __getitem__(self, t):
        at = range(self.n)[t]
        return self.items(at, at + 1)[0] if isinstance(at, int) else [self[i] for i in at]

    def column(self, key, start, stop):
        v = self.cols[key][start:stop]
        return self.digits[v] if key in self.indexed else v

    def items(self, start, stop):
        vals = [self.column(k, start, stop).tolist() for k in self.cols]
        return [dict(zip(self.cols, row)) for row in zip(*vals)]


_ENCODE = json.JSONEncoder(sort_keys=True, indent=2).encode
_HOLE = "\x01"  # a leaf, or a ColumnRows, in the encoder's text: "\u0001"
_LITERALS = {None: "null", False: "false", True: "true"}
_object_leaves = np.frompyfunc(lambda x: _LITERALS[x] if x is None or type(x) is bool
                               else x if type(x) is int else json.dumps(x), 1, 1)


def write_json(obj, stream):
    """json.dump(obj, stream, sort_keys=True, indent=2), each ColumnRows in
    obj written from its columns, CHUNK rows a write, at the indent before
    its placeholder (and key): each row is the encoder's text of the first
    with a %s per leaf, filled as json writes: ints as they are, bools and
    None as literals, other objects by json.dumps; other dtypes TypeError."""
    found = []
    def hollow(o):
        if isinstance(o, ColumnRows):
            return found.append(o) or _HOLE
        if isinstance(o, dict):
            return {k: hollow(v) for k, v in o.items()}
        return [hollow(v) for v in o] if isinstance(o, (list, tuple)) else o
    text = _ENCODE(hollow(obj)).split(_ENCODE(_HOLE))
    stream.write(text[0])
    for rows, before, after in zip(found, text, text[1:]):
        keys, at = sorted(rows.cols), "\n  " + before[before.rfind("\n") + 1:].split('"')[0]
        if bad := [rows.cols[k].dtype for k in keys if rows.cols[k].dtype.kind not in "iubO"]:
            raise TypeError(f"no JSON leaves of dtype {bad[0]}")
        first = {k: np.full(rows.column(k, 0, 1).shape[1:], _HOLE, object).tolist() for k in keys}
        row = _ENCODE(first).replace("%", "%%").replace(_ENCODE(_HOLE), "%s").replace("\n", at)
        for start in range(0, rows.n, rows.CHUNK):
            n = min(rows.CHUNK, rows.n - start)
            leaves = [rows.column(k, start, start + n).reshape(n, -1) for k in keys]
            block = np.concatenate([v if v.dtype.kind in "iu" else _object_leaves(v.astype(object))
                                    for v in leaves], axis=1, dtype=object).tolist()
            stream.write(("," if start else "[") + at + f",{at}".join([row % tuple(r)
                                                                       for r in block]))
        stream.write((at[:-2] + "]" if rows.n else "[]") + after)


class Weights(Sequence):
    """Read-only weights, the rows of one (N, d) index array, coords: a Weight
    is made only for a row that is read, and a slice is Weights again."""

    __eq__ = _equal

    def __init__(self, field, coords):
        self.field, self.coords = field, coords

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, t):
        return (Weights if isinstance(t, slice) else Weight)(self.field, self.coords[t])


def root_system(algebra):
    return algebra.root_system()


def reflect(rs, alpha, target):
    """Reflection s_alpha applied to a root, or to a Weight for even alpha."""
    i, j = alpha.i, alpha.j
    if isinstance(target, Root):
        def sw(t):
            return j if t == i else (i if t == j else t)
        return rs.root(sw(target.i), sw(target.j))
    if isinstance(target, Weight):
        if alpha.parity != 0:
            raise OddReflectionOnWeight("odd reflections are not defined on weights")
        f = rs.algebra.field
        lam_h = rs.weight_on_coroot(target, alpha)
        coords = target.coords.copy()
        coords[i - 1] = f.sub(int(coords[i - 1]), lam_h)
        coords[j - 1] = f.add(int(coords[j - 1]), lam_h)
        return Weight(f, coords)
    raise TypeError("target must be a Root or a Weight")


def weyl_move_to_simple(rs, beta):
    """A shortest word of even simple reflections carrying the odd root
    beta into the odd simple roots; returns (word, image).

    The word [s1, s2, ...] is applied in order: image = s_k(...s_1(beta)).
    """
    assert beta.parity == 1
    simple_odd = {r.key for r in rs.simple if r.parity == 1}
    even_simple = [r for r in rs.simple if r.parity == 0]
    from collections import deque
    seen = {beta.key: (None, None)}
    queue = deque([beta])
    while queue:
        cur = queue.popleft()
        if cur.key in simple_odd:
            word = []
            key = cur.key
            while seen[key][0] is not None:
                prev, s = seen[key]
                word.append(s)
                key = prev
            word.reverse()
            return word, cur
        for s in even_simple:
            nxt = reflect(rs, s, cur)
            if nxt.key not in seen:
                seen[nxt.key] = (cur.key, s)
                queue.append(nxt)
    raise AssertionError("W0-orbit of an odd root must meet the odd simple roots")


# Vanishing-pattern classification of a character.
CharacterClass = collections.namedtuple(
    "CharacterClass", "semisimple borel_vanishing nplus_vanishing standard_levi levi_set")


def classify_character(rs, chi):
    """Vanishing-pattern flags for chi (Character on the even part)."""
    alg = rs.algebra
    semisimple = all(u[0] == u[1] for u in chi.values)
    nplus_vanishing = all(not (u[0] < u[1]) for u in chi.values)
    borel_vanishing = all(u[0] > u[1] for u in chi.values)
    standard_levi = False
    levi_set = []
    if borel_vanishing:
        simple_f_units = {rs.f_unit(r): r for r in rs.simple if r.parity == 0}
        standard_levi = True
        for u in chi.values:
            if u in simple_f_units:
                levi_set.append(simple_f_units[u])
            else:
                standard_levi = False
        if not standard_levi:
            levi_set = []
    return CharacterClass(semisimple, borel_vanishing, nplus_vanishing,
                          standard_levi, levi_set)


def weight_variety(algebra, chi, count=None):
    """All weights lambda with lambda(h)^p - lambda(h) = chi(h)^p on the
    diagonal units, or the first count of them.

    Where some coordinate equation has no root, the field is extended once,
    F_p -> F_{p^p} (Field.extend), where every one has p; chi keeps its
    indices.  Returns (algebra, chi, weights) over the possibly extended
    field, the weights as Weights on one index array, which lists them only
    as far as they are asked for.
    """
    field = algebra.field
    values = [field.power(chi.value((i, i)), field.p) for i in range(1, algebra.d + 1)]
    roots = [ffield.artin_schreier_roots(field, c) for c in values]
    if not all(roots):
        field = field.extend()
        algebra = SuperAlgebra(algebra.m, algebra.n, field)
        chi = Character(algebra, chi.values)
        roots = [ffield.artin_schreier_roots(field, c) for c in values]
    combos = itertools.islice(itertools.product(*([r.idx for r in rs] for rs in roots)), count)
    coords = np.fromiter(itertools.chain.from_iterable(combos), dtype=np.int64)
    return algebra, chi, Weights(field, coords.reshape(-1, algebra.d))


def weights_in_variety(algebra, chi, lams):
    """Whether each weight of lams lies in X^chi, lambda_i^p - lambda_i =
    chi(E(i,i))^p for every i: one bool array over their stacked coordinates."""
    f, coords = algebra.field, np.array([lam.coords for lam in lams]).reshape(-1, algebra.d)
    chi_p = f.power(np.array([chi.value(u) for u in algebra.diag_units], dtype=np.int64), f.p)
    return (f.sub(f.power(coords, f.p), coords) == chi_p).all(axis=1)
