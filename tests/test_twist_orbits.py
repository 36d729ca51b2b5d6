"""One module per orbit of the twists: the scan against every weight built.

sigma = (1, ..., 1 | -1, ..., -1) is the supertrace, which kills every
bracket, so Z(lambda + c sigma) is Z(lambda) twisted by the line k_{c
sigma} for c in F_p: the same root-unit matrices, the Cartan diagonal
moved by c sigma.  The brackets of the units lie in F_p, so where phi^e (phi:
x -> x^p) fixes every value of chi, Z(phi^e lambda) is Z(lambda) with every
entry raised to p^e.  cli._run_scan builds and decides only the first weight
of each orbit of both and copies its columns to the rest, its f's raised.
Here the columns of every scan are compared, weight by weight, with those
of the scan that built every weight (scan_every_weight, the code the orbits
replaced), and so are the whole task records; the root-unit actions of
Z(lambda) and Z(lambda + sigma) must be equal arrays at every weight, and
those of Z(phi lambda), and of Z(M(phi lambda)), the p-th powers of those at
lambda where chi = diag(1, ..., 1).  gl(1|1), gl(2|1) and gl(1|2) are
covered over F_5 at chi = 0, gl(2|1) at chi(E21) = 1, and the three over
F_{5^5} at chi = diag(1, ..., 1), each by both scan tasks; so are three
settings where phi does not fix chi or the field is given as an extension:
gl(2|1) at chi = 0 over F_25 (e = 1), gl(1|1) over F_{5^4} at chi(E11) =
chi(E22) = a in F_25, not in F_5 (e = 2) and gl(2|1) over F_{5^5} at chi =
diag(1, 1, 1) with chi(E21) = x (e = 5), where phi moves no action as it
moves the weight.  The orbit sizes and e are pinned and the orbits checked
by search.  An explicit one-weight lambda builds that weight alone, and a
gl(2|1) scan places one module per orbit.
"""

import contextlib
import json
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
from glmn.verma import (ModuleRep, build_baby_verma, build_baby_vermas,
                        build_graded_vermas, build_simple_g0_modules, f1_direct,
                        f_direct)

CHI0 = {}
DIAG = {(1, 1): 1, (2, 2): 1, (3, 3): 1}
# a in F_25, not in F_5, with a^4 = -1, as digits over F_{5^4}: a^5 = -a, so phi
# moves chi but phi^2 fixes it, and fixes every weight of X^chi
A = [4, 0, 3, 1]


def diag(d):
    return {f"E({i},{i})": 1 for i in range(1, d + 1)}


# name: (config over p = 5, weights per orbit, e); a diagonal chi over F_5
# extends the field to F_{5^5}
SETTINGS = {
    "gl11-chi0": ({"m": 1, "n": 1}, 5, 1), "gl21-chi0": ({"m": 2, "n": 1}, 5, 1),
    "gl12-chi0": ({"m": 1, "n": 2}, 5, 1),
    "gl21-E21": ({"m": 2, "n": 1, "chi": {"E(2,1)": 1}}, 5, 1),
    "gl11-diag": ({"m": 1, "n": 1, "chi": diag(2)}, 25, 1),
    "gl21-diag": ({"m": 2, "n": 1, "chi": diag(3)}, 25, 1),
    "gl12-diag": ({"m": 1, "n": 2, "chi": diag(3)}, 25, 1),
    "gl21-chi0-k2": ({"m": 2, "n": 1, "field_degree": 2}, 5, 1),
    "gl11-a-k4": ({"m": 1, "n": 1, "field_degree": 4, "chi": {"E(1,1)": A, "E(2,2)": A}}, 5, 2),
    "gl21-diag-E21x-k5": ({"m": 2, "n": 1, "field_degree": 5,
                           "chi": {**diag(3), "E(2,1)": [0, 1]}}, 5, 5),
}


def setting(name):
    """(algebra, chi, weights) of SETTINGS[name], read as a config is."""
    cfg = dict(SETTINGS[name][0], p=5, tasks=["verma-scan"])
    return cli.build_setting(cli.validate_config(cfg))


def fresh_setting(chi, m=2, n=1):
    """gl(m|n) over F_5 (F_{5^5} for a diagonal chi) on a new algebra, so
    its contexts start empty."""
    alg = build_algebra(m, n, make_field(5))
    return weight_variety(alg, Character(alg, chi))


def scan_every_weight(alg, chi, weights, graded, semisimple):
    """_run_scan's columns with every weight's module built and decided."""
    n = len(weights)
    cols = {"f_direct": np.zeros(n, dtype=np.int64), "dim_z": np.zeros(n, dtype=np.int64),
            "oracle_simple": np.full(n, None, dtype=object)}
    if graded:
        Ms = build_simple_g0_modules(alg, chi, weights)
        order = sorted(range(n), key=lambda t: Ms[t].dim)
        stacks = build_graded_vermas(alg, chi, [Ms[t] for t in order])
        cols.update(dim_m=np.array([M.dim for M in Ms], dtype=np.int64),
                    f1_direct=np.zeros(n, dtype=np.int64))
    else:
        order, stacks = range(n), build_baby_vermas(alg, chi, weights)
    for Z, simple, t in cli._with_verdicts(stacks, semisimple, order):
        cols["f_direct"][t], cols["dim_z"][t], cols["oracle_simple"][t] = f_direct(Z).idx, Z.dim, simple
        if graded:
            cols["f1_direct"][t] = f1_direct(Z).idx
    return cols


def root_actions(alg, chi, weights, graded):
    """The root-unit matrices of Z(lambda), or of Z(M(lambda)), per weight."""
    if graded:
        Ms = build_simple_g0_modules(alg, chi, weights)
        stacks = build_graded_vermas(alg, chi, Ms)
    else:
        stacks = build_baby_vermas(alg, chi, weights)
    roots = [u for u in alg.units if u[0] != u[1]]
    return [Z.matrices(roots) for stack in stacks for Z in stack]


def frobenius_image(weights, e):
    """For each weight, the index of phi^e of it in weights (None if absent)."""
    f = weights.field
    index = {tuple(c): t for t, c in enumerate(weights.coords.tolist())}
    return [index.get(tuple(c)) for c in f.power(weights.coords, f.p ** e).tolist()]


@pytest.mark.parametrize("graded", [False, True], ids=["plain", "graded"])
@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_orbit_columns_equal_every_weight_built(name, graded):
    _, size, e = SETTINGS[name]
    alg, chi, weights = setting(name)
    f = alg.field
    semisimple = classify_character(alg.root_system(), chi).semisimple
    first, orbit, shifts = cli._twist_orbits(alg, chi, weights)
    # every orbit holds size weights of X, one shift for each power of phi^e
    assert np.bincount(orbit).tolist() == [size] * len(first)
    assert len(first) * size == len(weights)
    assert list(shifts) == [5 ** (j * e) for j in range(1, f.k // e)]
    got = cli._run_scan(alg, chi, weights, graded, semisimple)
    want = scan_every_weight(alg, chi, weights, graded, semisimple)
    assert list(got) == list(want)
    for key in want:
        assert len(got[key]) == len(weights), key
        for t in range(len(weights)):
            assert got[key][t] == want[key][t], (key, t)
    # the whole record, fits and agreement included
    cfg = {"seed": 0}
    task = cli.verma_scan_task(cfg, alg, chi, weights, graded)
    with mock.patch.object(cli, "_run_scan", scan_every_weight):
        assert task == cli.verma_scan_task(cfg, alg, chi, weights, graded)
    # Z(lambda) and Z(lambda + sigma) act by equal root-unit matrices
    index = {tuple(lam.coords.tolist()): t for t, lam in enumerate(weights)}
    shifted = f.add(np.array([lam.coords for lam in weights]), alg.str_signs)
    actions = root_actions(alg, chi, weights, graded)
    for t, coords in enumerate(shifted.tolist()):
        assert np.array_equal(actions[t], actions[index[tuple(coords)]]), t


@pytest.mark.parametrize("graded", [False, True], ids=["plain", "graded"])
@pytest.mark.parametrize("name", ["gl11-diag", "gl12-diag", "gl21-diag"])
def test_frobenius_raises_the_root_actions(name, graded):
    # chi = diag(1, ..., 1) is F_5-valued: Z(phi lambda), and Z(M(phi
    # lambda)), act by the p-th powers of the entries at lambda
    alg, chi, weights = setting(name)
    actions = root_actions(alg, chi, weights, graded)
    image = frobenius_image(weights, 1)
    for t, s in enumerate(image):
        assert np.array_equal(actions[s], alg.field.power(actions[t], 5)), t


@pytest.mark.parametrize("graded", [False, True], ids=["plain", "graded"])
def test_frobenius_moves_no_action_where_it_moves_chi(graded):
    # phi fixes chi's diagonal, so it maps X^chi to itself, but chi(E21) = x
    # is no value of F_5: at no weight is Z(phi lambda) Z(lambda) raised to
    # the p-th power, and the orbits are the twist orbits alone (e = 5)
    alg, chi, weights = setting("gl21-diag-E21x-k5")
    actions = root_actions(alg, chi, weights, graded)
    image = frobenius_image(weights, 1)
    assert None not in image
    assert not any(np.array_equal(actions[s], alg.field.power(actions[t], 5))
                   for t, s in enumerate(image))
    first, orbit, shifts = cli._twist_orbits(alg, chi, weights)
    assert shifts == {} and len(first) == 25


def orbit_first(alg, weights, e):
    """For each weight, the index of the first weight of its orbit under the
    twists and phi^e, by search."""
    f = alg.field
    coords = [tuple(c) for c in weights.coords.tolist()]
    first = {}
    for s, c in enumerate(coords):
        for j in range(f.k // e):
            lam = f.power(np.array(c), f.p ** (j * e))
            for k in range(f.p):
                first.setdefault(tuple(f.add(lam, f.mul(k, alg.str_signs)).tolist()), s)
    return np.array([first[c] for c in coords])


def twist_keys(alg, mu):
    """mu - c sigma, c the F_p digit of mu_1, for each row of mu."""
    f = alg.field
    return f.sub(mu, f.mul(mu[:, :1] % f.p, alg.str_signs))


def test_orbit_keys_take_the_first_weight_in_the_given_order():
    for name in ("gl21-chi0", "gl21-diag", "gl11-a-k4"):
        alg, chi, weights = setting(name)
        reordered = weights[::-1]
        first, orbit, shifts = cli._twist_orbits(alg, chi, reordered)
        want = orbit_first(alg, reordered, SETTINGS[name][2])
        assert first.tolist() == sorted(set(want)), name
        assert np.array_equal(first[orbit], want), name
        # each weight is phi^(je) of its orbit's first, up to a twist
        power = np.ones(len(reordered), dtype=np.int64)
        for x, at in shifts.items():
            power[at] = x
        coords = reordered.coords
        raised = np.array([alg.field.power(coords[s], int(x))
                           for s, x in zip(first[orbit], power)])
        assert np.array_equal(twist_keys(alg, raised), twist_keys(alg, coords)), name


@pytest.mark.parametrize("task,builds", [("verma-scan", 1), ("graded-verma-scan", 2)])
def test_an_explicit_lambda_builds_that_weight(tmp_path, capsys, task, builds):
    # (1, 3, 4) is not the first weight of its orbit in X's order
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"p": 5, "m": 2, "n": 1, "chi": {}, "lambda": [1, 3, 4],
                                "tasks": [task]}))
    built = []
    real = verma.build_induced

    def build(*args, **kwargs):
        Z = real(*args, **kwargs)
        built.append(Z.lam.coords.tolist())
        return Z
    with mock.patch.object(verma, "build_induced", build):
        assert cli.main(["run", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [row["lambda"] for row in report["tasks"][0]["record"]["rows"]] == [[[1], [3], [4]]]
    # the baby Verma, or the even Verma and the graded Verma
    assert built == [[1, 3, 4]] * builds


def count_scan(chi, graded, counted, setting=None):
    """The calls of each counted function, by (owner, attribute), over a
    whole gl(2|1) scan on fresh contexts, or on setting, fresh_setting(chi)'s
    (algebra, chi, weights), if given; a spin counts its modules."""
    alg, chi, weights = setting or fresh_setting(chi)
    counts = dict.fromkeys(counted, 0)

    def counting(owner, attr, key):
        real = getattr(owner, attr)

        def count(*args, **kwargs):
            counts[key] += len(args[0]) if attr == "_spin_stack" else 1
            return real(*args, **kwargs)
        return mock.patch.object(owner, attr, count)

    with contextlib.ExitStack() as stack:
        for key, (owner, attr) in counted.items():
            stack.enter_context(counting(owner, attr, key))
        semisimple = classify_character(alg.root_system(), chi).semisimple
        cols = cli._run_scan(alg, chi, weights, graded, semisimple)
    assert all(len(col) == 125 for col in cols.values())
    return counts


@pytest.mark.parametrize("chi,graded,builds", [(CHI0, False, 25), (DIAG, True, 10)],
                         ids=["chi0", "diag-graded"])
def test_a_scan_places_one_module_per_twist_orbit(chi, graded, builds):
    # 125 weights in 25 orbits at chi = 0, in 5 orbits of phi and the
    # twists at chi = diag(1, 1, 1): one baby Verma each, or one even Verma
    # and one Z(M) each, and one certificate spin per module
    counts = count_scan(chi, graded, {"build": (verma, "build_induced"),
                                      "spin": (analysis, "_spin_stack")})
    assert counts == {"build": builds, "spin": builds}


def summary(M):
    """dual_core's R, the verdict, a witness, the head's dimension and, for
    a module of every unit, f_direct and f1_direct, as plain values."""
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


def test_equal_root_action_at_different_weights():
    alg, chi, _ = fresh_setting(CHI0)
    f = alg.field
    # lambda + (1, 1, -1) keeps lambda1 - lambda2, lambda1 + lambda3 and
    # lambda2 + lambda3, the values at the coroots
    Z1 = build_baby_verma(alg, chi, Weight(f, [1, 2, 3]))
    Z2 = build_baby_verma(alg, chi, Weight(f, [2, 3, 2]))
    cartan = alg.diag_units
    roots = [u for u in alg.units if u not in cartan]
    assert np.array_equal(Z1.matrices(roots), Z2.matrices(roots))
    assert not np.array_equal(Z1.matrices(cartan), Z2.matrices(cartan))
    first, second = summary(Z1), summary(Z2)
    # all but the witness's weight, which is read off the Cartan diagonal
    assert first.pop("witness_key") != second.pop("witness_key")
    assert first == second


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
