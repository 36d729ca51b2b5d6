"""A scan's report rows are built from its columns as they are read.

verma_scan_task keeps a scan's columns as arrays; record["rows"] is a
read-only list (algebra.Rows) that builds each row dict when the JSON
encoder, the CSV or table emitter or an --out file reads it, a chunk at a
time.  Here every report, in each format and under --out, is compared byte
for byte with the report of the same rows made a plain list first, on
gl(1|1) and gl(2|1) scans, plain and graded, over all of X and at one
weight; len, indexing and equality must be those of the list.  The weights
of X are held the same way (algebra.Weights).  A gl(1|1) scan at p = 101
must stay within a tracemalloc bound that the per-weight objects of the
old code exceed.
"""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from glmn import algebra, cli
from glmn.algebra import Character, Weight, build_algebra, weight_variety
from glmn.ffield import artin_schreier_roots, make_field

# (m, n, chi, lambda); the diagonal chi extends F_5 to F_{5^5}
SCANS = {
    "gl11-chi0": (1, 1, {}, "scan-all-X"),
    "gl21-chi0": (2, 1, {}, "scan-all-X"),
    "gl11-diag": (1, 1, {"E(1,1)": 1, "E(2,2)": 1}, "scan-all-X"),
    "gl21-E21": (2, 1, {"E(2,1)": 1}, "scan-all-X"),
    "gl21-one": (2, 1, {}, [1, 3, 4]),
}
TASKS = ["verma-scan", "graded-verma-scan"]


@pytest.fixture
def small_chunks(monkeypatch):
    # 7 rows a chunk, so that every scan read across chunk boundaries
    monkeypatch.setattr(algebra.Rows, "CHUNK", 7)


def config(tmp_path, name, task):
    m, n, chi, lam = SCANS[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"p": 5, "m": m, "n": n, "chi": chi, "lambda": lam,
                                "tasks": [task], "seed": 1}))
    return str(path)


def listed(runner):
    """runner with its record's rows made a plain list of dicts."""
    def run(*args):
        rec, passed = runner(*args)
        assert isinstance(rec["rows"], algebra.Rows)
        return dict(rec, rows=list(rec["rows"])), passed
    return run


def outputs(capsys, cfg, fmt, out):
    """stdout of the run and every --out file of a second run, by name."""
    assert cli.main(["run", "--config", cfg, "--format", fmt]) in (0, 1)
    files = {"stdout": capsys.readouterr().out}
    assert cli.main(["run", "--config", cfg, "--format", fmt, "--out", str(out)]) in (0, 1)
    files.update((p.name, p.read_bytes()) for p in sorted(out.iterdir()))
    return files


@pytest.mark.usefixtures("small_chunks")
@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("name", sorted(SCANS))
def test_streamed_rows_write_the_reports_of_the_list(tmp_path, capsys, monkeypatch,
                                                     name, task, fmt):
    cfg = config(tmp_path, name, task)
    streamed = outputs(capsys, cfg, fmt, tmp_path / "streamed")
    monkeypatch.setitem(cli.TASK_RUNNERS, task, listed(cli.TASK_RUNNERS[task]))
    assert outputs(capsys, cfg, fmt, tmp_path / "listed") == streamed
    assert sorted(streamed) == sorted(["stdout", f"{task}.{cli._ext(fmt)}",
                                       f"summary.{cli._ext(fmt)}"])


def record(name, task):
    m, n, chi, lam = SCANS[name]
    cfg = cli.validate_config({"p": 5, "m": m, "n": n, "chi": chi, "lambda": lam,
                               "tasks": [task]})
    alg, chi, weights = cli.build_setting(cfg)
    rec, passed = cli.TASK_RUNNERS[task](cfg, alg, chi, weights)
    return cfg, alg, rec, passed


@pytest.mark.usefixtures("small_chunks")
@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("name", sorted(SCANS))
def test_rows_read_like_the_list(name, task):
    cfg, alg, rec, passed = record(name, task)
    rows = rec["rows"]
    full = list(rows)
    n = len(full)
    assert len(rows) == n == rec["count"] == (1 if name == "gl21-one" else 5 ** alg.d)
    assert bool(rows) and all(isinstance(r, dict) for r in full)
    # the columns of the task, in order
    assert list(full[0]) == ["lambda", "f_formula", "f0", "f1", "f_direct", "dim_z",
                             "oracle_simple", *(["dim_m", "f1_direct"] if "graded" in task
                                                else []), "agreement"]
    for t in {0, n // 2, n - 1, -1, -n}:
        assert rows[t] == full[t]
    for s in (slice(None), slice(1, 9), slice(None, None, -3), slice(n + 5, None)):
        assert rows[s] == full[s]
    with pytest.raises(IndexError):
        rows[n]
    with pytest.raises(IndexError):
        rows[-n - 1]
    # equality with the list, either side, and with a second record
    assert rows == full and full == rows and not rows != full
    assert rows == record(name, task)[2]["rows"]
    changed = [dict(r) for r in full]
    changed[-1]["agreement"] = not changed[-1]["agreement"]
    assert rows != changed and changed != rows and rows != full[:-1] and rows != full + full
    assert rows != tuple(full) and rows != None  # noqa: E711
    # the other readers see the rows too
    assert full[-1] in rows and changed[-1] not in rows
    assert rows.index(full[-1]) == n - 1 and rows.count(full[0]) == 1
    assert list(reversed(rows)) == full[::-1] and rows + [] == full and repr(rows) == repr(full)
    # a list on the left reads the rows too: list + Rows is not list's own concatenation
    assert [] + rows == full and full[:1] + rows == full[:1] + full and rows + rows == full + full
    with pytest.raises(TypeError):
        () + rows
    # compact and indented JSON of the record
    assert json.dumps(rec) == json.dumps(dict(rec, rows=full))
    assert (json.dumps(rec, indent=2, sort_keys=True)
            == json.dumps(dict(rec, rows=full), indent=2, sort_keys=True))


@pytest.mark.usefixtures("small_chunks")
def test_rows_are_read_only():
    rows = record("gl11-chi0", "verma-scan")[2]["rows"]
    full = list(rows)
    for mutate in (lambda: rows.append({}), lambda: rows.extend([{}]),
                   lambda: rows.insert(0, {}), lambda: rows.pop(), lambda: rows.remove(full[0]),
                   lambda: rows.clear(), lambda: rows.sort(), lambda: rows.reverse(),
                   lambda: rows.__setitem__(0, {}), lambda: rows.__delitem__(0),
                   lambda: rows.__iadd__([{}]), lambda: rows.__imul__(2)):
        with pytest.raises(TypeError, match="read-only"):
            mutate()
    assert rows == full


@pytest.mark.usefixtures("small_chunks")
@pytest.mark.parametrize("chi", [{}, {(1, 1): 1, (2, 2): 1, (3, 3): 1}, {(2, 1): 1}],
                         ids=["chi0", "diag", "E21"])
def test_weights_read_like_the_list_of_the_product(chi):
    # the order of the weights is itertools.product's over each coordinate's
    # Artin-Schreier roots, as the list was built before
    alg = build_algebra(2, 1, make_field(5))
    alg, chi, weights = weight_variety(alg, Character(alg, chi))
    f = alg.field
    roots = [[r.idx for r in artin_schreier_roots(f, f.power(chi.value(u), f.p))]
             for u in alg.diag_units]
    listed = [Weight(f, c) for c in itertools.product(*roots)]
    assert isinstance(weights, algebra.Weights) and len(weights) == len(listed) == 125
    assert weights == listed and listed == weights and not weights != listed
    assert list(weights) == listed and weights[7] == listed[7] and weights[-1] == listed[-1]
    assert isinstance(weights[3:9], algebra.Weights) and weights[3:9] == listed[3:9]
    assert weights[::-4] == listed[::-4] and weights[::-4].coords.shape == (32, 3)
    assert weights != listed[:-1] and weights != listed[::-1]
    assert listed[5] in weights and weights.index(listed[5]) == 5
    assert [listed[0]] + weights == [listed[0]] + listed and [] + weights[3:9] == listed[3:9]
    with pytest.raises(TypeError, match="read-only"):
        weights.append(listed[0])
    for count, size in ((0, 0), (1, 1), (30, 30), (500, 125)):
        assert weight_variety(alg, chi, count)[2] == listed[:size]


class Null:
    def write(self, text):
        pass


# tracemalloc peak of the p = 101 scan below, emitted to a null stream
# (x86-64, CPython 3.11, numpy 2.4): 10.57 MB when every row dict and every
# Weight was held, 1.70 MB with both made from arrays as they are read
# (Rows.CHUNK = 1024).  The bound is the latter
# with a margin of a third.
SCAN_PEAK_BOUND = 2.3e6


def test_a_scan_holds_its_columns_not_its_rows():
    # gl(1|1), chi = 0, p = 101: 10,201 weights in 101 twist orbits
    cfg = cli.validate_config({"p": 101, "m": 1, "n": 1, "chi": {},
                               "lambda": "scan-all-X", "tasks": ["verma-scan"]})
    tracemalloc.start()
    try:
        alg, chi, weights = cli.build_setting(cfg)
        rec, passed = cli.verma_scan_task(cfg, alg, chi, weights)
        cli.emit(cli.make_report(cfg, alg, [("verma-scan", rec, passed)]), "json", Null())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert passed and rec["count"] == 101 ** 2 and rec["simple_count"] == 101 ** 2 - 101
    assert isinstance(weights.coords, np.ndarray) and weights.coords.shape == (101 ** 2, 2)
    print(f"tracemalloc peak {peak / 1e6:.2f} MB")
    assert peak < SCAN_PEAK_BOUND, peak
