"""A scan's report rows are built from its columns as they are read.

verma_scan_task keeps a scan's columns as arrays; record["rows"] is a
read-only sequence (algebra.ColumnRows) that builds each row dict when the
CSV or table emitter, an --out file or a reader reads it, a chunk at a
time.  Here every report, in each format and under --out, is compared byte
for byte with the report of the same rows made a plain list first, on
gl(1|1) and gl(2|1) scans, plain and graded, over all of X and at one
weight; len, indexing, slicing, membership, reversal and equality must be
those of the list.  The weights of X are held the same way
(algebra.Weights).  Both copy and pickle to an equal object.  A gl(1|1)
scan at p = 101 must stay within a tracemalloc bound that the per-weight
objects of the old code exceed.

The JSON report writes a ColumnRows straight from its columns
(algebra.write_json), making no row dict: on random column sets, in
reports of two scan tasks, on stdout and in every --out file, its text must
be json.JSONEncoder(sort_keys=True, indent=2)'s text of the report with
each record's rows made a plain list of dicts.
"""

import contextlib
import copy
import io
import itertools
import json
import pickle
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    monkeypatch.setattr(algebra.ColumnRows, "CHUNK", 7)


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
        assert isinstance(rec["rows"], algebra.ColumnRows)
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
    assert list(reversed(rows)) == full[::-1]
    with pytest.raises(TypeError):
        () + rows


def weights_of(name):
    m, n, chi, _ = SCANS[name]
    alg = build_algebra(m, n, make_field(5))
    return weight_variety(alg, cli.parse_chi(alg, chi))[2]


@pytest.mark.usefixtures("small_chunks")
def test_rows_are_read_only():
    rows, weights = record("gl11-chi0", "verma-scan")[2]["rows"], weights_of("gl11-chi0")
    for seq, full in ((rows, list(rows)), (weights, list(weights))):
        for name in ("append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse",
                     "__iadd__", "__imul__", "__setitem__", "__delitem__"):
            assert not hasattr(seq, name), name
        with pytest.raises(TypeError):
            seq[0] = full[1]
        with pytest.raises(TypeError):
            del seq[0]
        assert seq == full


@pytest.mark.usefixtures("small_chunks")
def test_weights_and_records_copy_and_pickle():
    # over F_{5^5}, whose field pickles by (p, k, modulus)
    weights = weights_of("gl11-diag")
    rec = record("gl21-chi0", "verma-scan")[2]
    for obj in (weights, weights[3:20:4], rec):
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj) and twin == obj and not twin != obj
    assert pickle.loads(pickle.dumps(rec))["rows"] == list(rec["rows"])


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
    for count, size in ((0, 0), (1, 1), (30, 30), (500, 125)):
        assert weight_variety(alg, chi, count)[2] == listed[:size]


class Null:
    def write(self, text):
        pass


# tracemalloc peak of the p = 101 scan below, emitted to a null stream
# (x86-64, CPython 3.11, numpy 2.4): 10.57 MB when every row dict and every
# Weight was held, 1.70 MB with both made from arrays as they are read
# (ColumnRows.CHUNK = 1024).  The bound is the latter
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


ENCODER = json.JSONEncoder(sort_keys=True, indent=2)
# keys in and out of the scans' sort order, one with a % for the row template
KEYS = ["lambda", "f_direct", "agreement", "oracle_simple", "dim_z", "f0", "100%", "χ", 'a"b']


@st.composite
def column_rows(draw):
    """A ColumnRows of random columns: integer ones of shape (N,) and (N, d)
    in three dtypes, index ones gathered through digits to (N, k) and (N, d,
    k), bool ones, object ones of True, False and None, and object ones that
    mix these with ints, a string and a float; N around CHUNK = 7."""
    n = draw(st.sampled_from([0, 1, 6, 7, 8, 22]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, k = draw(st.integers(2, 30)), draw(st.integers(1, 3))
    digits = rng.integers(0, 1409, size=(q, k))
    cols, indexed = {}, []
    for key in draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=6, unique=True)):
        shape = (n, *draw(st.sampled_from([(), (1,), (3,)])))
        kind = draw(st.sampled_from(["int64", "int8", "uint16", "index", "bool", "object",
                                     "mixed"]))
        if kind == "index":
            indexed.append(key)
            cols[key] = rng.integers(0, q, size=shape)
        elif kind == "bool":
            cols[key] = rng.integers(0, 2, size=shape).astype(bool)
        elif kind == "object":
            cols[key] = np.array([True, False, None], dtype=object)[rng.integers(0, 3, size=shape)]
        elif kind == "mixed":
            leaves = np.array([True, None, -3, 2 ** 70, "%s λ", 0.5], dtype=object)
            cols[key] = leaves[rng.integers(0, len(leaves), size=shape)]
        else:
            info = np.iinfo(kind)
            cols[key] = rng.integers(info.min, info.max, size=shape, dtype=kind, endpoint=True)
    return algebra.ColumnRows(cols, digits, tuple(indexed))


def listed_all(obj):
    """obj with every ColumnRows in it made a plain list."""
    if isinstance(obj, dict):
        return {k: listed_all(v) for k, v in obj.items()}
    return [listed_all(v) for v in obj] if isinstance(obj, (list, algebra.ColumnRows)) else obj


def written(obj):
    stream = io.StringIO()
    algebra.write_json(obj, stream)
    return stream.getvalue()


def run_outputs(cfg, out):
    """stdout of a JSON run and, by name, the --out files of a second one."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert cli.main(["run", "--config", cfg]) == 0
    files = {"stdout": stdout.getvalue()}
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    files.update((p.name, p.read_text()) for p in sorted(out.iterdir()))
    return files


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_written_rows_are_the_encoders_text_of_their_list(data):
    tasks = {"verma-scan": data.draw(column_rows()), "graded-verma-scan": data.draw(column_rows())}

    def runner(rows):
        return lambda *args: ({"rows": rows, "count": len(rows), "c": None}, True)

    def unread(rows):
        # the same columns, whose row dicts may not be made
        rows = algebra.ColumnRows(rows.cols, rows.digits, rows.indexed)
        rows.items = lambda *args: pytest.fail("a row dict was made")
        return rows

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(algebra.ColumnRows, "CHUNK", 7):
        cfg = Path(tmp, "cfg.json")
        cfg.write_text(json.dumps({"p": 5, "m": 1, "n": 1, "lambda": [0, 0],
                                   "tasks": sorted(tasks)}))
        with mock.patch.dict(cli.TASK_RUNNERS, {t: runner(unread(r)) for t, r in tasks.items()}):
            streamed = run_outputs(str(cfg), Path(tmp, "streamed"))
        with mock.patch.dict(cli.TASK_RUNNERS, {t: runner(list(r)) for t, r in tasks.items()}), \
                mock.patch.object(cli, "write_json", lambda obj, fh: fh.write(ENCODER.encode(obj))):
            listed = run_outputs(str(cfg), Path(tmp, "listed"))
        assert sorted(streamed) == ["graded-verma-scan.json", "stdout", "summary.json",
                                    "verma-scan.json"]
        assert streamed == listed
        # the rows alone, and in a list within a list
        first, second = tasks["verma-scan"], tasks["graded-verma-scan"]
        for obj in (first, [1, {"x": [first, second]}]):
            assert written(obj) == ENCODER.encode(listed_all(obj))


@pytest.mark.parametrize("dtype", ["float64", "complex128", "U3", "datetime64[s]"])
def test_a_column_of_another_dtype_is_not_written(dtype):
    rows = algebra.ColumnRows({"f": np.arange(3), "x": np.zeros(3, dtype=dtype)},
                              np.zeros((3, 1), dtype=np.int64), ("f",))
    with pytest.raises(TypeError, match=re.escape(f"no JSON leaves of dtype {np.dtype(dtype)}")):
        written({"rows": rows})
