"""End-to-end CLI behavior: exit codes, determinism across parallelism,
config validation, output formats and dump files."""

import json
import os
import time

import pytest

from glmn import analysis, cli
from glmn.cli import main
from glmn.errors import BudgetExceeded


def write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = {"p": 5, "m": 1, "n": 1, "chi": {}, "lambda": "scan-all-X",
           "tasks": ["verma-scan"], "seed": 7}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_passing_scan_exits_zero(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["scan", "--config", write_cfg(tmp_path)])
        assert code == 0
        report = json.loads(out)
        assert report["passed"]
        assert report["tasks"][0]["record"]["simple_count"] == 20

    def test_invalid_p_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, p=4)
        code, _, err = run_cli(capsys, ["scan", "--config", cfg])
        assert code == 2 and "error" in err

    def test_small_p_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, p=3)
        code, _, err = run_cli(capsys, ["scan", "--config", cfg])
        assert code == 2

    def test_missing_config_exits_two(self, capsys):
        code, _, err = run_cli(capsys, ["scan", "--config", "/nonexistent.json"])
        assert code == 2

    def test_unknown_task_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, tasks=["bogus"])
        code, _, err = run_cli(capsys, ["run", "--config", cfg])
        assert code == 2 and "unknown task" in err

    def test_bad_chi_key_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, chi={"X(1,2)": 1})
        code, _, err = run_cli(capsys, ["scan", "--config", cfg])
        assert code == 2

    def test_task_error_exits_one(self, tmp_path, capsys):
        # levi scan demands a standard Levi chi; semisimple chi is not one
        cfg = write_cfg(tmp_path, chi={"E(1,1)": 1})
        code, _, err = run_cli(capsys, ["levi", "--config", cfg])
        assert code == 1 and "task failed" in err

    def test_dim_budget_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, m=2, n=2)
        code, _, err = run_cli(capsys, ["scan", "--config", cfg,
                                        "--dim-budget", "10"])
        assert code == 2

    @pytest.mark.parametrize("task", [
        "verma-scan", "graded-verma-scan", "kw-verify", "levi-scan",
        "frobenius-check", "regular-module-check"])
    def test_every_task_over_dim_budget_exits_two(self, tmp_path, capsys, task):
        # gl(2|1) at p=5: Vermas and u(n^-) both have dimension 20
        cfg = write_cfg(tmp_path, m=2, n=1, tasks=[task])
        code, _, err = run_cli(capsys, ["run", "--config", cfg,
                                        "--dim-budget", "10"])
        assert code == 2 and err.startswith("error:") and "20" in err

    @pytest.mark.parametrize("task", [
        "verma-scan", "graded-verma-scan", "kw-verify", "levi-scan",
        "regular-module-check", "--dump-module"])
    def test_dim_budget_refuses_before_the_weight_variety(self, tmp_path, capsys,
                                                         monkeypatch, task):
        # gl(5|4) at p = 5: Vermas of dimension 5^16 2^20; X is never built
        def must_not_run(*args):
            raise AssertionError("weight variety built before the budget check")

        monkeypatch.setattr(cli, "weight_variety", must_not_run)
        dump = task == "--dump-module"
        cfg = write_cfg(tmp_path, m=5, n=4,
                        tasks=["structure-check"] if dump else [task])
        argv = ["run", "--config", cfg]
        if dump:
            argv += ["--dump-module", str(tmp_path / "mod.txt")]
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert err == (f"error: predicted module dimension {5 ** 16 * 2 ** 20} "
                       "exceeds dim_budget 2000\n")

    def test_field_over_budget_exits_two(self, tmp_path, capsys):
        # at p = 11 a semisimple chi asks for F_{11^11}; the field budget
        # refuses it before the modulus search and before any table
        cfg = write_cfg(tmp_path, p=11, m=2, n=1, tasks=["graded-verma-scan"],
                        chi={"E(1,1)": 1, "E(2,2)": 1, "E(3,3)": 1})
        start = time.perf_counter()
        code, _, err = run_cli(capsys, ["run", "--config", cfg])
        assert time.perf_counter() - start < 10
        assert code == 2 and err.startswith("error:")
        assert f"q = 11^11 = {11 ** 11}" in err and f"7^7 = {7 ** 7}" in err

    def test_line_budget_exceeded_exits_two(self, tmp_path, capsys,
                                            monkeypatch):
        # the gl(3|1) baby Verma's top weight occurs at more than one basis
        # vector, so it descends, and a budget of 0 lines refuses even a
        # single line
        monkeypatch.setattr(analysis, "LINE_BUDGET", 0)
        cfg = write_cfg(tmp_path, m=3, n=1, tasks=["verma-scan"],
                        **{"lambda": [0, 4, 3, 1]})
        code, _, err = run_cli(capsys, ["run", "--config", cfg])
        assert code == 2 and err.startswith("error:") and "line budget 0" in err

    @pytest.mark.parametrize("raw", [
        [{"p": 5, "m": 1, "n": 1}],
        {"field_degree": 0},
        {"jobs": "x"},
        {"seed": 1.5},
        {"seed": "x"},
        {"seed": [1]},
        {"dim_budget": None},
        {"line_budget": True},
        {"line_budget": 10000},
        {"dim_bugdet": 10},
        {"p": 6},
        {"p": 2047},
        {"p": 561},
        {"tasks": "verma-scan"},
        {"lambda": [[1.5], 0]},
        {"lambda": [True, 0]},
        {"chi": {"E(1,1)": [0.5]}},
        {"lambda": [[[1]], 0]},
        '{"p": 1%s, "m": 1, "n": 1}' % ("0" * 5000),
    ], ids=["array", "field-degree-0", "jobs-str", "seed-float", "seed-str",
            "seed-list", "dim-budget-null",
            "line-budget-bool", "line-budget-removed", "misspelt-key",
            "p-composite", "p-strong-pseudoprime",
            "p-carmichael", "tasks-str", "lambda-float-entry",
            "lambda-bool", "chi-float-entry", "lambda-nested-list",
            "p-5001-digits"])
    def test_malformed_config_exits_two(self, tmp_path, capsys, raw):
        # a str is the config's text: json.dumps refuses an int of 5001 digits
        if isinstance(raw, dict):
            cfg = write_cfg(tmp_path, **raw)
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(raw if isinstance(raw, str) else json.dumps(raw))
        code, _, err = run_cli(capsys, ["run", "--config", str(cfg)])
        assert code == 2 and "error" in err
        if isinstance(raw, dict) and "p" in raw:
            assert "not prime" in err

    @pytest.mark.parametrize("raw", [
        {"field_degree": 100000},
        {"field_degree": 10 ** 9},
        {"m": 100000},
        {"n": 100000},
        {"m": 10 ** 9, "n": 10 ** 9},
        {"m": 100000, "tasks": ["frobenius-check"]},
        {"m": 100000, "tasks": ["structure-check"]},
        {"m": 10 ** 9, "n": 10 ** 9, "tasks": ["structure-check"]},
    ], ids=["field-degree-1e5", "field-degree-1e9", "m-1e5", "n-1e5", "m-n-1e9",
            "frobenius-m-1e5", "structure-m-1e5", "structure-m-n-1e9"])
    def test_large_config_values_exit_two_at_once(self, tmp_path, capsys, raw):
        # the budgets take no power of an unbounded exponent and format no
        # unbounded integer
        cfg = write_cfg(tmp_path, **raw)
        start = time.perf_counter()
        code, _, err = run_cli(capsys, ["run", "--config", cfg])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1
        assert "exceeds" in err

    @pytest.mark.parametrize("budget,code", [(63, 2), (64, 0)])
    def test_structure_budget_refuses_before_the_algebra(self, tmp_path, capsys,
                                                         monkeypatch, budget, code):
        # gl(2|2): 16 units, a bracket table of 16^3 = 4096 = 64^2 entries
        real = cli.build_algebra

        def refused_first(*args):
            assert code == 0, "algebra built before the structure budget check"
            return real(*args)

        monkeypatch.setattr(cli, "build_algebra", refused_first)
        cfg = write_cfg(tmp_path, m=2, n=2, tasks=["structure-check"])
        got, _, err = run_cli(capsys, ["run", "--config", cfg,
                                       "--dim-budget", str(budget)])
        assert got == code
        if code:
            assert err == ("error: structure-check's bracket table of 4096 entries "
                           "exceeds dim_budget^2 = 63^2\n")

    def test_config_over_the_field_budget_takes_no_primality_test(
            self, monkeypatch):
        def refuse(n):
            raise AssertionError("primality tested on a field over the budget")
        monkeypatch.setattr(cli, "isprime", refuse)
        for p, k in ((823547, 1), (2 ** 89 - 1, 1), (5, 10 ** 9)):
            with pytest.raises(BudgetExceeded, match="exceeds 7\\^7"):
                cli.validate_config({"p": p, "m": 1, "n": 1, "field_degree": k})


class TestDeterminism:
    def test_jobs_do_not_change_report(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        _, out1, _ = run_cli(capsys, ["scan", "--config", cfg, "--jobs", "1"])
        _, out2, _ = run_cli(capsys, ["scan", "--config", cfg, "--jobs", "2"])
        assert out1 == out2
        # the graded scan over F_{5^5}: 125 weights in 14 chunks of at most
        # nine, run in stages, serially or mapped over two workers
        cfg = write_cfg(tmp_path, m=2, n=1, tasks=["graded-verma-scan"],
                        chi={"E(1,1)": 1, "E(2,2)": 1, "E(3,3)": 1})
        reports = [run_cli(capsys, ["run", "--config", cfg, "--jobs", jobs])
                   for jobs in ("1", "2")]
        assert reports[0] == reports[1] and reports[0][0] == 0

    @pytest.mark.parametrize("jobs,chunks", [(1, [25]), (2, [12, 12, 1]),
                                             (8, [3] * 8 + [1]), (25, [1] * 25)])
    def test_pool_maps_at_least_one_chunk_per_worker(self, tmp_path, capsys,
                                                     monkeypatch, jobs, chunks):
        # gl(1|1) at p = 5: 25 weights, 4 units of dim 2, so one chunk
        # holds all of them unless the pool needs more chunks
        import concurrent.futures
        seen = []

        class SerialPool:
            def __init__(self, max_workers, initializer, initargs):
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        real = cli._scan_chunk

        def recording(chunk):
            seen.append(len(chunk))
            return real(chunk)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(cli, "_scan_chunk", recording)
        cfg = write_cfg(tmp_path)
        code, _, _ = run_cli(capsys, ["scan", "--config", cfg, "--jobs", str(jobs)])
        assert code == 0 and seen == chunks

    @pytest.mark.parametrize("cpus,want", [(None, []), (1, []), (8, [8]),
                                           (64, [25]), ("real", None)])
    def test_pool_never_exceeds_weights_or_cpus(self, tmp_path, capsys,
                                                monkeypatch, cpus, want):
        # the pool is a serial fake: no process is started
        import concurrent.futures
        seen = []

        class SerialPool:
            def __init__(self, max_workers, initializer, initargs):
                seen.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        if cpus != "real":
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cfg = write_cfg(tmp_path)  # gl(1|1) at p = 5: 25 weights
        _, serial, _ = run_cli(capsys, ["scan", "--config", cfg])
        code, out, _ = run_cli(capsys, ["scan", "--config", cfg,
                                        "--jobs", "1000000"])
        assert code == 0 and out == serial
        if want is None:
            assert all(w <= min(os.cpu_count() or 1, 25) for w in seen)
        else:
            assert seen == want

    def test_repeat_runs_identical(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        _, out1, _ = run_cli(capsys, ["scan", "--config", cfg])
        _, out2, _ = run_cli(capsys, ["scan", "--config", cfg])
        assert out1 == out2


class TestFormatsAndOutputs:
    def test_csv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        code, out, _ = run_cli(capsys, ["scan", "--config", cfg,
                                        "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("lambda,")
        assert len(lines) == 26  # header + 25 weights

    def test_table(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        code, out, _ = run_cli(capsys, ["scan", "--config", cfg,
                                        "--format", "table"])
        assert code == 0 and "[verma-scan] pass" in out

    def test_out_directory(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, tasks=["structure-check", "verma-scan"])
        outdir = tmp_path / "out"
        code, _, _ = run_cli(capsys, ["run", "--config", cfg,
                                      "--out", str(outdir)])
        assert code == 0
        names = sorted(os.listdir(outdir))
        assert names == ["structure-check.json", "summary.json",
                         "verma-scan.json"]
        summary = json.loads((outdir / "summary.json").read_text())
        assert {t["task"] for t in summary["tasks"]} == \
            {"structure-check", "verma-scan"}

    def test_dump_files(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, **{"lambda": [2, 3]})
        mod = tmp_path / "mod.txt"
        elt = tmp_path / "elt.txt"
        code, _, _ = run_cli(capsys, ["run", "--config", cfg,
                                      "--dump-module", str(mod),
                                      "--dump-element", str(elt)])
        assert code == 0
        text = mod.read_text()
        assert text.startswith("dim 2\n")
        assert "action E(1, 1)" in text or "action E(1,1)" in text
        assert elt.read_text().strip()  # a straightened normal form


class TestSubcommands:
    def test_check_gl22(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, m=2, n=2, tasks=["structure-check"])
        code, out, _ = run_cli(capsys, ["check", "--config", cfg])
        assert code == 0
        rec = json.loads(out)["tasks"][0]["record"]
        assert rec["all_pass"]
        assert rec["checked"]["jacobi"] == 16 ** 3

    def test_kw_gl11(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, chi={"E(1,1)": 1}, tasks=["kw-verify"])
        code, out, _ = run_cli(capsys, ["kw", "--config", cfg])
        assert code == 0
        rep = json.loads(out)["tasks"][0]["record"]["reports"][0]
        assert rep["dim_m"] == rep["predicted_dim"] == 2
        assert rep["induced_simple"]

    def test_levi_gl21(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, m=2, n=1, chi={"E(2,1)": 1},
                        **{"lambda": [3, 1, 2]}, tasks=["levi-scan"])
        code, out, _ = run_cli(capsys, ["levi", "--config", cfg])
        assert code == 0
        rep = json.loads(out)["tasks"][0]["record"]["reports"][0]
        assert rep["alphas"][0]["isomorphism"]
        assert rep["radical_absorbs_all"]

    def test_regular_module_check_with_chi_on_nminus(self, tmp_path, capsys):
        """chi(E21) = 1 shifts the socle off the joint kernel of the raw
        actions; the shifted socles of both regular modules are one line."""
        cfg = write_cfg(tmp_path, m=2, n=1, chi={"E(2,1)": 1},
                        tasks=["regular-module-check"])
        code, out, _ = run_cli(capsys, ["run", "--config", cfg])
        assert code == 0
        rec = json.loads(out)["tasks"][0]["record"]
        assert rec["trivial_dim_left"] == rec["trivial_dim_right"] == 1
        assert rec["v_left_equals_v_right"]
