"""End-to-end CLI behavior: exit codes, determinism, config validation
(also of the configs the benchmark and the slow checks write), output
formats and dump files, and the exit hook that glmn.cli registers (reports
of a fresh interpreter, which runs it, against in-process ones)."""

import inspect
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from glmn import algebra, cli
from glmn.cli import main
from glmn.errors import BudgetExceeded
from glmn.ffield import artin_schreier_roots, make_field

from _tools import slow_checks, workloads


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


# A child that caps its address space, then runs the CLI and prints the
# seconds main took: a tree whose budget check is missing then fails with a
# MemoryError instead of growing until the machine kills the test run.
CAPPED_RUN = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from glmn.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start)
sys.exit(code)
"""


def run_capped(argv):
    """(exit code, seconds in main, stderr) of the CLI in a capped child."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    child = subprocess.run([sys.executable, "-c", CAPPED_RUN, *argv], env=env,
                           capture_output=True, text=True, timeout=120)
    seconds = float(child.stdout.split()[-1]) if child.stdout.strip() else None
    return child.returncode, seconds, child.stderr


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
        # a task that is no name, a list or an object too, is unknown
        known = ("structure-check, verma-scan, graded-verma-scan, kw-verify, levi-scan, "
                 "frobenius-check, regular-module-check")
        for task in ["bogus", ["verma-scan"], {}, 3]:
            cfg = write_cfg(tmp_path, tasks=[task])
            code, _, err = run_cli(capsys, ["run", "--config", cfg])
            assert code == 2 and err == f"error: unknown task {task!r}; known: {known}\n"

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

    @pytest.mark.parametrize("task", ["verma-scan", "kw-verify", "structure-check"])
    def test_chi_with_no_standard_levi_form_exits_two(self, tmp_path, capsys, task):
        # chi(E12) = 1, chi(E21) = 2 on gl(2|1): the even avatar block has
        # characteristic polynomial x^2 - 2, and 2 is no square mod 5, so
        # chi has no standard Levi form over F_5; refused before any task
        cfg = write_cfg(tmp_path, m=2, n=1, chi={"E(1,2)": 1, "E(2,1)": 2}, tasks=[task])
        code, out, err = run_cli(capsys, ["run", "--config", cfg])
        assert (code, out) == (2, "")
        assert err == ("error: an eigenvalue of chi's even avatar lies outside F_5, "
                       "so chi has no standard Levi form over it\n")

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
        # unbounded integer; the run is a child under a memory cap
        cfg = write_cfg(tmp_path, **raw)
        code, seconds, err = run_capped(["run", "--config", cfg])
        assert seconds is not None and seconds < 1.0
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

    def test_empty_task_list_is_refused_before_the_algebra(self, tmp_path):
        # gl(100|1) would build a bracket table of 101^4 entries; a config
        # with no task must meet that budget too, or the capped child fails
        cfg = write_cfg(tmp_path, m=100, n=1, tasks=[], **{"lambda": [0] * 101})
        code, _, err = run_capped(["run", "--config", cfg])
        assert (code, err) == (2, "error: the algebra's bracket table of 104060401 "
                                  "entries exceeds dim_budget^2 = 2000^2\n")

    @pytest.mark.parametrize("task", ["verma-scan", "graded-verma-scan", "kw-verify",
                                      "levi-scan"])
    def test_weight_tasks_over_the_weight_budget_exit_two(self, tmp_path, task):
        # gl(1|1) at p = 10007: X holds 10007^2 weights, every one read or
        # sampled; a scan takes about 1.5 KB per weight, so the capped child
        # of a tree without the budget fails with a MemoryError
        cfg = write_cfg(tmp_path, p=10007, tasks=[task])
        code, _, err = run_capped(["run", "--config", cfg])
        assert (code, err) == (2, "error: the weight table of X^chi of 10007^2 x 2 entries "
                                  "exceeds dim_budget^2 = 2000^2\n")

    def test_weight_budget_reads_the_config_alone(self):
        # 1409^2 * 2 <= 2000^2 < 1423^2 * 2, and a given lambda reads no table
        def budget(p, **overrides):
            cfg = cli.validate_config({"p": p, "m": 1, "n": 1, **overrides})
            cli.check_budgets(cfg, cfg["tasks"])

        budget(1409)
        budget(1423, **{"lambda": [0, 0]})
        budget(1423, tasks=["structure-check"])
        with pytest.raises(BudgetExceeded, match="1423\\^2 x 2 entries"):
            budget(1423)

    def test_dump_module_takes_the_first_weight_without_x(self, tmp_path):
        # X of gl(1|1) at p = 10007 is not listed for the first weight
        cfg = write_cfg(tmp_path, p=10007, tasks=[])
        mod = tmp_path / "mod.txt"
        code, _, err = run_capped(["run", "--config", cfg, "--dump-module", str(mod)])
        assert (code, err) == (0, "")
        assert mod.read_text().startswith("dim 2\nparity 0 1\n")

    def test_dump_element_over_the_element_budget_exits_two(self, tmp_path):
        # u(gl(3|1), 0) has dimension 1000^2 5^4; straightening its top
        # element ran out of a 2 GB address space after a minute
        cfg = write_cfg(tmp_path, m=3, n=1, tasks=[])
        code, _, err = run_capped(["run", "--config", cfg, "--dump-element",
                                   str(tmp_path / "elt.txt")])
        assert (code, err) == (2, "error: dim u(g, chi) = D^2 5^4 with D = 1000 "
                                  "exceeds dim_budget^2 = 2000^2\n")

    @pytest.mark.parametrize("m,n,budget,refused", [(2, 1, 2000, False), (2, 2, 2000, True),
                                                    (2, 2, 10000, False), (5, 4, 2000, True)])
    def test_element_budget_is_d_squared_times_p_to_the_m_plus_n(self, m, n, budget, refused):
        # gl(2|1): 20^2 5^3 = 50,000; gl(2|2): 400^2 5^4 = 10^8; gl(5|4): D
        # itself exceeds the budget
        cfg = cli.validate_config({"p": 5, "m": m, "n": n, "tasks": [], "dim_budget": budget})
        if refused:
            with pytest.raises(BudgetExceeded, match="dim u\\(g, chi\\)"):
                cli.check_budgets(cfg, [], dump_element=True)
        else:
            cli.check_budgets(cfg, [], dump_element=True)
        cli.check_budgets(cfg, [])

    @pytest.mark.parametrize("budget,code", [(3, 2), (4, 0)])
    def test_algebra_budget_bounds_every_config(self, tmp_path, capsys, budget, code):
        # gl(1|1): (1 + 1)^4 = 16 = 4^2 entries
        cfg = write_cfg(tmp_path, tasks=[], dim_budget=budget)
        got, out, err = run_cli(capsys, ["run", "--config", cfg])
        assert got == code
        assert json.loads(out)["passed"] if code == 0 else err == (
            "error: the algebra's bracket table of 16 entries exceeds dim_budget^2 = 3^2\n")

    @pytest.mark.parametrize("tasks", [["structure-check"], ["frobenius-check"],
                                       ["regular-module-check"], []])
    @pytest.mark.parametrize("chi,k", [({}, 1), ({"E(1,1)": 1, "E(2,2)": 1}, 5)])
    def test_tasks_that_read_no_weight_build_none(self, tmp_path, capsys,
                                                  monkeypatch, tasks, chi, k):
        # X^chi is enumerated for the scans, kw-verify and levi-scan only;
        # the field is extended all the same
        def must_not_run(*args):
            raise AssertionError("a weight of X^chi built for no task")

        monkeypatch.setattr(algebra, "Weight", must_not_run)
        cfg = write_cfg(tmp_path, m=1, n=1, chi=chi, tasks=tasks)
        code, out, _ = run_cli(capsys, ["run", "--config", cfg])
        report = json.loads(out)
        assert code == 0 and report["passed"] and report["field"]["k"] == k

    def test_dump_module_reads_the_first_weight_of_any_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, m=1, n=1, chi={"E(1,1)": 1}, tasks=["structure-check"])
        dumps = []
        for argv in (["run", "--config", cfg], ["scan", "--config", cfg]):
            mod = tmp_path / "mod.txt"
            assert run_cli(capsys, argv + ["--dump-module", str(mod)])[0] == 0
            dumps.append(mod.read_text())
        assert dumps[0] == dumps[1] and dumps[0].startswith("dim 2\n")

    @pytest.mark.parametrize("budget", [0, -2000])
    def test_dim_budget_below_one_exits_two(self, tmp_path, capsys, budget):
        # structure-check squares the budget, so a negative one would pass as
        # its absolute value; the flag is put in the config before it is
        # validated, so both routes are refused alike
        plain = write_cfg(tmp_path, tasks=["structure-check"])
        keyed = write_cfg(tmp_path, "keyed.json", tasks=["structure-check"],
                          dim_budget=budget)
        for argv in (["run", "--config", keyed],
                     ["check", "--config", plain, "--dim-budget", str(budget)]):
            assert run_cli(capsys, argv) == (
                2, "", "error: dim_budget must be at least 1\n")

    def test_flags_override_the_config_before_it_is_validated(self, tmp_path,
                                                             capsys):
        cfg = write_cfg(tmp_path, seed=None, dim_budget=-1)
        code, out, _ = run_cli(capsys, ["scan", "--config", cfg, "--seed", "7",
                                        "--dim-budget", "2000"])
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 7

    def test_jobs_flag_is_unknown(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--config", cfg, "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,path,kind", [
        ("--out", "file/out", "a directory"), ("--out", "file", "a directory"),
        ("--dump-module", "missing/dir/m.txt", "a file"), ("--dump-module", ".", "a file"),
        ("--dump-element", "file/e.txt", "a file")])
    def test_unwritable_output_path_exits_two_before_any_task(self, tmp_path, capsys,
                                                              monkeypatch, flag, path, kind):
        # such a path used to end the run in a traceback once every task
        # had run; now it is refused with one error line before the setting
        # is built
        (tmp_path / "file").write_text("")
        cfg = write_cfg(tmp_path)

        def refuse(cfg):
            raise AssertionError("the setting was built")
        monkeypatch.setattr(cli, "build_setting", refuse)
        target = str(tmp_path / path)
        code, out, err = run_cli(capsys, ["run", "--config", cfg, flag, target])
        assert (code, out, err) == (2, "", f"error: {flag} {target} cannot be written as {kind}\n")

    @pytest.mark.parametrize("fmt,name", [
        ("json", "summary.json"), ("json", "verma-scan.json"), ("csv", "summary.csv"),
        ("table", "verma-scan.txt")])
    def test_report_file_that_is_a_directory_exits_two_before_any_task(
            self, tmp_path, capsys, monkeypatch, fmt, name):
        # such a report file used to end the run in an IsADirectoryError once
        # every task had run; each name the tasks and the format will write
        # is now checked before the setting is built
        (tmp_path / "o" / name).mkdir(parents=True)
        cfg = write_cfg(tmp_path)

        def refuse(cfg):
            raise AssertionError("the setting was built")
        monkeypatch.setattr(cli, "build_setting", refuse)
        target = str(tmp_path / "o")
        code, out, err = run_cli(capsys, ["run", "--config", cfg, "--out", target,
                                          "--format", fmt])
        assert (code, out, err) == (
            2, "", f"error: --out {os.path.join(target, name)} cannot be written as a file\n")

    def test_report_names_of_another_format_or_task_leave_the_run_alone(self, tmp_path, capsys):
        for name in ("summary.csv", "kw-verify.json", "summary"):
            (tmp_path / "o" / name).mkdir(parents=True)
        code, out, err = run_cli(capsys, ["run", "--config", write_cfg(tmp_path),
                                          "--out", str(tmp_path / "o")])
        assert (code, out, err) == (0, "", "")
        assert json.loads((tmp_path / "o" / "summary.json").read_text())["passed"] is True

    @pytest.mark.parametrize("name,config", [
        *((name, workloads.make_config(name, 1)) for name in workloads.WORKLOADS),
        *((name, {**slow_checks.BASE, **overrides})
          for name, _, overrides in slow_checks.CONFIGS)])
    def test_configs_the_tools_write_are_valid(self, name, config):
        # the benchmark writes jobs: 1 into every config, so the key stays
        # in the schema
        cli.validate_config(config)

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
        # the graded scan over F_{5^5}: 125 weights in stages; jobs is
        # accepted and has no effect, and the report leaves it out
        chi = {"E(1,1)": 1, "E(2,2)": 1, "E(3,3)": 1}
        reports = [run_cli(capsys, ["run", "--config", write_cfg(
                       tmp_path, m=2, n=1, tasks=["graded-verma-scan"], chi=chi,
                       **jobs)])
                   for jobs in ({}, {"jobs": 1}, {"jobs": 8})]
        assert reports[0][0] == 0 and json.loads(reports[0][1])["passed"] is True
        assert reports[1] == reports[0] and reports[2] == reports[0]

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

    def test_csv_has_a_block_per_scan_task(self, tmp_path, capsys):
        # each scan's block is the CSV of that task alone, in task order;
        # a task without rows writes none
        tasks = ["verma-scan", "structure-check", "graded-verma-scan"]
        alone = [run_cli(capsys, ["run", "--config", write_cfg(tmp_path, f"{t}.json", tasks=[t]),
                                  "--format", "csv"])[1] for t in (tasks[0], tasks[2])]
        cfg = write_cfg(tmp_path, tasks=tasks)
        code, out, _ = run_cli(capsys, ["run", "--config", cfg, "--format", "csv"])
        assert code == 0 and out == "".join(alone) and len(out.splitlines()) == 2 * 26
        assert main(["run", "--config", cfg, "--format", "csv", "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "summary.csv").read_bytes() == out.encode()

    def test_table(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        code, out, _ = run_cli(capsys, ["scan", "--config", cfg,
                                        "--format", "table"])
        assert code == 0 and "[verma-scan] pass" in out

    def test_table_writes_a_record_without_rows_as_its_sorted_json(self, tmp_path, capsys):
        tasks = ["structure-check", "kw-verify", "levi-scan", "frobenius-check",
                 "regular-module-check"]
        cfg = write_cfg(tmp_path, m=2, n=1, chi={"E(2,1)": 1}, tasks=tasks)
        code, out, _ = run_cli(capsys, ["run", "--config", cfg])
        report = json.loads(out)
        assert code == 0 and [t["task"] for t in report["tasks"]] == tasks
        code, table, _ = run_cli(capsys, ["run", "--config", cfg, "--format", "table"])
        assert code == 0 and table == (
            f"glmn {report['library_version']} report\nfield: p=5 k=1 modulus=[0, 1]\n"
            + "".join(f"\n[{t['task']}] pass\n  {json.dumps(t['record'], sort_keys=True)}\n"
                      for t in report["tasks"]))

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

    def test_flags_come_before_or_after_the_command(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, tasks=["structure-check"])
        after = run_cli(capsys, ["scan", "--config", cfg, "--format", "csv"])
        assert after[0] == 0 and after[1].startswith("lambda,")
        assert run_cli(capsys, ["--config", cfg, "--format", "csv", "scan"]) == after
        assert run_cli(capsys, ["--format", "csv", "scan", "--config", cfg]) == after

    def test_help_names_each_commands_tasks(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert ("run: the tasks listed in the config; scan: verma-scan; kw: kw-verify; "
                "levi: levi-scan; check: structure-check") in capsys.readouterr().out

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

    def test_frobenius_gl22(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, m=2, n=2, **{"lambda": [0, 0, 0, 0]},
                        tasks=["frobenius-check"])
        code, out, _ = run_cli(capsys, ["run", "--config", cfg])
        assert code == 0
        rec = json.loads(out)["tasks"][0]["record"]
        assert rec["nondegenerate"] is True and rec["gram_dim"] == 400

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

    def test_regular_module_check_normalizes_chi_that_is_no_character(self, tmp_path,
                                                                       capsys):
        """chi(E31) = 1 on gl(3|1), with E31 = [E32, E21], is no character of
        n-; swapping the basis vectors 2 and 3 takes it to chi(E21) = 1, on
        which the task runs and passes, as at chi(E21) = 1 itself."""
        reports = []
        for name, chi in (("moved.json", {"E(3,1)": 1}), ("standard.json", {"E(2,1)": 1})):
            cfg = write_cfg(tmp_path, name, m=3, n=1, chi=chi, **{"lambda": [0, 0, 0, 0]},
                            tasks=["regular-module-check"])
            code, out, _ = run_cli(capsys, ["run", "--config", cfg])
            assert code == 0
            reports.append(json.loads(out))
        moved, standard = reports
        assert moved["tasks"] == standard["tasks"] and "normalized_chi" not in standard
        swap = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        assert moved["normalized_chi"] == {
            "chi": {"E(2,1)": [1]}, "conjugator": [[[c] for c in row] for row in swap]}

    def test_levi_scan_at_chi_e12_equals_the_golden_rows(self, tmp_path, capsys):
        """chi(E12) = 1 normalizes to chi(E21) = 1, the golden levi-gl21
        config, by the swap of the two even basis vectors: the same rows."""
        golden = json.loads((pathlib.Path(__file__).parent / "golden" / "levi-gl21.json")
                            .read_text())
        cfg = write_cfg(tmp_path, m=2, n=1, chi={"E(1,2)": 1}, tasks=["levi-scan"])
        code, out, _ = run_cli(capsys, ["run", "--config", cfg])
        report = json.loads(out)
        assert code == 0 and report["tasks"] == golden["tasks"]
        assert report["normalized_chi"] == {
            "chi": {"E(2,1)": [1]}, "conjugator": [[[0], [1], [0]], [[1], [0], [0]],
                                                   [[0], [0], [1]]]}
        assert set(report) - set(golden) == {"normalized_chi"}

    def test_kw_verify_at_chi_e12_exits_zero(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, m=2, n=1, chi={"E(1,2)": 1}, tasks=["kw-verify"], seed=1)
        code, out, _ = run_cli(capsys, ["run", "--config", cfg])
        assert code == 0 and json.loads(out)["passed"]

    def test_explicit_lambda_is_read_against_the_normalized_chi(self, tmp_path, capsys):
        """chi(E11) = chi(E12) = 1 on gl(2|1) over F_{5^5}: its even block has
        eigenvalues 0 and 1, so the normalized chi is diag(0, 1, 0).  A
        lambda with lambda_2^5 - lambda_2 = 1 and lambda_1 = 0 lies in its
        X^chi and is accepted; with the two swapped, as the configured chi
        would need, it is refused."""
        r = artin_schreier_roots(make_field(5, 5), 1)[0].coeffs
        for lam, code in (([0, r, 0], 0), ([r, 0, 0], 2)):
            cfg = write_cfg(tmp_path, m=2, n=1, field_degree=5,
                            chi={"E(1,1)": 1, "E(1,2)": 1}, **{"lambda": lam})
            got, out, err = run_cli(capsys, ["run", "--config", cfg])
            assert got == code
            if code:
                assert err == "error: lambda does not lie in the weight variety of chi\n"
            else:
                assert json.loads(out)["normalized_chi"]["chi"] == {"E(2,2)": [1, 0, 0, 0, 0]}

    def test_build_setting_takes_one_parameter(self):
        # the benchmark's child wraps build_setting with one positional argument
        assert list(inspect.signature(cli.build_setting).parameters) == ["cfg"]


def run_python(*args):
    """A fresh interpreter with glmn on its path; its completed process."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)


def read_dir(path):
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


class TestExitHook:
    """glmn.cli registers gc.freeze with atexit at import, once, so that a
    run's exit skips collecting the import heap."""

    def test_later_exit_handlers_see_the_heap_frozen(self):
        # atexit runs its handlers last registered first
        code = ("import atexit, gc\n"
                "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
                "import glmn.cli\n"
                "print(gc.get_freeze_count())\n")
        assert run_python("-c", code).stdout.split() == ["0", "True"]

    def test_only_the_cli_registers_a_handler(self):
        code = ("import atexit, numpy\n"
                "n = atexit._ncallbacks()\n"
                "import glmn, glmn.analysis, glmn.kw, glmn.verma\n"
                "print(atexit._ncallbacks() - n)\n"
                "import glmn.cli\n"
                "print(atexit._ncallbacks() - n)\n")
        assert run_python("-c", code).stdout.split() == ["0", "1"]

    @pytest.mark.parametrize("entry", ["main", "module"])
    def test_reports_of_a_fresh_interpreter_match_in_process(self, tmp_path,
                                                             capsys, entry):
        cfg = write_cfg(tmp_path, m=2, n=1, chi={"E(2,1)": 1},
                        tasks=["verma-scan", "levi-scan"])
        argv = ["run", "--config", cfg]
        code, want, _ = run_cli(capsys, argv)
        assert code == 0
        main(argv + ["--out", str(tmp_path / "want")])
        start = (["-c", "import sys; from glmn.cli import main; sys.exit(main())"]
                 if entry == "main" else ["-m", "glmn.cli"])
        assert run_python(*start, *argv).stdout == want
        run_python(*start, *argv, "--out", str(tmp_path / "got"))
        files = read_dir(tmp_path / "want")
        assert len(files) == 3 and read_dir(tmp_path / "got") == files
