"""The import graph of glmn.

Every name a glmn module imports is used in that module (the package's
__init__.py is left out: it imports to re-export), and a fresh interpreter
that imports glmn.cli, runs a config or refuses a prime p over the field
budget, loads neither sympy nor a process pool; nor does one that runs the
benchmark's gated configs, as perfbench.workloads.make_config writes them.
OpenSSL (hashlib) is loaded only by a task that draws a seed (task_seed),
whose values are pinned here.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from _tools import workloads

SRC = Path(__file__).resolve().parents[1] / "src" / "glmn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names bound by import statements and never read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import os\nfrom sys import argv, path\nprint(path)\n"
    assert unused_imports(source) == [(1, "os"), (2, "argv")]


HEAVY = ("sympy", "multiprocessing", "concurrent.futures")
OPENSSL = ("hashlib", "_hashlib")


def heavy_modules_after(code, heavy=HEAVY):
    """The modules of heavy loaded once a fresh interpreter has run code."""
    probe = (f"import sys\n{code}\n"
             f"print([m for m in {heavy!r} if m in sys.modules])")
    env = {k: v for k, v in os.environ.items() if not k.startswith("GLMN_")}
    env["PYTHONPATH"] = str(SRC.parent)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()[-1]


def test_import_loads_no_sympy_and_no_pool():
    assert heavy_modules_after("import glmn.cli") == "[]"


def test_jobs_one_run_loads_no_sympy_and_no_pool(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 5, "m": 1, "n": 1, "jobs": 1, "seed": 0,
                               "tasks": ["verma-scan", "kw-verify"]}))
    code = ("from glmn.cli import main\n"
            f"assert main(['run', '--config', {str(cfg)!r}]) == 0")
    assert heavy_modules_after(code) == "[]"


def test_prime_over_the_field_budget_loads_no_sympy(tmp_path):
    # 2^89 - 1 is prime: the field budget refuses it before any primality test
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 2 ** 89 - 1, "m": 1, "n": 1}))
    code = ("from glmn.cli import main\n"
            f"assert main(['run', '--config', {str(cfg)!r}]) == 2")
    assert heavy_modules_after(code) == "[]"


@pytest.mark.parametrize("name", ["levi-gl21", "graded-gl21-ext"])
def test_benchmark_configs_load_no_masked_arrays_and_no_pool(tmp_path, name):
    # the benchmark's two gated configs, run as its children run them: the
    # first np.unique, np.isin or np.setdiff1d imports numpy.ma, which costs
    # a run's set-up time and heap
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(workloads.make_config(name, 1)))
    probe = ("import sys\nfrom glmn.cli import main\n"
             f"assert main(['run', '--config', {str(cfg)!r}]) == 0\n"
             "print([m for m in ('numpy.ma', 'multiprocessing', "
             "'concurrent.futures.process') if m in sys.modules])")
    env = {k: v for k, v in os.environ.items() if not k.startswith("GLMN_")}
    env["PYTHONPATH"] = str(SRC.parent)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_import_loads_no_openssl():
    assert heavy_modules_after("import glmn.cli", OPENSSL) == "[]"


def test_graded_benchmark_config_loads_no_openssl(tmp_path):
    # it draws no seed, so it never needs hashlib's 3.6 MB of libcrypto
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(workloads.make_config("graded-gl21-ext", 1)))
    code = ("from glmn.cli import main\n"
            f"assert main(['run', '--config', {str(cfg)!r}]) == 0")
    assert heavy_modules_after(code, OPENSSL) == "[]"


def test_levi_benchmark_config_loads_openssl_only_in_its_task(tmp_path):
    # the levi scan samples its weights by task_seed: hashlib is loaded then,
    # and not by the import or the set-up before it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(workloads.make_config("levi-gl21", 1)))
    code = ("from glmn import cli\n"
            "runner, seen = cli.TASK_RUNNERS['levi-scan'], []\n"
            "def levi(*args):\n"
            f"    seen.append([m for m in {OPENSSL!r} if m in sys.modules])\n"
            "    return runner(*args)\n"
            "cli.TASK_RUNNERS['levi-scan'] = levi\n"
            f"assert cli.main(['run', '--config', {str(cfg)!r}]) == 0\n"
            "assert seen == [[]], seen")
    assert heavy_modules_after(code, OPENSSL) == str(list(OPENSSL))


@pytest.mark.parametrize("seed,label,value", [
    (0, "structure", 4754898370274654213), (1, "levi", 14698749065569597492),
    (3, "kw", 10509860370998334775), (7, "levi", 6474553887307760717),
    (3601, "levi", 8735897328289440431)])
def test_task_seeds_are_pinned(seed, label, value):
    # the sampled weights and structure samples of every seeded report
    # follow from these values
    from glmn.cli import task_seed
    assert task_seed(seed, label) == value
