"""The import graph of glmn.

Every name a glmn module imports is used in that module (the package's
__init__.py is left out: it imports to re-export), and a fresh interpreter
that imports glmn.cli, runs a config or refuses a prime p over the field
budget, loads neither sympy nor a process pool; nor does one that runs the
benchmark's gated configs, as perfbench.workloads.make_config writes them.
No run loads OpenSSL (hashlib), not even one that draws a seed: task_seed,
whose values are pinned here, takes SHA-256 from CPython's own module.
"""

import ast
import hashlib
import json
import os
import random
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


# configs whose tasks draw a seed (task_seed): the gated levi-gl21, kw-verify's
# weight sample over the 125 weights of gl(2|1) and structure-check's
# random elements
SEEDED = {"levi-gl21": workloads.make_config("levi-gl21", 1),
          "kw-gl21": {"p": 5, "m": 2, "n": 1, "tasks": ["kw-verify"], "seed": 3},
          "structure-gl21": {"p": 5, "m": 2, "n": 1, "tasks": ["structure-check"], "seed": 3}}


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_seeded_configs_load_no_openssl(tmp_path, name):
    # task_seed takes SHA-256 from CPython's own module, so the run neither
    # imports hashlib nor maps OpenSSL's libcrypto
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SEEDED[name]))
    probe = ("import sys\nfrom glmn import cli\n"
             "seed, drawn = cli.task_seed, []\n"
             "cli.task_seed = lambda *args: drawn.append(args) or seed(*args)\n"
             f"assert cli.main(['run', '--config', {str(cfg)!r}]) == 0 and drawn\n"
             "with open('/proc/self/maps') as fh:\n"
             "    crypto = ['libcrypto'] * ('libcrypto' in fh.read())\n"
             f"print([m for m in {OPENSSL!r} if m in sys.modules] + crypto)")
    env = {k: v for k, v in os.environ.items() if not k.startswith("GLMN_")}
    env["PYTHONPATH"] = str(SRC.parent)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_task_seed_is_the_head_of_sha256():
    # hashlib is the oracle here only: 200 (seed, label) pairs, with seeds
    # beyond 64 bits and below zero and labels beyond ASCII
    rng = random.Random(39)
    alphabet = "levikwstructure:-_ 0123456789λχ∂é日本🙂\u00ff\U0010ffff"
    from glmn.cli import task_seed
    for t in range(200):
        seed = rng.choice([t, rng.randrange(-2 ** 70, 2 ** 70), rng.randrange(2 ** 300)])
        label = "".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
        digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
        assert task_seed(seed, label) == int.from_bytes(digest[:8], "big"), (seed, label)


@pytest.mark.parametrize("seed,label,value", [
    (0, "structure", 4754898370274654213), (1, "levi", 14698749065569597492),
    (3, "kw", 10509860370998334775), (7, "levi", 6474553887307760717),
    (3601, "levi", 8735897328289440431)])
def test_task_seeds_are_pinned(seed, label, value):
    # the sampled weights and structure samples of every seeded report
    # follow from these values
    from glmn.cli import task_seed
    assert task_seed(seed, label) == value
