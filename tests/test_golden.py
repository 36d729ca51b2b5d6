"""Byte-for-byte golden reports of `glmn run` for a fixed set of configs.

These reports are the behaviour contract that lets the kernels under them
be rewritten: any change in a verdict, a value or the report layout shows
as a diff against tests/golden/.  After an intended change of the output,
regenerate the files with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

import pytest

from glmn.cli import ENV_OVERRIDES, main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# name -> (config, also write the --dump-element file)
CONFIGS = {
    "verma-scan-gl21-chi0": (
        {"p": 5, "m": 2, "n": 1, "chi": {}, "lambda": "scan-all-X",
         "tasks": ["verma-scan"], "seed": 0}, False),
    # chi(h) != 0 extends the field to F_{5^5}
    "graded-gl11-diag": (
        {"p": 5, "m": 1, "n": 1, "chi": {"E(1,1)": 1, "E(2,2)": 1},
         "lambda": "scan-all-X", "tasks": ["graded-verma-scan"],
         "seed": 0}, False),
    # gl(2|1) has an even root: the even-part Vermas, their simple heads
    # and the g_0bar-module check run on every weight, over F_{5^5}
    "graded-gl21-diag": (
        {"p": 5, "m": 2, "n": 1,
         "chi": {"E(1,1)": 1, "E(2,2)": 1, "E(3,3)": 1},
         "lambda": "scan-all-X", "tasks": ["graded-verma-scan"],
         "seed": 0}, False),
    "kw-gl11": (
        {"p": 5, "m": 1, "n": 1, "chi": {"E(1,1)": 1},
         "lambda": "scan-all-X", "tasks": ["kw-verify"], "seed": 0}, False),
    "levi-gl21": (
        {"p": 5, "m": 2, "n": 1, "chi": {"E(2,1)": 1},
         "lambda": "scan-all-X", "tasks": ["levi-scan"], "seed": 7}, True),
}


def run_config(name, workdir):
    """(report text, element dump text or None) of one golden config."""
    cfg, dump = CONFIGS[name]
    workdir = pathlib.Path(workdir)
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(cfg))
    argv = ["run", "--config", str(path)]
    element = workdir / f"{name}.element.txt"
    if dump:
        argv += ["--dump-element", str(element)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"{name} exited {code}"
    return out.getvalue(), element.read_text() if dump else None


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    for env in ENV_OVERRIDES:
        monkeypatch.delenv(env, raising=False)
    report, element = run_config(name, tmp_path)
    assert report == (GOLDEN / f"{name}.json").read_text()
    if element is not None:
        assert element == (GOLDEN / f"{name}.element.txt").read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    for env in ENV_OVERRIDES:
        os.environ.pop(env, None)
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CONFIGS):
            report, element = run_config(name, tmp)
            (GOLDEN / f"{name}.json").write_text(report)
            if element is not None:
                (GOLDEN / f"{name}.element.txt").write_text(element)
            print(f"wrote {name}")
