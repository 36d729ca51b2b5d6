"""tools/report_diff.py, on two of its 163 configs: a tree has no
difference from itself, also when named by a relative path, and a copy
whose JSON reports carry another schema_version differs from it on stdout
and in both --out files."""

import re
import shutil

from _tools import ROOT, report_diff

NAMES = ("gl11-p5-chi0-verma-scan-json", "gl21-p5-E21-graded-verma-scan-table")


def test_a_tree_has_no_difference_from_itself(capsys, monkeypatch):
    configs = [c for c in report_diff.CONFIGS if c[0] in NAMES]
    assert len(report_diff.CONFIGS) == 163 and len(configs) == 2
    monkeypatch.setattr(report_diff, "CONFIGS", configs)
    assert report_diff.main([str(ROOT), str(ROOT)]) == 0
    assert capsys.readouterr().out == "2 configs, each to stdout and under --out: 0 differences\n"


def test_an_altered_report_is_found(tmp_path, capsys, monkeypatch):
    altered = tmp_path / "tree"
    shutil.copytree(ROOT / "src" / "glmn", altered / "src" / "glmn",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = altered / "src" / "glmn" / "cli.py"
    cli.write_text(cli.read_text().replace('"schema_version": 3', '"schema_version": 4'))
    monkeypatch.setattr(report_diff, "CONFIGS", [c for c in report_diff.CONFIGS if c[0] in NAMES])
    assert report_diff.main([str(ROOT), str(altered)]) == 1
    lines = capsys.readouterr().out.splitlines()
    diff = "differs at byte N: b'3,\\n  \"tasks\": [\\n' != b'4,\\n  \"tasks\": [\\n'"
    assert [re.sub(r"byte \d+", "byte N", line) for line in lines] == [
        f"{NAMES[0]} stdout: stdout {diff}",
        f"{NAMES[0]} --out: --out summary.json {diff}",
        f"{NAMES[0]} --out: --out verma-scan.json {diff}",
        "2 configs, each to stdout and under --out: 3 differences"]


def test_a_relative_parent_runs_from_the_childrens_directory(tmp_path, capsys, monkeypatch):
    # each child runs in a temporary directory, where a relative src path
    # would not find glmn: every run of the parent would differ
    shutil.copytree(ROOT / "src" / "glmn", tmp_path / "parent" / "src" / "glmn",
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(report_diff, "CONFIGS", [c for c in report_diff.CONFIGS if c[0] in NAMES])
    assert report_diff.main(["parent"]) == 0
    assert capsys.readouterr().out == "2 configs, each to stdout and under --out: 0 differences\n"
