"""tools/slow_checks.py in pair mode, on graded-gl31-lam0431 (about 0.3 s a
run): two copies of one tree give a record of every figure with equal
reports, and a copy whose report differs makes it exit 1."""

import json
import shutil

from _tools import ROOT, slow_checks

NAME = "graded-gl31-lam0431"


def copy_tree(target, edit=None):
    shutil.copytree(ROOT / "src" / "glmn", target / "src" / "glmn",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if edit:
        cli = target / "src" / "glmn" / "cli.py"
        cli.write_text(edit(cli.read_text()))
    return str(target)


def test_two_copies_of_one_tree_give_a_full_record(tmp_path, capsys):
    parent, tree = copy_tree(tmp_path / "parent"), copy_tree(tmp_path / "tree")
    record = tmp_path / "record.json"
    assert slow_checks.main([tree, "--parent", parent, "--pairs", "2", "--only", NAME,
                             "--record", str(record)]) == 0
    got = json.loads(record.read_text())
    assert (got["parent"], got["tree"], got["pairs"], list(got["configs"])) == (
        parent, tree, 2, [NAME])
    entry = got["configs"][NAME]
    assert entry["differences"] == 0
    for side in ("parent", "tree"):
        for metric in ("wall_s", "peak_rss_mb"):
            runs, spread = entry["runs"][side][metric], entry[side][metric]
            assert len(runs) == 2 and all(v > 0 for v in runs)
            assert min(runs) <= spread["q1"] <= spread["median"] <= spread["q3"] <= max(runs)
    assert all(0 <= entry["lower"][m] <= 2 for m in ("wall_s", "peak_rss_mb"))
    out = capsys.readouterr().out
    assert out.startswith(f"{NAME}: 2 pairs, 0 report differences\n") and "tree lower in" in out


def test_a_differing_report_exits_1(tmp_path, capsys):
    parent = copy_tree(tmp_path / "parent")
    tree = copy_tree(tmp_path / "tree", lambda text: text.replace('"schema_version": 3',
                                                                   '"schema_version": 4'))
    assert slow_checks.main([tree, "--parent", parent, "--pairs", "1", "--only", NAME]) == 1
    captured = capsys.readouterr()
    assert f"{NAME} pair 1: the reports differ" in captured.err
    assert f"{NAME}: 1 pairs, 1 report differences" in captured.out
