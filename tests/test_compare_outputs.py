"""The per-column report `scripts/compare_outputs.py` prints under a CSV that differs."""

import importlib.util
import math
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def write_pair(tmp_path, ours: str, theirs: str):
    (tmp_path / "ours").mkdir()
    (tmp_path / "theirs").mkdir()
    a, b = tmp_path / "ours" / "out.csv", tmp_path / "theirs" / "out.csv"
    a.write_text(ours)
    b.write_text(theirs)
    return a, b


def test_named_columns_report_their_largest_relative_difference(tmp_path):
    a, b = write_pair(tmp_path,
                      "g,fdr,kl_per_dim\n0.1,0.05,2.0\n1.0,0.04,1.0000000000001\n",
                      "g,fdr,kl_per_dim\n0.1,0.05,2.000000000001\n1.0,0.04,1.0\n")
    diffs = compare_outputs.column_differences(a, b)
    assert list(diffs) == ["kl_per_dim"]
    assert math.isclose(diffs["kl_per_dim"], 5e-13, rel_tol=1e-3)


def test_unnamed_columns_text_and_shape(tmp_path):
    # gen-cov's header is one comment cell, so columns are named by index.
    a, b = write_pair(tmp_path, "# covariance m=2\n1.0,0.5\n0.5,1.0\n",
                      "# covariance m=2\n1.0,0.25\nnan,1.0\n")
    assert compare_outputs.column_differences(a, b) == {"column 1": 0.5, "column 0": math.inf}
    a.write_text("# covariance m=2\n1.0,0.5\n")
    assert compare_outputs.column_differences(a, b) == {"shape": math.inf}


def test_compare_prints_each_differing_column(tmp_path, capsys):
    write_pair(tmp_path, "x,y\n1.0,2.0\n", "x,y\n1.0,4.0\n")
    assert not compare_outputs.compare("req", tmp_path / "ours", tmp_path / "theirs")
    assert capsys.readouterr().out.splitlines() == [
        "DIFFERS    req/out.csv",
        "             y: max relative difference 0.5",
    ]
