"""The old-vs-new CSV comparison tool on two tiny trial CSVs."""

import pytest

import csv_compare

HEADER = "# mixedmg trial records, columns v1\nn,kappa,eta_N,trial,fp_error,ratio_rhs_quantize,passed\n"
OLD = HEADER + "7,100.0,1.5,0,0.25,0.5,True\n7,100.0,1.5,1,0.0,0.125,True\n"
NEW = HEADER + "7,100.0,1.5000000003,0,0.25,0.5,True\n7,100.0,1.5000000003,1,0.0,0.25,True\n"


def test_identical_files():
    cmp = csv_compare.compare(OLD, OLD)
    assert cmp.rows == (2, 2) and cmp.same_flags and cmp.identical
    assert set(cmp.gaps.values()) == {0.0}


def test_worst_gap_per_column_group():
    cmp = csv_compare.compare(OLD, NEW)
    assert cmp.rows == (2, 2) and cmp.same_flags and not cmp.identical
    assert cmp.gaps["kappa"] == 0.0
    assert cmp.gaps["eta_N"] == pytest.approx(2e-10, rel=1e-6)
    assert cmp.gaps["ratio_rhs_quantize"] == 0.5  # 0.125 -> 0.25
    assert cmp.gaps["fp_error"] == 0.0  # both zero in the second row
    assert "trial" not in cmp.gaps and cmp.gaps["n"] == 0.0  # n is a report column
    assert cmp.worst(csv_compare.REPORT_COLUMNS) == (cmp.gaps["eta_N"], "eta_N")
    row = csv_compare.summary_row("tiny", cmp)
    assert row.startswith("| tiny | 2 / 2 | same | False | 2e-10 (eta_N) | 0.5 (ratio_rhs_quantize) |")


def test_flag_and_row_changes_are_reported(tmp_path, capsys):
    flipped = OLD.replace("0.125,True", "0.125,False")
    assert not csv_compare.compare(OLD, flipped).same_flags
    shorter = OLD.rsplit("7,", 1)[0]
    cmp = csv_compare.compare(OLD, shorter)
    assert cmp.rows == (2, 1) and not cmp.same_flags
    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    (tmp_path / "old" / "a.csv").write_text(OLD)
    (tmp_path / "new" / "a.csv").write_text(flipped)
    assert csv_compare.main([str(tmp_path / "old"), str(tmp_path / "new"), "--columns"]) == 1
    out = capsys.readouterr().out
    assert "| a | 2 / 2 | DIFFERENT | False |" in out
    assert "| eta_N | 0 |" in out
    # a single file pair is named by the old file's stem
    assert csv_compare.main([str(tmp_path / "old" / "a.csv"), str(tmp_path / "new" / "a.csv")]) == 1
    assert "| a | 2 / 2 | DIFFERENT | False |" in capsys.readouterr().out
