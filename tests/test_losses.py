import math

import pytest

from fmux.losses import (
    LossEntry,
    LossTable,
    arm_efficiency,
    format_reconciliation,
    load_loss_table,
    reconcile,
    reference_loss_table,
    write_loss_table,
)
from fmux.scenarios import load_config

CFG = load_config("loss-budget")


def test_reference_budget_totals():
    table = CFG.loss_table()
    assert math.isclose(table.total_db("signal"), 8.97, abs_tol=1e-9)
    assert math.isclose(table.total_db("herald"), 9.23, abs_tol=1e-9)
    assert math.isclose(arm_efficiency(table, "signal"), 10 ** -0.897, rel_tol=1e-12)
    assert math.isclose(arm_efficiency(table, "herald"), 10 ** -0.923, rel_tol=1e-12)


def test_reference_budget_meets_measured_arms():
    table = CFG.loss_table()
    assert abs(arm_efficiency(table, "signal") - 0.13) < 0.005
    assert abs(arm_efficiency(table, "herald") - 0.12) < 0.005


def test_shared_entries_count_in_both_arms():
    table = LossTable((
        LossEntry("crystal", 1.0, "both"),
        LossEntry("delay", 2.0, "signal"),
        LossEntry("grating", 3.0, "herald"),
    ))
    assert table.total_db("signal") == 3.0
    assert table.total_db("herald") == 4.0


def test_three_db_is_half():
    table = LossTable((LossEntry("splitter", 10.0 * math.log10(2.0), "signal"),))
    assert math.isclose(arm_efficiency(table, "signal"), 0.5, rel_tol=1e-12)


def test_entry_validation():
    with pytest.raises(ValueError):
        LossEntry("bad", -1.0, "signal")
    with pytest.raises(ValueError):
        LossEntry("bad", 1.0, "pump")


def test_reconcile_reference_point():
    report = reconcile(CFG.loss_table(), (0.13, 0.12), CFG.get("losses.tolerance"))
    for arm in ("signal", "herald"):
        assert report[arm]["within_tolerance"]
        assert abs(report[arm]["absolute_difference"]) < 0.005
    text = format_reconciliation(report)
    assert "signal" in text and "herald" in text and "ok" in text


def test_reconcile_flags_discrepancy():
    report = reconcile(CFG.loss_table(), (0.25, 0.12), CFG.get("losses.tolerance"))
    assert not report["signal"]["within_tolerance"]
    assert report["signal"]["absolute_difference"] > 0
    assert "DISCREPANT" in format_reconciliation(report)


def test_reconcile_rejects_unphysical_klyshko():
    with pytest.raises(ValueError):
        reconcile(CFG.loss_table(), (0.0, 0.12), CFG.get("losses.tolerance"))


def test_detector_assumption_is_load_bearing():
    # reading the detector spec pessimistically breaks the 0.005 agreement
    table = reference_loss_table(snspd_db=1.08)
    assert abs(arm_efficiency(table, "signal") - 0.13) > 0.005


def test_round_trip_csv(tmp_path):
    table = CFG.loss_table()
    path = tmp_path / "losses.csv"
    write_loss_table(table, path)
    back = load_loss_table(path)
    assert back.entries == table.entries


def test_load_skips_header_and_comments(tmp_path):
    path = tmp_path / "handwritten.csv"
    path.write_text(
        "component,loss_db,arm\n"
        "# calibrated 2024-06\n"
        "crystal,0.82,both\n"
        "splitter,3.0,signal\n"
    )
    table = load_loss_table(path)
    assert len(table.entries) == 2
    assert table.total_db("signal") == pytest.approx(3.82)


def test_load_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("component,loss_db,arm\n")
    with pytest.raises(ValueError):
        load_loss_table(path)
