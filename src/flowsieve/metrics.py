"""Confusion-matrix accounting and the per-class detection report.

Rates follow the standard definitions: ACC = (TP+TN)/total, DR (recall) =
TP/(TP+FN), FPR = FP/(FP+TN), PPV (precision) = TP/(TP+FP). A 0/0 rate is
an explicit undefined marker, rendered as "-", never silently zero.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Sequence

import numpy as np

UNDEFINED_CELL = "-"

# Report rows, in presentation order. Class 1 = Tor, class 0 = NonTor.
REPORT_ROWS = (
    ("dr_tor", "DR (Tor) %"),
    ("fpr_tor", "FPR (Tor) %"),
    ("ppv_tor", "PPV (Tor) %"),
    ("dr_nontor", "DR (nonTor) %"),
    ("fpr_nontor", "FPR (nonTor) %"),
    ("ppv_nontor", "PPV (nonTor) %"),
    ("overall_acc", "Overall ACC. %"),
)

# Published comparison values for the C4.5 baseline; these are reported
# numbers, not computed by this toolkit, and are labeled as such.
C45_REPORTED = {
    "dr_tor": 93.4,
    "fpr_tor": None,
    "ppv_tor": 94.8,
    "dr_nontor": 99.2,
    "fpr_nontor": None,
    "ppv_nontor": 99.4,
    "overall_acc": None,
}
C45_COLUMN_NAME = "C4.5 (reported, not computed)"


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class Rates:
    """Fractions in [0, 1]; None marks an undefined (0/0) rate."""

    acc: float | None
    dr: float | None
    fpr: float | None
    ppv: float | None


def confusion(predictions: Sequence[int], labels: Sequence[int],
              positive_class: int) -> ConfusionMatrix:
    if len(predictions) != len(labels):
        raise ValueError(f"length mismatch: {len(predictions)} vs {len(labels)}")
    if len(labels) == 0:
        raise ValueError("need at least one example")
    pred_pos = np.asarray(predictions) == positive_class
    label_pos = np.asarray(labels) == positive_class
    tp = int(np.count_nonzero(pred_pos & label_pos))
    fp = int(np.count_nonzero(pred_pos)) - tp
    fn = int(np.count_nonzero(label_pos)) - tp
    return ConfusionMatrix(tp=tp, tn=len(labels) - tp - fp - fn, fp=fp, fn=fn)


def _ratio(num: int, den: int) -> float | None:
    return None if den == 0 else num / den


def rates(cm: ConfusionMatrix) -> Rates:
    return Rates(
        acc=_ratio(cm.tp + cm.tn, cm.total),
        dr=_ratio(cm.tp, cm.tp + cm.fn),
        fpr=_ratio(cm.fp, cm.fp + cm.tn),
        ppv=_ratio(cm.tp, cm.tp + cm.fp),
    )


def build_report(predictions: Sequence[int],
                 labels: Sequence[int]) -> dict[str, float | None]:
    """Unrounded percentages for the seven report rows (None = undefined):
    per-class DR/FPR/PPV with each class treated as positive in turn, plus
    the shared overall accuracy. The table is counted once, with Tor
    positive; nonTor's rates read the same counts with the roles swapped."""
    cm = confusion(predictions, labels, positive_class=1)
    tor, nontor = rates(cm), rates(ConfusionMatrix(tp=cm.tn, tn=cm.tp, fp=cm.fn, fn=cm.fp))

    def pct(v: float | None) -> float | None:
        return None if v is None else 100.0 * v

    return {
        "dr_tor": pct(tor.dr),
        "fpr_tor": pct(tor.fpr),
        "ppv_tor": pct(tor.ppv),
        "dr_nontor": pct(nontor.dr),
        "fpr_nontor": pct(nontor.fpr),
        "ppv_nontor": pct(nontor.ppv),
        "overall_acc": pct(tor.acc),
    }


def round_percent(value: float) -> float:
    """Round half away from zero to one decimal place."""
    return float(Decimal(repr(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def format_percent(value: float | None) -> str:
    if value is None:
        return UNDEFINED_CELL
    return f"{round_percent(value):.1f}"


def check_column_name(name: str) -> str:
    """`name` if it can head a report column. A line break would split the
    header row of both reports, so it raises ValueError."""
    if "\n" in name or "\r" in name:
        raise ValueError(f"line break in column name {name!r}")
    return name


def _rows(columns: dict[str, dict], include_reference: bool,
          corner: str) -> list[list[str]]:
    """Header row, then one row of formatted cells per report metric."""
    cols = dict(columns)
    if include_reference:
        cols[C45_COLUMN_NAME] = C45_REPORTED
    return [[corner, *map(check_column_name, cols)]] + [
        [label] + [format_percent(report[key]) for report in cols.values()]
        for key, label in REPORT_ROWS]


def render_table(columns: dict[str, dict],
                 include_reference: bool = False) -> str:
    """Aligned plain-text comparison table, one column per model."""
    rows = _rows(columns, include_reference, "PERFORMANCE")
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "".join("  ".join(cell.ljust(width)
                             for cell, width in zip(row, widths)).rstrip() + "\n"
                   for row in rows)


def render_csv(columns: dict[str, dict],
               include_reference: bool = False) -> str:
    """Comparison table as CSV, one column per model, quoted by the csv module."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        _rows(columns, include_reference, "metric"))
    return out.getvalue()


def parse_report_csv(text: str) -> dict[str, dict[str, float | None]]:
    """Re-parse render_csv output back into per-column rounded values."""
    rows = list(csv.reader(io.StringIO(text)))
    names = rows[0][1:]
    label_to_key = {label: key for key, label in REPORT_ROWS}
    out: dict[str, dict[str, float | None]] = {n: {} for n in names}
    for row in rows[1:]:
        key = label_to_key[row[0]]
        for name, cell in zip(names, row[1:]):
            out[name][key] = None if cell == UNDEFINED_CELL else float(cell)
    return out
