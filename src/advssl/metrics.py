"""Classification metrics: confusion matrices, per-class and macro P/R/F1.

Macro averages are unweighted means over classes with nonzero support;
micro and support-weighted variants are included in reports for
transparency. Any zero-denominator metric is defined as 0 and flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # (m, m) int64; entry (i, j) = true class i predicted j

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValueError(f"confusion matrix must be square, got {self.counts.shape}")
        if (self.counts < 0).any():
            raise ValueError("confusion matrix counts must be nonnegative")


def confusion_matrix(y_true, y_pred, num_classes: int) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError(
            f"length mismatch: {y_true.shape[0]} true vs {y_pred.shape[0]} predicted"
        )
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    if y_true.size:
        if y_true.min() < 0 or y_true.max() >= num_classes:
            raise ValueError(f"true class out of range [0, {num_classes})")
        if y_pred.min() < 0 or y_pred.max() >= num_classes:
            raise ValueError(f"predicted class out of range [0, {num_classes})")
        np.add.at(counts, (y_true, y_pred), 1)
    return ConfusionMatrix(counts)


@dataclass
class MetricsReport:
    precision: np.ndarray  # per class
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray  # true rows per class
    zero_division: np.ndarray  # bool per class: some denominator was 0
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_f1: float
    accuracy: float

    def to_dict(self) -> dict:
        return {
            "per_class": {
                "precision": self.precision.tolist(),
                "recall": self.recall.tolist(),
                "f1": self.f1.tolist(),
                "support": self.support.tolist(),
                "zero_division": self.zero_division.astype(int).tolist(),
            },
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "micro_f1": self.accuracy,  # single-label multiclass: micro-F1 is accuracy
            "weighted_f1": self.weighted_f1,
            "accuracy": self.accuracy,
        }


def classification_report(cm: ConfusionMatrix) -> MetricsReport:
    """Per-class precision/recall/F1 plus macro/micro/weighted summaries.

    precision_k = cm[k,k] / column_k, recall_k = cm[k,k] / row_k, F1 the
    harmonic mean; macro averages run over classes with support > 0 only.
    """
    counts = cm.counts.astype(np.float64)
    total = counts.sum()
    if total <= 0:
        raise ValueError("cannot report on an empty confusion matrix")
    diag = np.diag(counts)
    col = counts.sum(axis=0)
    row = counts.sum(axis=1)
    zero_division = (col == 0) | (row == 0)
    precision = np.where(col > 0, diag / np.where(col > 0, col, 1.0), 0.0)
    recall = np.where(row > 0, diag / np.where(row > 0, row, 1.0), 0.0)
    pr = precision + recall
    f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
    zero_division = zero_division | (pr == 0)

    present = row > 0
    accuracy = float(diag.sum() / total)
    support_frac = row[present] / row[present].sum()
    return MetricsReport(
        precision=precision,
        recall=recall,
        f1=f1,
        support=row.astype(np.int64),
        zero_division=zero_division,
        macro_precision=float(precision[present].mean()),
        macro_recall=float(recall[present].mean()),
        macro_f1=float(f1[present].mean()),
        weighted_f1=float((f1[present] * support_frac).sum()),
        accuracy=accuracy,
    )


def macro_f1_score(y_true, y_pred, num_classes: int) -> float:
    return classification_report(confusion_matrix(y_true, y_pred, num_classes)).macro_f1


def aggregate_runs(reports: list[MetricsReport]) -> dict:
    """Mean and sample (n-1) standard deviation of the summary metrics; the
    std of one run is 0.0."""
    if not reports:
        raise ValueError("need at least 1 report to aggregate")
    m = reports[0].precision.shape[0]
    if any(r.precision.shape[0] != m for r in reports):
        raise ValueError("reports disagree on the number of classes")
    out = {}
    for name in ("macro_precision", "macro_recall", "macro_f1", "weighted_f1", "accuracy"):
        vals = np.asarray([getattr(r, name) for r in reports], dtype=np.float64)
        std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        out[name] = {"mean": float(vals.mean()), "std": std}
    out["runs"] = len(reports)
    return out
