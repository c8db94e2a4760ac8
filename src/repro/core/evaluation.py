"""Pair-level precision / recall / F1 against the ground truth.

The paper reports percentages; so do we. A proposed pair counts as a
true positive iff it appears verbatim in the ground truth (clean-clean
ER: the ground truth is a partial 1-1 mapping between the KBs).
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame


@dataclass(frozen=True)
class PRF:
    """Precision / recall / F1 in percent, plus the raw counts."""

    precision: float
    recall: float
    f1: float
    n_matches: int
    n_gt: int
    n_correct: int

    @classmethod
    def from_counts(cls, n_correct: int, n_matches: int, n_gt: int) -> PRF:
        """The one P/R/F1 formula; every empty denominator scores 0."""
        p = 100.0 * n_correct / n_matches if n_matches else 0.0
        r = 100.0 * n_correct / n_gt if n_gt else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        return cls(p, r, f1, n_matches, n_gt, n_correct)

    def row(self) -> dict[str, float]:
        return {
            "precision": round(self.precision, 2),
            "recall": round(self.recall, 2),
            "f1": round(self.f1, 2),
        }


def evaluate(matches: DataFrame, gt: DataFrame) -> PRF:
    """Score a set of proposed ``(eid1, eid2)`` pairs against ``gt``."""
    pairs = matches.select("eid1", "eid2").distinct()
    n_m = pairs.count()
    n_gt = gt.select("eid1", "eid2").distinct().count()
    n_ok = pairs.join(gt, ["eid1", "eid2"]).count()
    return PRF.from_counts(n_ok, n_m, n_gt)


def evaluate_pdf(pred: pd.DataFrame, gt: pd.DataFrame) -> PRF:
    """``evaluate`` for the driver-side baselines' pandas pairs (1-1, no duplicates)."""
    n_ok = len(pred.merge(gt, on=["eid1", "eid2"])) if len(pred) and len(gt) else 0
    return PRF.from_counts(n_ok, len(pred), len(gt))
