"""Evaluation metrics and the task-by-task performance matrix."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..engine import EmptyBatchError

# Predictions are single-label and always inside the task's classes,
# so micro-F1 equals accuracy; "micro_f1" is an alias for it.
METRICS = ("accuracy", "micro_f1", "auc")


class MetricError(ValueError):
    """Metric undefined for the given predictions or configuration."""


def _paired(pred, labels) -> Tuple[np.ndarray, np.ndarray]:
    """``pred`` and ``labels`` as arrays; MetricError unless ``pred`` is
    1-D and as long as ``labels``."""
    pred, labels = np.asarray(pred), np.asarray(labels)
    if pred.ndim != 1:
        raise MetricError(
            f"predictions must be 1-D, got shape {pred.shape}")
    if labels.shape != pred.shape:
        raise MetricError(f"{len(pred)} predictions for labels of shape "
                          f"{labels.shape}")
    return pred, labels


def accuracy(pred: np.ndarray, true: np.ndarray) -> float:
    pred, true = _paired(pred, true)
    if pred.size == 0:
        raise EmptyBatchError("accuracy over zero examples")
    return float(np.mean(pred == true))


def auc_score(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based (Mann-Whitney) area under ROC with tie-averaged
    ranks; needs at least one positive and one negative."""
    scores, labels = _paired(np.asarray(scores, dtype=np.float64), labels)
    if not np.all((labels == 0) | (labels == 1)):
        raise MetricError("AUC labels must be 0 or 1")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise MetricError(
            f"AUC needs both classes, got {n_pos} positives and "
            f"{n_neg} negatives")
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate(scores: np.ndarray, labels: np.ndarray, metric: str) -> float:
    """One cell of R: ``metric`` of a task's test ``scores`` against
    ``labels``. Scores are one row of class logits per node (the argmax
    predicts) or one logit per graph (AUC ranks it, accuracy thresholds
    it at 0)."""
    if metric not in METRICS:
        raise MetricError(f"unknown metric '{metric}'")
    if scores.ndim == 2:
        if metric == "auc":
            raise MetricError("AUC applies to binary graph tasks only")
        return accuracy(np.argmax(scores, axis=1), labels)
    if metric == "auc":
        return auc_score(scores, labels)
    return accuracy((scores > 0).astype(np.int64), labels)


class RMatrix:
    """Lower-triangular performance matrix R[i][j]: score on task j
    after training through task i. Entries write once."""

    def __init__(self, num_tasks: int):
        if num_tasks < 1:
            raise MetricError("RMatrix needs at least one task")
        self.num_tasks = num_tasks
        self.values = np.full((num_tasks, num_tasks), np.nan)

    def set(self, i: int, j: int, value: float) -> None:
        if not 0 <= j <= i < self.num_tasks:
            raise MetricError(f"({i}, {j}) is not lower-triangular")
        if not np.isnan(self.values[i, j]):
            raise MetricError(f"R[{i}][{j}] already written")
        if not 0.0 <= value <= 1.0:
            raise MetricError(f"score {value} outside [0, 1]")
        self.values[i, j] = value

    def get(self, i: int, j: int) -> float:
        return float(self.values[i, j])

    def complete_rows(self) -> int:
        """Number of leading rows that are fully filled."""
        for i in range(self.num_tasks):
            if np.any(np.isnan(self.values[i, :i + 1])):
                return i
        return self.num_tasks

    def to_csv(self) -> str:
        lines = []
        for i in range(self.num_tasks):
            cells = []
            for j in range(self.num_tasks):
                if j <= i and not np.isnan(self.values[i, j]):
                    cells.append("%.17g" % self.values[i, j])
                else:
                    cells.append("")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "RMatrix":
        rows = [line.split(",") for line in text.strip("\n").split("\n")]
        r = cls(len(rows))
        for i, cells in enumerate(rows):
            if len(cells) != len(rows):
                raise MetricError(
                    f"R.csv row {i} has {len(cells)} cells for "
                    f"{len(rows)} tasks")
            for j, cell in enumerate(cells):
                if cell != "":
                    r.set(i, j, float(cell))
        return r


def compute_ap_af(r: RMatrix) -> Tuple[float, float, bool]:
    """Average performance and average forgetting from a filled matrix.

    AP averages the last row. AF averages each earlier task's
    just-trained score minus its final score, so positive means
    forgetting. With a single task AF is undefined and reported as 0
    with the flag False.
    """
    t = r.num_tasks
    if r.complete_rows() != t:
        raise MetricError("RMatrix is not fully filled")
    last = r.values[t - 1, :t]
    ap = float(np.mean(last))
    if t < 2:
        return ap, 0.0, False
    diffs = [r.values[i, i] - r.values[t - 1, i] for i in range(t - 1)]
    return ap, float(np.mean(diffs)), True
