"""Evaluation metrics and the task-by-task performance matrix."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..continual import TaskView
from ..engine import EmptyBatchError
from ..nn import GnnModel

# Predictions are single-label and always inside the task's classes,
# so micro-F1 equals accuracy; "micro_f1" is an alias for it.
METRICS = ("accuracy", "micro_f1", "auc")


class MetricError(ValueError):
    """Metric undefined for the given predictions or configuration."""


def accuracy(pred: np.ndarray, true: np.ndarray) -> float:
    if pred.size == 0:
        raise EmptyBatchError("accuracy over zero examples")
    return float(np.mean(pred == true))


def auc_score(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based (Mann-Whitney) area under ROC with tie-averaged
    ranks; needs at least one positive and one negative."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
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


def evaluate(model: GnnModel, view: TaskView, j: int,
             metric: str) -> float:
    """Test-set score of task j under the current parameters.

    Opens no tape: inference needs no gradients, so the forward pass
    builds no VJPs.
    """
    if metric not in METRICS:
        raise MetricError(f"unknown metric '{metric}'")
    ctx, rows = view.split(view.seq.tasks[j].test)
    full, _ = view.forward(model, ctx)
    out = view.task_logits(model, full, j).data
    if view.node:
        if metric == "auc":
            raise MetricError("AUC applies to binary graph tasks only")
        pred = np.argmax(out[rows.ids], axis=1)
        return accuracy(pred, view.local_labels[j][rows.ids])
    labels = ctx.graph_labels.astype(np.int64)
    scores = out[:, 0]
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
