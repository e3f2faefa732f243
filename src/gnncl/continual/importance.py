"""Parameter-importance scores and the anchored quadratic penalty.

Importance has two ingredients: the magnitude of the task-loss gradient
per parameter, and the magnitude of the gradient of the squared norm of
the middle layer's attention coefficients (the topology sensitivity).
A task's combined scores are frozen together with a parameter snapshot;
later tasks pay a quadratic penalty for moving anchored parameters.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine import (
    GradientMap,
    Tape,
    TapeMode,
    Tensor,
    abs_,
    add,
    backward,
    binary_cross_entropy,
    cross_entropy,
    gather_rows,
    mul,
    reshape,
    square,
    sub,
    sum_,
)
from ..nn import (
    AttentionSnapshot,
    ForwardContext,
    GnnModel,
    ModelError,
    model_forward,
)
from ..nn.checkpoint import read_blob, write_blob

ArraySet = Dict[str, np.ndarray]

# Version 2: one stacked ``W``/``a`` per GAT layer, not one per head.
RECORDS_FORMAT = 2


@dataclass
class ImportanceRecord:
    """Frozen post-task state: parameter snapshot plus importance."""

    task_index: int
    snapshot: ArraySet
    importance: ArraySet

    def __post_init__(self):
        if set(self.snapshot) != set(self.importance):
            raise ModelError("snapshot/importance parameter sets differ")
        for name, imp in self.importance.items():
            if imp.shape != self.snapshot[name].shape:
                raise ModelError(f"shape mismatch for '{name}'")
            if np.any(imp < 0):
                raise ModelError(f"negative importance for '{name}'")


def _abs_grads(model: GnnModel, grads: GradientMap) -> ArraySet:
    return {name: np.abs(grads[p].data)
            for name, p in model.named_parameters()}


def task_loss_from_logits(logits: Tensor, ctx: ForwardContext,
                          local_labels: Optional[np.ndarray],
                          rows: Optional[np.ndarray] = None) -> Tensor:
    """The task loss: cross entropy of class-local node labels, or the
    sigmoid loss of each pooled graph against ``ctx.graph_labels``.

    ``rows`` restricts the loss to some nodes (a boolean mask or row
    indices) or to some pooled graphs (row indices); all rows by default.
    """
    if ctx.node_to_graph is None:
        return cross_entropy(logits, local_labels, rows)
    labels = ctx.graph_labels
    if rows is not None:
        logits = gather_rows(logits, rows)
        labels = labels[rows]
    return binary_cross_entropy(reshape(logits, (logits.shape[0],)), labels)


def compute_importance(model: GnnModel, ctx: ForwardContext, task,
                       local_labels: Optional[np.ndarray]
                       ) -> Tuple[ArraySet, ArraySet]:
    """Both importance maps, |dloss/dp| and |dtopo/dp|, from one forward
    with attention: the two backward sweeps share its tape. The loss map
    is |gradient| of the full-batch training loss; the topology map is
    |gradient| of :func:`snapshot_topo`, whose entries for parameters
    downstream of the middle layer come out exactly zero (they are on
    the tape but off its dependency path)."""
    params = model.parameters()
    with Tape():
        logits, snapshot = model_forward(model, ctx, task,
                                         want_attention=True)
        loss = task_loss_from_logits(logits, ctx, local_labels,
                                     task.train_mask)
        topo = snapshot_topo(snapshot, ctx, task)
        i_loss = _abs_grads(model, backward(loss, params))
        i_ts = _abs_grads(model, backward(topo, params))
    return i_loss, i_ts


def snapshot_topo(snapshot: AttentionSnapshot, ctx: ForwardContext,
                  task) -> Tensor:
    """Squared l2 norm of a snapshot's coefficients on edges aggregating
    into training nodes (all edges for pooled contexts)."""
    mask = task.train_mask if ctx.node_to_graph is None else None
    return snapshot.squared_norm(mask)


def combine_importance(model: GnnModel, i_loss: ArraySet, i_ts: ArraySet,
                       lambda_l: float, lambda_t: float,
                       task_index: int) -> ImportanceRecord:
    combined: ArraySet = {}
    for name, p in model.named_parameters():
        a, b = i_loss[name], i_ts[name]
        if a.shape != p.shape or b.shape != p.shape:
            raise ModelError(f"importance shape mismatch for '{name}'")
        combined[name] = lambda_l * a + lambda_t * b
    snapshot = {name: p.data.copy() for name, p in model.named_parameters()}
    return ImportanceRecord(task_index=task_index, snapshot=snapshot,
                            importance=combined)


def twp_penalty(model: GnnModel,
                records: Sequence[ImportanceRecord]) -> Tensor:
    """Sum over records of importance-weighted squared drift from the
    record's snapshot. Zero (a constant) with no records."""
    total: Optional[Tensor] = None
    named = model.named_parameters()
    for rec in records:
        for name, p in named:
            if name not in rec.importance:
                raise ModelError(
                    f"record for task {rec.task_index} lacks '{name}'")
            if rec.importance[name].shape != p.shape:
                raise ModelError(f"record shape mismatch for '{name}'")
            term = sum_(mul(Tensor(rec.importance[name]),
                            square(sub(p, Tensor(rec.snapshot[name])))))
            total = term if total is None else add(total, term)
    return total if total is not None else Tensor(np.asarray(0.0))


def capacity_regularizer(model: GnnModel, loss: Tensor, topo: Tensor,
                         lambda_l: float, lambda_t: float,
                         beta: float) -> Tensor:
    """``beta * ||lambda_l |dloss/dp| + lambda_t |dtopo/dp|||_1``, the l1
    capacity term, as a differentiable scalar.

    ``loss`` (the task loss) and ``topo`` (see :func:`snapshot_topo`)
    are scalars already recorded on the active HIGHER_ORDER tape, so the
    term differentiates the forward they came from. Both gradient maps
    are recorded with create_graph=True, so the returned scalar supports
    a further backward pass.
    """
    params = model.parameters()
    f = backward(loss, params, create_graph=True)
    g = backward(topo, params, create_graph=True)
    total: Optional[Tensor] = None
    for p in params:
        term = add(mul(Tensor(lambda_l), sum_(abs_(f[p]))),
                   mul(Tensor(lambda_t), sum_(abs_(g[p]))))
        total = term if total is None else add(total, term)
    return mul(Tensor(beta), total)


def save_records(records: Sequence[ImportanceRecord], path: str) -> None:
    """Records as a manifest plus one little-endian float64 blob."""
    os.makedirs(path, exist_ok=True)
    arrays = []
    meta = []
    for rec in records:
        names = list(rec.snapshot)
        for name in names:
            arrays.append((f"{rec.task_index}.snap.{name}",
                           rec.snapshot[name]))
            arrays.append((f"{rec.task_index}.imp.{name}",
                           rec.importance[name]))
        meta.append({"task_index": rec.task_index, "params": names})
    index = write_blob(os.path.join(path, "records.bin"), arrays)
    with open(os.path.join(path, "records.json"), "w") as f:
        json.dump({"format": RECORDS_FORMAT, "records": meta,
                   "index": index}, f, indent=1)


def load_records(path: str) -> List[ImportanceRecord]:
    with open(os.path.join(path, "records.json")) as f:
        manifest = json.load(f)
    if manifest.get("format") != RECORDS_FORMAT:
        raise ModelError(
            f"unsupported records format {manifest.get('format')!r}")
    arrays = read_blob(os.path.join(path, "records.bin"),
                       manifest["index"])
    out: List[ImportanceRecord] = []
    for meta in manifest["records"]:
        k = meta["task_index"]
        snap = {name: arrays[f"{k}.snap.{name}"] for name in meta["params"]}
        imp = {name: arrays[f"{k}.imp.{name}"] for name in meta["params"]}
        out.append(ImportanceRecord(task_index=k, snapshot=snap,
                                    importance=imp))
    return out
