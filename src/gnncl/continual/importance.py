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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine import (
    GradientMap,
    SegmentPlan,
    Tape,
    Tensor,
    abs_,
    add,
    backward,
    flat_concat,
    mul,
    square,
    sub,
    sum_,
)
from ..nn import AttentionSnapshot, GnnModel, ModelError
from ..nn.checkpoint import read_blob, read_manifest, write_blob

ArraySet = Dict[str, np.ndarray]

# Version 2: one stacked ``W``/``a`` per GAT layer, not one per head.
RECORDS_FORMAT = 2


@dataclass
class ImportanceRecord:
    """Frozen post-task state: parameter snapshot plus importance."""

    task_index: int
    snapshot: ArraySet
    importance: ArraySet
    _flat: Dict[Tuple[str, ...], Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if set(self.snapshot) != set(self.importance):
            raise ModelError("snapshot/importance parameter sets differ")
        for name, imp in self.importance.items():
            if imp.shape != self.snapshot[name].shape:
                raise ModelError(f"shape mismatch for '{name}'")
            if not (np.isfinite(imp).all()
                    and np.isfinite(self.snapshot[name]).all()):
                raise ModelError(f"non-finite record values for '{name}'")
            if np.any(imp < 0):
                raise ModelError(f"negative importance for '{name}'")

    def flat(self, names: Tuple[str, ...]) -> Tuple[np.ndarray, np.ndarray]:
        """(importance, snapshot), each raveled into one vector in the
        order of ``names``; built once per order and kept, as a record
        does not change after it is frozen."""
        vecs = self._flat.get(names)
        if vecs is None:
            vecs = self._flat[names] = tuple(
                np.concatenate([arrays[n].ravel() for n in names])
                for arrays in (self.importance, self.snapshot))
        return vecs


def _abs_grads(model: GnnModel, grads: GradientMap) -> ArraySet:
    return {name: np.abs(grads[p].data)
            for name, p in model.named_parameters()}


def compute_importance(model: GnnModel, view, k: int
                       ) -> Tuple[ArraySet, ArraySet]:
    """Both importance maps of task k, |dloss/dp| and |dtopo/dp|, from
    one training forward with attention laid out by ``view`` (a
    :class:`~gnncl.continual.TaskView`): the two backward sweeps share
    its tape. The loss map is |gradient| of the full-batch training
    loss; the topology map is |gradient| of :func:`snapshot_topo`,
    whose entries for parameters downstream of the middle layer come
    out exactly zero (they are on the tape but off its dependency
    path)."""
    params = model.parameters()
    with Tape():
        loss, snapshot = view.train_loss(model, k, want_attention=True)
        topo = snapshot_topo(snapshot, view.train_item(k)[2])
        i_loss = _abs_grads(model, backward(loss, params))
        i_ts = _abs_grads(model, backward(topo, params))
    return i_loss, i_ts


def snapshot_topo(snapshot: AttentionSnapshot,
                  rows: Optional[SegmentPlan]) -> Tensor:
    """Squared l2 norm of a snapshot's coefficients on edges aggregating
    into the node rows of plan ``rows``; None (a pooled split) means all
    edges."""
    if rows is None:
        return snapshot.squared_norm()
    mask = np.zeros(rows.bound, dtype=bool)
    mask[rows.ids] = True
    return snapshot.squared_norm(mask)


def combine_importance(model: GnnModel, i_loss: ArraySet, i_ts: ArraySet,
                       lambda_l: float, lambda_t: float) -> ArraySet:
    """``lambda_l * i_loss + lambda_t * i_ts``, per parameter."""
    combined: ArraySet = {}
    for name, p in model.named_parameters():
        a, b = i_loss[name], i_ts[name]
        if a.shape != p.shape or b.shape != p.shape:
            raise ModelError(f"importance shape mismatch for '{name}'")
        combined[name] = lambda_l * a + lambda_t * b
    return combined


def twp_penalty(model: GnnModel,
                records: Sequence[ImportanceRecord]) -> Tensor:
    """``sum_k sum_m I_m^k (theta_m - S_m^k)^2``: every record's
    importance-weighted squared drift from its snapshot, as one flat
    expression. ``theta`` is one :func:`flat_concat` of the parameters;
    the records' importances ``I`` and snapshots ``S`` (each record
    flattened once, see :meth:`ImportanceRecord.flat`) stack into (R, P)
    arrays in ``named_parameters()`` order, so the expression records
    the same nodes for any number of records. Zero (a constant) with no
    records."""
    if not records:
        return Tensor(np.asarray(0.0))
    named = model.named_parameters()
    for rec in records:
        for name, p in named:
            if name not in rec.importance:
                raise ModelError(
                    f"record for task {rec.task_index} lacks '{name}'")
            if rec.importance[name].shape != p.shape:
                raise ModelError(f"record shape mismatch for '{name}'")
    names = tuple(name for name, _ in named)
    flats = [rec.flat(names) for rec in records]
    imp = np.stack([i for i, _ in flats])
    snap = np.stack([s for _, s in flats])
    theta = flat_concat([p for _, p in named])
    return sum_(mul(Tensor(imp), square(sub(theta, Tensor(snap)))))


def capacity_regularizer(model: GnnModel, loss: Tensor, topo: Tensor,
                         lambda_l: float, lambda_t: float,
                         beta: float) -> Tensor:
    """``beta * ||lambda_l |dloss/dp| + lambda_t |dtopo/dp|||_1``, the l1
    capacity term, as a differentiable scalar: each gradient map is one
    :func:`flat_concat`, and a single sum takes the norm.

    ``loss`` (the task loss) and ``topo`` (see :func:`snapshot_topo`)
    are scalars already recorded on the active tape, so the term
    differentiates the forward they came from. Both gradient maps are
    recorded with create_graph=True, so the returned scalar supports a
    further backward pass.
    """
    params = model.parameters()
    f = backward(loss, params, create_graph=True)
    g = backward(topo, params, create_graph=True)
    d_loss = flat_concat([f[p] for p in params])
    d_topo = flat_concat([g[p] for p in params])
    return mul(Tensor(beta), sum_(add(mul(Tensor(lambda_l), abs_(d_loss)),
                                      mul(Tensor(lambda_t), abs_(d_topo)))))


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
    manifest = read_manifest(path, "records.json", RECORDS_FORMAT,
                             {"records": list, "index": list})
    arrays = read_blob(os.path.join(path, "records.bin"),
                       manifest["index"])

    def array(key: str) -> np.ndarray:
        if key not in arrays:
            raise ModelError(f"records.json has no index entry '{key}'")
        return arrays[key]

    out: List[ImportanceRecord] = []
    for meta in manifest["records"]:
        k = meta.get("task_index") if isinstance(meta, dict) else None
        if (not isinstance(k, int) or isinstance(k, bool) or k < 0
                or not isinstance(meta.get("params"), list)):
            raise ModelError(
                "each records.json record needs a non-negative integer "
                f"task_index and a params list, got {meta!r}")
        snap = {name: array(f"{k}.snap.{name}") for name in meta["params"]}
        imp = {name: array(f"{k}.imp.{name}") for name in meta["params"]}
        out.append(ImportanceRecord(task_index=k, snapshot=snap,
                                    importance=imp))
    return out
