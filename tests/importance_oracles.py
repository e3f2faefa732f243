"""Reference importance maps and the reference anchor penalty.

:func:`gnncl.continual.compute_importance` computes both maps from one
shared forward; the one-map-per-forward versions here are the oracles it
must equal bit for bit. :func:`twp_penalty_per_parameter` builds the
penalty term by term, one small expression per parameter and record,
as the reference for the flat :func:`gnncl.continual.twp_penalty`.
"""

from typing import Optional, Sequence

import numpy as np

from gnncl.continual.importance import (
    ArraySet,
    ImportanceRecord,
    _abs_grads,
    combine_importance,
    snapshot_topo,
)
from gnncl.engine import (Tape, Tensor, add, backward, mul, square, sub,
                          sum_)
from gnncl.nn import GnnModel, ModelError


def compute_loss_importance(model: GnnModel, view, k: int) -> ArraySet:
    """|gradient| of task k's full-batch training loss, per parameter."""
    params = model.parameters()
    with Tape():
        loss, _ = view.train_loss(model, k)
        grads = backward(loss, params)
    return _abs_grads(model, grads)


def topo_scalar(model: GnnModel, view, k: int) -> Tensor:
    """The topology scalar of :func:`snapshot_topo` on a fresh forward
    of task k's training split."""
    _, ctx, rows = view.train_item(k)
    _, snapshot = view.forward(model, ctx, want_attention=True)
    return snapshot_topo(snapshot, rows)


def compute_topo_importance(model: GnnModel, view, k: int) -> ArraySet:
    """|gradient| of the topology scalar; parameters downstream of the
    middle layer are on the tape but off its dependency path, so their
    entries come out exactly zero."""
    params = model.parameters()
    with Tape():
        t = topo_scalar(model, view, k)
        grads = backward(t, params)
    return _abs_grads(model, grads)


def anchor_record(model: GnnModel, i_loss: ArraySet, i_ts: ArraySet,
                  lambda_l: float, lambda_t: float,
                  task_index: int) -> ImportanceRecord:
    """A record of the combined importance with a copy of the current
    parameters as its snapshot."""
    snapshot = {name: p.data.copy() for name, p in model.named_parameters()}
    return ImportanceRecord(task_index=task_index, snapshot=snapshot,
                            importance=combine_importance(
                                model, i_loss, i_ts, lambda_l, lambda_t))


def twp_penalty_per_parameter(model: GnnModel,
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
