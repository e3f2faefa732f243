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
    snapshot_topo,
    task_loss_from_logits,
    train_rows,
)
from gnncl.engine import (Tape, Tensor, add, backward, mul, square, sub,
                          sum_)
from gnncl.nn import ForwardContext, GnnModel, ModelError, model_forward


def compute_loss_importance(model: GnnModel, ctx: ForwardContext, task,
                            local_labels: Optional[np.ndarray]) -> ArraySet:
    """|gradient| of the full-batch training loss, per parameter."""
    params = model.parameters()
    with Tape():
        logits, _ = model_forward(model, ctx, task)
        loss = task_loss_from_logits(logits, ctx, local_labels,
                                     train_rows(ctx, task))
        grads = backward(loss, params)
    return _abs_grads(model, grads)


def topo_scalar(model: GnnModel, ctx: ForwardContext, task) -> Tensor:
    """The topology scalar of :func:`snapshot_topo` on a fresh forward."""
    _, snapshot = model_forward(model, ctx, task, want_attention=True)
    return snapshot_topo(snapshot, ctx, task)


def compute_topo_importance(model: GnnModel, ctx: ForwardContext,
                            task) -> ArraySet:
    """|gradient| of the topology scalar; parameters downstream of the
    middle layer are on the tape but off its dependency path, so their
    entries come out exactly zero."""
    params = model.parameters()
    with Tape():
        t = topo_scalar(model, ctx, task)
        grads = backward(t, params)
    return _abs_grads(model, grads)


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
