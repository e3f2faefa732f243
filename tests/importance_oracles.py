"""Reference importance maps, each from its own forward and backward.

:func:`gnncl.continual.compute_importance` computes both maps from one
shared forward; these one-map-per-forward versions are the oracles it
must equal bit for bit.
"""

from typing import Optional

import numpy as np

from gnncl.continual.importance import (
    ArraySet,
    _abs_grads,
    snapshot_topo,
    task_loss_from_logits,
)
from gnncl.engine import Tape, Tensor, backward
from gnncl.nn import ForwardContext, GnnModel, model_forward


def compute_loss_importance(model: GnnModel, ctx: ForwardContext, task,
                            local_labels: Optional[np.ndarray]) -> ArraySet:
    """|gradient| of the full-batch training loss, per parameter."""
    params = model.parameters()
    with Tape():
        logits, _ = model_forward(model, ctx, task)
        loss = task_loss_from_logits(logits, ctx, local_labels,
                                     task.train_mask)
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
