"""GNN backbones, attention snapshots, and checkpointing."""

from .checkpoint import (
    load_checkpoint,
    read_blob,
    save_checkpoint,
    write_blob,
)
from .layers import GatLayer, GcnLayer, GinLayer, ModelError, activation_fn
from .model import (
    BACKBONES,
    AttentionSnapshot,
    ForwardContext,
    GnnModel,
    ModelConfig,
    class_columns,
    finite_real,
    head_logits,
    nonparam_attention,
)

__all__ = [
    "AttentionSnapshot", "BACKBONES", "ForwardContext", "GatLayer",
    "GcnLayer", "GinLayer", "GnnModel", "ModelConfig", "ModelError",
    "activation_fn", "class_columns", "finite_real", "head_logits",
    "load_checkpoint", "nonparam_attention", "read_blob", "save_checkpoint",
    "write_blob",
]
