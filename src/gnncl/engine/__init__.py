"""Reverse-mode differentiation engine on dense float64 arrays."""

from .ops import (
    abs_,
    add,
    backward,
    binary_cross_entropy,
    broadcast_to,
    cross_entropy,
    div,
    edge_dot,
    elu,
    exp,
    flat_concat,
    flat_split,
    gather_rows,
    leaky_relu,
    log,
    log_softmax,
    matmul,
    mul,
    neg,
    place_cols,
    relu,
    reshape,
    scatter_sum,
    segment_softmax,
    sigmoid,
    sq_l2_norm,
    square,
    sub,
    sum_,
    sum_axis,
    sum_to,
    take_cols,
    tanh,
    transpose,
)
from .optim import Adam
from .segments import SegmentPlan
from .tensor import (
    DomainError,
    EmptyBatchError,
    GradientMap,
    MissingDependencyError,
    Node,
    SegmentError,
    ShapeError,
    Tape,
    Tensor,
    active_tape,
    as_tensor,
)

# Operator sugar for Tensor; kept here so tensor.py stays free of op logic.
Tensor.__add__ = add
Tensor.__radd__ = lambda self, other: add(other, self)
Tensor.__sub__ = sub
Tensor.__rsub__ = lambda self, other: sub(other, self)
Tensor.__mul__ = mul
Tensor.__rmul__ = lambda self, other: mul(other, self)
Tensor.__truediv__ = div
Tensor.__rtruediv__ = lambda self, other: div(other, self)
Tensor.__neg__ = neg
Tensor.__matmul__ = matmul

__all__ = [
    "Adam", "DomainError", "EmptyBatchError", "GradientMap",
    "MissingDependencyError", "Node", "SegmentError", "SegmentPlan",
    "ShapeError", "Tape", "Tensor", "abs_", "active_tape", "add",
    "as_tensor", "backward", "binary_cross_entropy", "broadcast_to",
    "cross_entropy", "div", "edge_dot", "elu", "exp", "flat_concat",
    "flat_split", "gather_rows", "leaky_relu", "log", "log_softmax",
    "matmul", "mul", "neg", "place_cols", "relu", "reshape", "scatter_sum",
    "segment_softmax", "sigmoid", "sq_l2_norm", "square", "sub", "sum_",
    "sum_axis", "sum_to", "take_cols", "tanh", "transpose",
]
