"""Dense float64 tensors and the reverse-mode differentiation tape.

The engine keeps values in plain numpy arrays and records operations on an
explicit, append-only tape. Backward passes are expressed in terms of the
same tensor operations, so any tape can record the backward pass itself
and differentiate through it (needed for the capacity regularizer, which
penalizes gradient magnitudes).
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """An input value lies outside the operation's mathematical domain."""


class SegmentError(ValueError):
    """A segmented operation received an empty or malformed segment."""


class EmptyBatchError(ValueError):
    """A loss was asked to average over zero selected rows."""


class MissingDependencyError(RuntimeError):
    """A differentiation target never appeared on the tape."""


class Node:
    """One recorded operation: kind, input node ids, and a VJP closure.

    ``vjp(g, live)`` maps the output cotangent ``g`` to a tuple of input
    cotangents aligned with ``inputs``. ``live[i]`` says whether input i
    is on the tape (its slot is not None); an entry may be None for a
    slot that is not live or not differentiable, and is then never
    built. Leaf nodes have ``vjp is None``.
    """

    __slots__ = ("op", "inputs", "vjp")

    def __init__(self, op: str, inputs: Tuple[Optional[int], ...],
                 vjp: Optional[Callable]):
        self.op = op
        self.inputs = inputs
        self.vjp = vjp


_TAPE_STACK: list["Tape"] = []


def active_tape() -> Optional["Tape"]:
    """The innermost tape currently open, or None."""
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tape:
    """Append-only record of operations in topological order.

    Every node's inputs precede it, so a single reverse sweep over node
    ids implements backpropagation. A backward pass with
    ``create_graph=True`` appends its own nodes to the tape, making
    gradients themselves differentiable.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self._leaf_ids: Dict[int, int] = {}
        self._recording = True

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        assert _TAPE_STACK and _TAPE_STACK[-1] is self
        _TAPE_STACK.pop()
        return False

    def __len__(self) -> int:
        return len(self.nodes)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Temporarily stop recording on this tape."""
        prev = self._recording
        self._recording = False
        try:
            yield
        finally:
            self._recording = prev

    def append(self, node: Node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def leaf_id(self, t: "Tensor") -> int:
        """Node id of ``t`` as a leaf on this tape, registering it lazily."""
        nid = self._leaf_ids.get(id(t))
        if nid is None:
            nid = self.append(Node("leaf", (), None))
            self._leaf_ids[id(t)] = nid
        return nid

    def node_id_of(self, t: "Tensor") -> Optional[int]:
        """Id of ``t`` on this tape, or None if it acts as a constant here."""
        owner = t._tape() if t._tape is not None else None
        if owner is self and t._node_id is not None:
            return t._node_id
        if t.is_leaf and t.requires_grad:
            return self.leaf_id(t)
        return None


class Tensor:
    """A dense float64 array, optionally linked to a node on a tape.

    Tensors with ``requires_grad=False`` are plain values; they are never
    differentiation targets and record nothing. Operations on tensors
    are the functions of :mod:`gnncl.engine.ops`.
    """

    __slots__ = ("data", "requires_grad", "is_leaf", "_tape", "_node_id",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.is_leaf = True
        self._tape: Optional[weakref.ref] = None
        self._node_id: Optional[int] = None

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def _link(self, tape: Tape, node_id: int) -> None:
        self._tape = weakref.ref(tape)
        self._node_id = node_id
        self.is_leaf = False
        self.requires_grad = True

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


# Parameter -> gradient tensor of identical shape, keyed by identity.
GradientMap = Dict[Tensor, Tensor]


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)
