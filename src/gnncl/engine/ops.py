"""Tensor operations with composable vector-Jacobian products.

Every differentiable operation records a node whose VJP is itself built
from these same operations. Running a backward pass with
``create_graph=True`` therefore records the backward computation too,
and a second backward pass differentiates through it.

Stabilizing shifts (the row max in ``cross_entropy``, the per-segment
max in ``segment_softmax``) are detached constants. Softmax is shift
invariant, so the detachment changes no derivative of any order.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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
from .segments import SegmentPlan


def _apply(op: str, data: np.ndarray, inputs: Sequence[Tensor],
           vjp) -> Tensor:
    """Wrap ``data`` in a Tensor and record the op if a tape is live.

    The op protocol: an op hands ``_apply`` its value, its inputs and its
    VJP, ``vjp(g, live)``, which maps the output's cotangent ``g`` to one
    per input, or None for an input that ``live`` marks off the tape. A
    VJP that reads the op's own output (``exp``, ``tanh``, ``sigmoid``,
    ``elu``, ``segment_softmax``) binds it late:
    ``out = _apply(...); return out``.
    """
    out = Tensor(data)
    tape = active_tape()
    if tape is None or not tape._recording:
        return out
    ids = tuple(tape.node_id_of(t) for t in inputs)
    if all(i is None for i in ids):
        return out
    nid = tape.append(Node(op, ids, vjp))
    out._link(tape, nid)
    return out


def _sum_to_data(g: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra < 0:
        raise ShapeError(f"cannot reduce shape {g.shape} to {shape}")
    s = g.sum(axis=tuple(range(extra))) if extra else g
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and s.shape[i] != 1)
    if axes:
        s = s.sum(axis=axes, keepdims=True)
    if s.shape != tuple(shape):
        raise ShapeError(f"cannot reduce shape {g.shape} to {shape}")
    return s


# ---------------------------------------------------------------------------
# shape plumbing

def sum_to(x: Tensor, shape: Tuple[int, ...]) -> Tensor:
    """Sum ``x`` down to ``shape`` (inverse of broadcasting)."""
    x = as_tensor(x)
    shape = tuple(shape)
    if x.shape == shape:
        return x
    data = _sum_to_data(x.data, shape)
    xs = x.shape

    def vjp(g, live):
        return (broadcast_to(g, xs),)

    return _apply("sum_to", data, (x,), vjp)


def broadcast_to(x: Tensor, shape: Tuple[int, ...]) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)
    if x.shape == shape:
        return x
    try:
        data = np.broadcast_to(x.data, shape)
    except ValueError as e:
        raise ShapeError(str(e)) from None
    xs = x.shape

    def vjp(g, live):
        return (sum_to(g, xs),)

    return _apply("broadcast_to", np.ascontiguousarray(data), (x,), vjp)


def reshape(x: Tensor, shape: Tuple[int, ...]) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)
    if math.prod(shape) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    xs = x.shape

    def vjp(g, live):
        return (reshape(g, xs),)

    return _apply("reshape", x.data.reshape(shape), (x,), vjp)


def transpose(x: Tensor, axes: Optional[Sequence[int]] = None) -> Tensor:
    """Permute the axes of ``x`` into the order ``axes`` names; with no
    ``axes``, ``x`` must be a matrix and is transposed. Only the layout
    changes."""
    x = as_tensor(x)
    if axes is None:
        if x.ndim != 2:
            raise ShapeError(
                f"transpose expects a matrix, got shape {x.shape}")
        axes = (1, 0)
    else:
        axes = tuple(axes)
        if sorted(axes) != list(range(x.ndim)):
            raise ShapeError(f"axes {axes} do not permute shape {x.shape}")

    def vjp(g, live):
        return (transpose(g, tuple(axes.index(i) for i in range(len(axes)))),)

    return _apply("transpose", x.data.transpose(axes).copy(), (x,), vjp)


def flat_concat(tensors: Sequence) -> Tensor:
    """One vector holding every input raveled, in input order.

    Inputs may be 0-d, empty or constants. The VJP cuts the cotangent
    back into each live input's shape with the pieces of
    :func:`flat_split`, which are recorded ops, so double backward works.
    """
    tensors = tuple(as_tensor(t) for t in tensors)
    shapes = [t.shape for t in tensors]
    data = np.concatenate([t.data.ravel() for t in tensors]
                          or [np.zeros(0)])

    def vjp(g, live):
        starts = _offsets(shapes)
        return tuple(_flat_piece(g, lo, shape) if keep else None
                     for lo, shape, keep in zip(starts, shapes, live))

    return _apply("flat_concat", data, tensors, vjp)


def flat_split(x: Tensor,
               shapes: Sequence[Tuple[int, ...]]) -> List[Tensor]:
    """Cut vector ``x`` into consecutive pieces of the given shapes, the
    inverse of :func:`flat_concat`. Each piece is one recorded slice;
    its VJP pads the cotangent with zeros by a :func:`flat_concat`."""
    x = as_tensor(x)
    shapes = [tuple(s) for s in shapes]
    if x.shape != (sum(math.prod(s) for s in shapes),):
        raise ShapeError(f"cannot split shape {x.shape} into {shapes}")
    return [_flat_piece(x, lo, s) for lo, s in zip(_offsets(shapes), shapes)]


def _offsets(shapes: Sequence[Tuple[int, ...]]) -> List[int]:
    """Start of each shape's piece in the flat vector."""
    return list(itertools.accumulate(
        (math.prod(s) for s in shapes[:-1]), initial=0))


def _flat_piece(x: Tensor, lo: int, shape: Tuple[int, ...]) -> Tensor:
    """The entries of vector ``x`` from ``lo`` on, as one ``shape``."""
    size = math.prod(shape)
    rest = x.shape[0] - lo - size

    def vjp(g, live):
        return (flat_concat((Tensor(np.zeros(lo)), g,
                             Tensor(np.zeros(rest)))),)

    return _apply("flat_slice", x.data[lo:lo + size].reshape(shape), (x,), vjp)


def _swap_last(x: Tensor) -> Tensor:
    """``x`` with its last two axes swapped: the transpose of a matrix or
    of each matrix in a stack."""
    return transpose(x) if x.ndim == 2 else transpose(x, (0, 2, 1))


# ---------------------------------------------------------------------------
# arithmetic

def add(x, y) -> Tensor:
    x, y = as_tensor(x), as_tensor(y)
    xs, ys = x.shape, y.shape

    def vjp(g, live):
        return (sum_to(g, xs) if live[0] else None,
                sum_to(g, ys) if live[1] else None)

    return _apply("add", x.data + y.data, (x, y), vjp)


def sub(x, y) -> Tensor:
    x, y = as_tensor(x), as_tensor(y)
    xs, ys = x.shape, y.shape

    def vjp(g, live):
        return (sum_to(g, xs) if live[0] else None,
                neg(sum_to(g, ys)) if live[1] else None)

    return _apply("sub", x.data - y.data, (x, y), vjp)


def mul(x, y) -> Tensor:
    x, y = as_tensor(x), as_tensor(y)
    xs, ys = x.shape, y.shape

    def vjp(g, live):
        return (sum_to(mul(g, y), xs) if live[0] else None,
                sum_to(mul(g, x), ys) if live[1] else None)

    return _apply("mul", x.data * y.data, (x, y), vjp)


def div(x, y) -> Tensor:
    x, y = as_tensor(x), as_tensor(y)
    if np.any(y.data == 0.0):
        raise DomainError("division by zero")
    xs, ys = x.shape, y.shape

    def vjp(g, live):
        gx = sum_to(div(g, y), xs) if live[0] else None
        gy = (sum_to(neg(mul(g, div(x, mul(y, y)))), ys)
              if live[1] else None)
        return (gx, gy)

    return _apply("div", x.data / y.data, (x, y), vjp)


def neg(x) -> Tensor:
    x = as_tensor(x)

    def vjp(g, live):
        return (neg(g),)

    return _apply("neg", -x.data, (x,), vjp)


def square(x) -> Tensor:
    x = as_tensor(x)

    def vjp(g, live):
        return (mul(g, mul(Tensor(2.0), x)),)

    return _apply("square", np.square(x.data), (x,), vjp)


def abs_(x) -> Tensor:
    """Elementwise absolute value.

    The VJP multiplies by sign(x) held constant, so the derivative at 0
    is 0 and all second derivatives vanish.
    """
    x = as_tensor(x)
    sgn = Tensor(np.sign(x.data))

    def vjp(g, live):
        return (mul(g, sgn),)

    return _apply("abs", np.abs(x.data), (x,), vjp)


def exp(x) -> Tensor:
    x = as_tensor(x)

    def vjp(g, live):
        return (mul(g, out),)

    out = _apply("exp", np.exp(x.data), (x,), vjp)
    return out


def log(x) -> Tensor:
    x = as_tensor(x)
    if np.any(x.data <= 0.0):
        raise DomainError("log requires strictly positive inputs")

    def vjp(g, live):
        return (div(g, x),)

    return _apply("log", np.log(x.data), (x,), vjp)


def tanh(x) -> Tensor:
    x = as_tensor(x)

    def vjp(g, live):
        return (mul(g, sub(Tensor(1.0), mul(out, out))),)

    out = _apply("tanh", np.tanh(x.data), (x,), vjp)
    return out


def sigmoid(x) -> Tensor:
    """Logistic function; ``exp(-|z|)`` never overflows on either side."""
    x = as_tensor(x)
    z = x.data
    e = np.exp(-np.abs(z))
    data = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def vjp(g, live):
        return (mul(g, mul(out, sub(Tensor(1.0), out))),)

    out = _apply("sigmoid", data, (x,), vjp)
    return out


def relu(x) -> Tensor:
    x = as_tensor(x)
    mask = Tensor((x.data > 0).astype(np.float64))

    def vjp(g, live):
        return (mul(g, mask),)

    return _apply("relu", np.maximum(x.data, 0.0), (x,), vjp)


def leaky_relu(x, alpha: float = 0.2) -> Tensor:
    """``x`` where ``x > 0``, else ``alpha * x``; NaN takes ``alpha``.

    The slope is looked up from ``(alpha, 1)`` by the sign test and the
    value is ``x * slope``: the same bits as selecting with
    ``np.where``, without its branches."""
    x = as_tensor(x)
    slope = np.array((alpha, 1.0)).take((x.data > 0).view(np.uint8))
    data = x.data * slope
    slope = Tensor(slope)

    def vjp(g, live):
        return (mul(g, slope),)

    return _apply("leaky_relu", data, (x,), vjp)


def elu(x, alpha: float = 1.0) -> Tensor:
    x = as_tensor(x)
    mask = (x.data > 0).astype(np.float64)
    data = np.where(x.data > 0, x.data, alpha * np.expm1(x.data))
    pos = Tensor(mask)
    rest = Tensor(1.0 - mask)
    a = Tensor(float(alpha))

    def vjp(g, live):
        # derivative is 1 on the positive side, alpha*e^x = out+alpha
        # on the other
        d = add(pos, mul(rest, add(out, a)))
        return (mul(g, d),)

    out = _apply("elu", data, (x,), vjp)
    return out


def matmul(x: Tensor, y: Tensor) -> Tensor:
    """Matrix product. Either operand may be a stack of H matrices along
    a leading axis; a 2-D operand is then shared by every product. numpy
    runs each stacked product as its own BLAS call with the 2-D shapes,
    so every slice matches the 2-D product bit for bit."""
    x, y = as_tensor(x), as_tensor(y)
    if (x.ndim not in (2, 3) or y.ndim not in (2, 3)
            or x.shape[-1] != y.shape[-2]
            or (x.ndim == y.ndim == 3 and x.shape[0] != y.shape[0])):
        raise ShapeError(f"matmul shapes {x.shape} and {y.shape} do not align")
    xs, ys = x.shape, y.shape

    def vjp(g, live):
        gx = sum_to(matmul(g, _swap_last(y)), xs) if live[0] else None
        gy = sum_to(matmul(_swap_last(x), g), ys) if live[1] else None
        return (gx, gy)

    return _apply("matmul", x.data @ y.data, (x, y), vjp)


# ---------------------------------------------------------------------------
# reductions

def sum_(x) -> Tensor:
    x = as_tensor(x)
    xs = x.shape

    def vjp(g, live):
        return (broadcast_to(g, xs),)

    return _apply("sum", np.asarray(x.data.sum()), (x,), vjp)


def sum_axis(x, axis: int, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"axis {axis} out of range for shape {x.shape}")
    axis = axis % x.ndim
    kept = list(x.shape)
    kept[axis] = 1
    xs = x.shape

    def vjp(g, live):
        return (broadcast_to(reshape(g, tuple(kept)), xs),)

    return _apply("sum_axis", x.data.sum(axis=axis, keepdims=keepdims),
                  (x,), vjp)


def sq_l2_norm(x) -> Tensor:
    return sum_(square(x))


# ---------------------------------------------------------------------------
# indexed gathers and scatters

def _plan(idx, what: str, bound: Optional[int] = None,
          length: Optional[int] = None) -> SegmentPlan:
    """``idx``, which must be a :class:`SegmentPlan`, fitted to an
    operand: its bound to ``bound`` and its length to ``length``, each
    when given. The plan validated its ids when it was built, so the
    ops check only the fit. A non-plan raises ``TypeError``, a misfit
    :class:`ShapeError`."""
    if not isinstance(idx, SegmentPlan):
        raise TypeError(
            f"{what} must be a SegmentPlan, not {type(idx).__name__}")
    if bound is not None and idx.bound != bound:
        raise ShapeError(f"{what} plan bound {idx.bound} != {bound}")
    if length is not None and len(idx) != length:
        raise ShapeError(f"{what} plan of {len(idx)} entries for {length}")
    return idx


def gather_rows(x: Tensor, idx: SegmentPlan) -> Tensor:
    """Select rows ``x[idx.ids]`` (first axis); duplicates allowed.

    ``idx`` is a :class:`SegmentPlan` with bound ``x.shape[0]``.
    """
    x = as_tensor(x)
    n = x.shape[0]
    plan = _plan(idx, "row index", bound=n)

    def vjp(g, live):
        return (scatter_sum(g, plan),)

    return _apply("gather_rows", np.take(x.data, plan.ids, axis=0), (x,), vjp)


def scatter_sum(x: Tensor, idx: SegmentPlan,
                src: Optional[SegmentPlan] = None, weights=None) -> Tensor:
    """Sum rows of ``x`` into the ``idx.bound`` segments of the plan
    ``idx``, one segment id per row.

    The plan sums (:meth:`SegmentPlan.segment_sums`): slot by slot
    through its :class:`~gnncl.engine.segments.SlotLayout` when there
    are enough values per slot, by one ``np.bincount`` otherwise. Either
    way each segment adds its rows in row order, starting from +0.0, as
    the unbuffered ``np.add`` scatter does, so the two agree bit for
    bit.

    With ``src`` (a plan of row indices into ``x``, one per entry of
    ``idx``) the summed rows are ``x[src.ids]``, and with ``weights``
    each of them is scaled first::

        out[v] = sum over e with idx[e] == v of weights[e] * x[src[e]]

    ``weights`` has shape ``(E,)`` for ``x`` of shape ``(n, d)``, or
    ``(E, H)`` for ``(n, H, d)``: one factor per row, or per head of a
    row. The gathered rows exist only inside the call, and the result
    equals ``scatter_sum(mul(gather_rows(x, src), w[..., None]), idx)``
    bit for bit. The cotangent of ``x`` is this scatter with ``src`` and
    ``idx`` swapped and that of ``weights`` is :func:`edge_dot`, whose
    cotangents are again such scatters, so no gathered rows stay on a
    tape at any order.
    """
    x = as_tensor(x)
    n = x.shape[0]
    rows = None
    inputs: Tuple[Tensor, ...] = (x,)
    if src is None:
        if weights is not None:
            raise ShapeError("weights scale gathered rows; give src")
        plan = _plan(idx, "segment ids", length=n)
    else:
        rows = _plan(src, "src rows", bound=n)
        plan = _plan(idx, "segment ids", length=len(rows))
        if weights is not None:
            weights = as_tensor(weights)
            if x.ndim < 2 or weights.shape != (len(rows),) + x.shape[1:-1]:
                raise ShapeError(
                    f"weights of shape {weights.shape} do not scale "
                    f"{len(rows)} rows of shape {x.shape[1:]}")
            inputs = (x, weights)
    data = plan.segment_sums(x.data, rows,
                             None if weights is None else weights.data)

    def vjp(g, live):
        if rows is None:
            return (gather_rows(g, plan),)
        gx = (scatter_sum(g, rows, src=plan, weights=weights)
              if live[0] else None)
        if weights is None:
            return (gx,)
        return (gx, edge_dot(g, x, plan, rows) if live[1] else None)

    return _apply("scatter_sum", data, inputs, vjp)


def edge_dot(a: Tensor, b: Tensor, ia: SegmentPlan,
             ib: SegmentPlan) -> Tensor:
    """One score per edge: ``out[e]`` is the sum over the last axis of
    ``a[ia[e]] * b[ib[e]]``.

    ``a`` and ``b`` share their shape past the first axis, ``(d,)`` or
    ``(H, d)``, and the output has shape ``(E,)`` or ``(E, H)``.
    ``ia`` and ``ib`` are plans of E row indices each, with bounds
    ``a.shape[0]`` and ``b.shape[0]``. The result equals
    ``sum_axis(mul(gather_rows(a, ia), gather_rows(b, ib)), -1)`` bit
    for bit. Each input's cotangent is one :func:`scatter_sum` of the
    other input, weighted by the output's cotangent.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or a.shape[1:] != b.shape[1:]:
        raise ShapeError(
            f"edge_dot rows of shapes {a.shape} and {b.shape} do not align")
    pa = _plan(ia, "row index", bound=a.shape[0])
    pb = _plan(ib, "row index", bound=b.shape[0], length=len(pa))
    prod = pa.gather(a.data, pa.ids)
    prod *= (np.take(b.data, pb.ids, axis=0) if pb is pa
             else pb.gather(b.data, pb.ids))
    width = prod.shape[-1]
    if width < 8:
        # numpy adds fewer than 8 values in order, starting from +0.0;
        # column by column that order is several times faster
        data = prod[..., 0] + 0.0
        for k in range(1, width):
            data += prod[..., k]
    else:
        data = prod.sum(axis=-1)

    def vjp(g, live):
        return (scatter_sum(b, pa, src=pb, weights=g) if live[0] else None,
                scatter_sum(a, pb, src=pa, weights=g) if live[1] else None)

    return _apply("edge_dot", data, (a, b), vjp)


def take_cols(x: Tensor, cols: SegmentPlan) -> Tensor:
    """Select columns ``x[:, cols.ids]`` of a matrix.

    ``cols`` is a :class:`SegmentPlan` with bound ``x.shape[1]`` that
    names no column twice. The VJP places the gradient back with
    :func:`place_cols`.
    """
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"take_cols expects a matrix, got shape {x.shape}")
    plan = _plan(cols, "column index", bound=x.shape[1])
    if not plan.distinct:
        raise ShapeError("column index repeats a column")

    def vjp(g, live):
        return (place_cols(g, plan),)

    return _apply("take_cols", np.take(x.data, plan.ids, axis=1), (x,), vjp)


def place_cols(x: Tensor, cols: SegmentPlan) -> Tensor:
    """A ``cols.bound``-column matrix holding column j of ``x`` at
    column ``cols.ids[j]`` and zeros elsewhere; the VJP is
    :func:`take_cols`.

    ``cols`` is a :class:`SegmentPlan` with one entry per column of
    ``x`` that names no column twice.
    """
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"place_cols expects a matrix, got shape {x.shape}")
    plan = _plan(cols, "column index", length=x.shape[1])
    if not plan.distinct:
        raise ShapeError("column index repeats a column")
    data = np.zeros((x.shape[0], plan.bound))
    data[:, plan.ids] = x.data

    def vjp(g, live):
        return (take_cols(g, plan),)

    return _apply("place_cols", data, (x,), vjp)


def segment_max(values: np.ndarray, plan: SegmentPlan) -> np.ndarray:
    """Per-segment max of an ``(E,)`` or ``(E, H)`` array, column by
    column, as a constant (no tape).

    Uses ``np.maximum.reduceat`` along axis 0 over the plan's segment
    starts when it has them, and an unbuffered ``np.maximum`` scatter
    otherwise. Max is exact in any order, so both give the same bits.
    An empty segment reads ``-inf``.
    """
    if plan.starts is not None:
        return np.maximum.reduceat(values, plan.starts, axis=0)
    out = np.full((plan.bound,) + values.shape[1:], -np.inf)
    np.maximum.at(out, plan.ids, values)
    return out


def segment_softmax(scores: Tensor, plan: SegmentPlan) -> Tensor:
    """Softmax over groups of the rows of ``scores``, column by column,
    recorded as one op.

    ``scores`` has shape ``(E,)`` or ``(E, H)``; the plan's id ``e``
    names the group of row e, and in each column the entries of each
    group sum to 1 in the output. Every group in ``[0, plan.bound)``
    must be non-empty. The per-group max is subtracted as a constant
    before exponentiation; shift invariance keeps all derivatives
    exact. See :func:`segment_max` for how the max is taken.

    The value is computed by the numpy calls of the chain
    ``div(e, gather_rows(scatter_sum(e, plan), plan))`` with ``e`` the
    exp of the shifted scores, in its order, so it equals that chain bit
    for bit. An ``(E, H)`` call equals H calls on its columns bit for
    bit: the per-group sums are one width-H segment sum, which adds each
    column's rows in row order whatever the width. Each group holds its
    own max, so every denominator is at least 1 (or NaN).

    The VJP is the closed form ``y * (g - gather(scatter(g * y)))``,
    with ``y`` the output, built from recorded ops, so it
    differentiates again.
    """
    scores = as_tensor(scores)
    if scores.ndim not in (1, 2):
        raise ShapeError(
            f"scores must be 1-D or 2-D, got shape {scores.shape}")
    plan = _plan(plan, "segment ids", length=scores.shape[0])
    if len(plan) == 0:
        raise SegmentError("segment_softmax over zero scores")
    if plan.starts is None and not plan.counts.all():
        empty = int(np.argmin(plan.counts))
        raise SegmentError(f"segment {empty} has no entries")
    seg_max = segment_max(scores.data, plan)
    num = np.exp(scores.data - np.take(seg_max, plan.ids, axis=0))
    den = np.take(plan.segment_sums(num), plan.ids, axis=0)

    def vjp(g, live):
        dots = gather_rows(scatter_sum(mul(g, out), plan), plan)
        return (mul(out, sub(g, dots)),)

    out = _apply("segment_softmax", num / den, (scores,), vjp)
    return out


# ---------------------------------------------------------------------------
# losses

def log_softmax(logits: Tensor) -> Tensor:
    """Row-wise log softmax of a 2-D logit matrix."""
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got shape {logits.shape}")
    row_max = Tensor(logits.data.max(axis=1, keepdims=True))
    z = sub(logits, row_max)
    lse = log(sum_axis(exp(z), axis=1, keepdims=True))
    return sub(z, lse)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log likelihood under ``logits`` of integer
    ``labels``, one per row, or of an ``(n, c)`` matrix of target
    probabilities in [0, 1]."""
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got shape {logits.shape}")
    labels = np.asarray(labels)
    n, c = logits.shape
    if n == 0:
        raise EmptyBatchError("cross_entropy over zero rows")
    if labels.shape == (n,) and np.issubdtype(labels.dtype, np.integer):
        if labels.min() < 0 or labels.max() >= c:
            raise DomainError(f"labels out of range [0, {c})")
        labels = np.eye(c)[labels]
    elif (labels.shape != (n, c)
          or not np.issubdtype(labels.dtype, np.floating)):
        raise ShapeError(f"labels must be {n} integers or ({n}, {c}) "
                         "probabilities")
    elif not np.all((labels >= 0.0) & (labels <= 1.0)):
        raise DomainError("target probabilities must lie in [0, 1]")
    logp = log_softmax(logits)
    picked = sum_(mul(logp, Tensor(labels)))
    return neg(div(picked, Tensor(float(n))))


def binary_cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean sigmoid cross entropy of raw logits against targets in [0, 1].

    The value uses the usual log1p(exp(-|z|)) stabilization. The VJP,
    ``g * (sigmoid(z) - t) / n``, is built from tape ops, so it can be
    differentiated again.
    """
    logits = as_tensor(logits)
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.shape:
        raise ShapeError(
            f"targets shape {t.shape} != logits shape {logits.shape}")
    if logits.size == 0:
        raise EmptyBatchError("binary_cross_entropy over zero elements")
    if not np.all((t >= 0.0) & (t <= 1.0)):  # refuses NaN too
        raise DomainError("targets must lie in [0, 1]")
    z = logits.data
    val = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    n = float(z.size)
    targets_t, count = Tensor(t), Tensor(n)

    def vjp(g, live):
        return (div(mul(g, sub(sigmoid(logits), targets_t)), count),)

    return _apply("binary_cross_entropy", np.asarray(val.sum() / n),
                  (logits,), vjp)


# ---------------------------------------------------------------------------
# backward

def _target_node_id(tape: Tape, t: Tensor) -> Optional[int]:
    if t._tape is not None and t._tape() is tape and t._node_id is not None:
        return t._node_id
    return tape._leaf_ids.get(id(t))


def backward(loss: Tensor, params: Sequence[Tensor],
             create_graph: bool = False) -> GradientMap:
    """Gradients of a scalar ``loss`` with respect to ``params``.

    Every call sweeps the tape afresh and returns a new map; nothing
    accumulates between calls. Params that were registered on the tape
    but do not influence the loss get zero gradients; params the tape
    has never seen raise :class:`MissingDependencyError`.

    With ``create_graph=True`` the backward computation is recorded, so
    returned gradients can be differentiated again. Without it the sweep
    runs with the tape paused and records nothing.

    The sweep frees each node's adjoint once its VJP has consumed it and
    keeps only the adjoints of the targets, so it holds the adjoints of
    its frontier rather than of the whole tape.
    """
    if loss.shape != ():
        raise ShapeError(f"loss must be a scalar, got shape {loss.shape}")
    if loss._tape is None or loss._tape() is None:
        raise MissingDependencyError("loss was not recorded on any live tape")
    tape = loss._tape()

    targets = {}
    for p in params:
        nid = _target_node_id(tape, p)
        if nid is None:
            raise MissingDependencyError(
                "gradient target was never used on the loss tape")
        targets[id(p)] = nid

    adjoint: Dict[int, Tensor] = {loss._node_id: Tensor(np.ones(()))}
    keep = set(targets.values())
    stop = min(keep, default=loss._node_id)

    def sweep():
        for nid in range(loss._node_id, stop - 1, -1):
            g = adjoint.get(nid) if nid in keep else adjoint.pop(nid, None)
            if g is None:
                continue
            node = tape.nodes[nid]
            if node.vjp is None:
                continue
            live = tuple(slot is not None for slot in node.inputs)
            grads = node.vjp(g, live)
            for slot, gin in zip(node.inputs, grads):
                if slot is None or gin is None:
                    continue
                held = adjoint.get(slot)
                adjoint[slot] = gin if held is None else add(held, gin)

    if create_graph:
        sweep()
    else:
        with tape.paused():
            sweep()

    out: GradientMap = {}
    for p in params:
        g = adjoint.get(targets[id(p)])
        if g is None:
            g = Tensor(np.zeros(p.shape))
        out[p] = g
    return out
