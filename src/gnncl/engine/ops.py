"""Tensor operations with composable vector-Jacobian products.

Every differentiable operation records a node whose VJP is itself built
from these same operations. Running a backward pass with
``create_graph=True`` on a HIGHER_ORDER tape therefore records the
backward computation too, and a second backward pass differentiates
through it.

Stabilizing shifts (the row max in ``cross_entropy``, the per-segment
max in ``segment_softmax``) are detached constants. Softmax is shift
invariant, so the detachment changes no derivative of any order.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

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
    TapeMode,
    TapeModeError,
    Tensor,
    active_tape,
    as_tensor,
)
from .segments import SegmentPlan, check_index


def _apply(op: str, data: np.ndarray, inputs: Sequence[Tensor],
           vjp_builder) -> Tensor:
    """Wrap ``data`` in a Tensor and record the op if a tape is live."""
    out = Tensor(data)
    tape = active_tape()
    if tape is None or not tape._recording:
        return out
    ids = tuple(tape.node_id_of(t) for t in inputs)
    if all(i is None for i in ids):
        return out
    nid = tape.append(Node(op, ids, vjp_builder(out)))
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

    def build(out):
        def vjp(g, live):
            return (broadcast_to(g, xs),)
        return vjp

    return _apply("sum_to", data, (x,), build)


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

    def build(out):
        def vjp(g, live):
            return (sum_to(g, xs),)
        return vjp

    return _apply("broadcast_to", np.ascontiguousarray(data), (x,), build)


def reshape(x: Tensor, shape: Tuple[int, ...]) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    xs = x.shape

    def build(out):
        def vjp(g, live):
            return (reshape(g, xs),)
        return vjp

    return _apply("reshape", x.data.reshape(shape), (x,), build)


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

    def build(out):
        def vjp(g, live):
            return (transpose(g, tuple(axes.index(i)
                                       for i in range(len(axes)))),)
        return vjp

    return _apply("transpose", x.data.transpose(axes).copy(), (x,), build)


def _swap_last(x: Tensor) -> Tensor:
    """``x`` with its last two axes swapped: the transpose of a matrix or
    of each matrix in a stack."""
    return transpose(x) if x.ndim == 2 else transpose(x, (0, 2, 1))


# ---------------------------------------------------------------------------
# arithmetic

def add(x, y) -> Tensor:
    x, y = as_tensor(x), as_tensor(y)
    xs, ys = x.shape, y.shape

    def build(out):
        def vjp(g, live):
            return (sum_to(g, xs) if live[0] else None,
                    sum_to(g, ys) if live[1] else None)
        return vjp

    return _apply("add", x.data + y.data, (x, y), build)


def sub(x, y) -> Tensor:
    x, y = as_tensor(x), as_tensor(y)
    xs, ys = x.shape, y.shape

    def build(out):
        def vjp(g, live):
            return (sum_to(g, xs) if live[0] else None,
                    neg(sum_to(g, ys)) if live[1] else None)
        return vjp

    return _apply("sub", x.data - y.data, (x, y), build)


def mul(x, y) -> Tensor:
    x, y = as_tensor(x), as_tensor(y)
    xs, ys = x.shape, y.shape

    def build(out):
        def vjp(g, live):
            return (sum_to(mul(g, y), xs) if live[0] else None,
                    sum_to(mul(g, x), ys) if live[1] else None)
        return vjp

    return _apply("mul", x.data * y.data, (x, y), build)


def div(x, y) -> Tensor:
    x, y = as_tensor(x), as_tensor(y)
    if np.any(y.data == 0.0):
        raise DomainError("division by zero")
    xs, ys = x.shape, y.shape

    def build(out):
        def vjp(g, live):
            gx = sum_to(div(g, y), xs) if live[0] else None
            gy = (sum_to(neg(mul(g, div(x, mul(y, y)))), ys)
                  if live[1] else None)
            return (gx, gy)
        return vjp

    return _apply("div", x.data / y.data, (x, y), build)


def neg(x) -> Tensor:
    x = as_tensor(x)

    def build(out):
        def vjp(g, live):
            return (neg(g),)
        return vjp

    return _apply("neg", -x.data, (x,), build)


def square(x) -> Tensor:
    x = as_tensor(x)

    def build(out):
        def vjp(g, live):
            return (mul(g, mul(Tensor(2.0), x)),)
        return vjp

    return _apply("square", np.square(x.data), (x,), build)


def abs_(x) -> Tensor:
    """Elementwise absolute value.

    The VJP multiplies by sign(x) held constant, so the derivative at 0
    is 0 and all second derivatives vanish.
    """
    x = as_tensor(x)
    sgn = Tensor(np.sign(x.data))

    def build(out):
        def vjp(g, live):
            return (mul(g, sgn),)
        return vjp

    return _apply("abs", np.abs(x.data), (x,), build)


def exp(x) -> Tensor:
    x = as_tensor(x)

    def build(out):
        def vjp(g, live):
            return (mul(g, out),)
        return vjp

    return _apply("exp", np.exp(x.data), (x,), build)


def log(x) -> Tensor:
    x = as_tensor(x)
    if np.any(x.data <= 0.0):
        raise DomainError("log requires strictly positive inputs")

    def build(out):
        def vjp(g, live):
            return (div(g, x),)
        return vjp

    return _apply("log", np.log(x.data), (x,), build)


def tanh(x) -> Tensor:
    x = as_tensor(x)

    def build(out):
        def vjp(g, live):
            return (mul(g, sub(Tensor(1.0), mul(out, out))),)
        return vjp

    return _apply("tanh", np.tanh(x.data), (x,), build)


def sigmoid(x) -> Tensor:
    """Logistic function; ``exp(-|z|)`` never overflows on either side."""
    x = as_tensor(x)
    z = x.data
    e = np.exp(-np.abs(z))
    data = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def build(out):
        def vjp(g, live):
            return (mul(g, mul(out, sub(Tensor(1.0), out))),)
        return vjp

    return _apply("sigmoid", data, (x,), build)


def relu(x) -> Tensor:
    x = as_tensor(x)
    mask = Tensor((x.data > 0).astype(np.float64))

    def build(out):
        def vjp(g, live):
            return (mul(g, mask),)
        return vjp

    return _apply("relu", np.maximum(x.data, 0.0), (x,), build)


def leaky_relu(x, alpha: float = 0.2) -> Tensor:
    x = as_tensor(x)
    slope = Tensor(np.where(x.data > 0, 1.0, alpha))

    def build(out):
        def vjp(g, live):
            return (mul(g, slope),)
        return vjp

    return _apply("leaky_relu", np.where(x.data > 0, x.data, alpha * x.data),
                  (x,), build)


def elu(x, alpha: float = 1.0) -> Tensor:
    x = as_tensor(x)
    mask = (x.data > 0).astype(np.float64)
    data = np.where(x.data > 0, x.data, alpha * np.expm1(x.data))
    pos = Tensor(mask)
    rest = Tensor(1.0 - mask)
    a = Tensor(float(alpha))

    def build(out):
        def vjp(g, live):
            # derivative is 1 on the positive side, alpha*e^x = out+alpha
            # on the other
            d = add(pos, mul(rest, add(out, a)))
            return (mul(g, d),)
        return vjp

    return _apply("elu", data, (x,), build)


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

    def build(out):
        def vjp(g, live):
            gx = sum_to(matmul(g, _swap_last(y)), xs) if live[0] else None
            gy = sum_to(matmul(_swap_last(x), g), ys) if live[1] else None
            return (gx, gy)
        return vjp

    return _apply("matmul", x.data @ y.data, (x, y), build)


# ---------------------------------------------------------------------------
# reductions

def sum_(x) -> Tensor:
    x = as_tensor(x)
    xs = x.shape

    def build(out):
        def vjp(g, live):
            return (broadcast_to(g, xs),)
        return vjp

    return _apply("sum", np.asarray(x.data.sum()), (x,), build)


def sum_axis(x, axis: int, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"axis {axis} out of range for shape {x.shape}")
    axis = axis % x.ndim
    kept = list(x.shape)
    kept[axis] = 1
    xs = x.shape

    def build(out):
        def vjp(g, live):
            return (broadcast_to(reshape(g, tuple(kept)), xs),)
        return vjp

    return _apply("sum_axis", x.data.sum(axis=axis, keepdims=keepdims),
                  (x,), build)


def mean_(x) -> Tensor:
    x = as_tensor(x)
    if x.size == 0:
        raise EmptyBatchError("mean over an empty tensor")
    return div(sum_(x), Tensor(float(x.size)))


def l1_norm(x) -> Tensor:
    return sum_(abs_(x))


def sq_l2_norm(x) -> Tensor:
    return sum_(square(x))


# ---------------------------------------------------------------------------
# indexed gathers and scatters

def _row_plan(idx, num_rows: int) -> SegmentPlan:
    """``idx`` as a plan over ``num_rows`` rows; a plan is only checked
    against the row count."""
    if isinstance(idx, SegmentPlan):
        if idx.bound != num_rows:
            raise ShapeError(
                f"row index plan bound {idx.bound} != {num_rows} rows")
        return idx
    return SegmentPlan.rows(idx, num_rows)


def _segment_plan(ids, num_rows: int, num_segments: int,
                  what: str = "rows") -> SegmentPlan:
    """``ids`` as a plan over ``num_segments`` segments covering
    ``num_rows`` rows. Raw ids are validated but not scanned for
    segment starts; a plan is only checked against the two counts."""
    if isinstance(ids, SegmentPlan):
        if num_segments <= 0:
            raise SegmentError("num_segments must be positive")
        if ids.bound != num_segments:
            raise SegmentError(
                f"segment plan bound {ids.bound} != {num_segments} "
                "segments")
    else:
        ids = SegmentPlan(ids, num_segments, scan=False)
    if len(ids) != num_rows:
        raise ShapeError(f"{num_rows} {what} but {len(ids)} segment ids")
    return ids


def gather_rows(x: Tensor, idx) -> Tensor:
    """Select rows ``x[idx]`` (first axis); duplicates allowed.

    ``idx`` is an integer array or a :class:`SegmentPlan` built for
    ``x.shape[0]`` rows.
    """
    x = as_tensor(x)
    n = x.shape[0]
    plan = _row_plan(idx, n)

    def build(out):
        def vjp(g, live):
            return (scatter_sum(g, plan, n),)
        return vjp

    return _apply("gather_rows", np.take(x.data, plan.ids, axis=0), (x,),
                  build)


def _gather_rows_into_workspace(x: np.ndarray,
                                plan: SegmentPlan) -> np.ndarray:
    """``x[plan.ids]`` written into the plan's workspace, valid until
    the next gather through the plan."""
    tail = x.shape[1:]
    work = plan.workspace(int(np.prod(tail, dtype=np.int64)))
    # the ids are validated, so clipping never moves one; with the
    # default mode numpy would gather into a temporary and copy
    return np.take(x, plan.ids, axis=0, mode="clip",
                   out=work.reshape((len(plan),) + tail))


def scatter_sum(x: Tensor, idx, num_segments: int, src=None,
                weights=None) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets given by ``idx``.

    ``idx`` is an integer array or a :class:`SegmentPlan` with bound
    ``num_segments``. The sum is one ``np.bincount`` over the flattened
    values. It adds each bucket's rows in row order, as the unbuffered
    ``np.add`` scatter does, so the two agree bit for bit.

    With ``src`` (row indices into ``x``, raw or planned, one per entry
    of ``idx``) the summed rows are ``x[src]``, and with ``weights`` each
    of them is scaled first::

        out[v] = sum over e with idx[e] == v of weights[e] * x[src[e]]

    ``weights`` has shape ``(E,)`` for ``x`` of shape ``(n, d)``, or
    ``(E, H)`` for ``(n, H, d)``: one factor per row, or per head of a
    row. The gathered rows exist only inside the call, and the result
    equals ``scatter_sum(mul(gather_rows(x, src), w[..., None]), idx,
    n)`` bit for bit. The cotangent of ``x`` is this scatter with
    ``src`` and ``idx`` swapped and that of ``weights`` is
    :func:`edge_dot`, whose cotangents are again such scatters, so no
    gathered rows stay on a tape at any order.
    """
    x = as_tensor(x)
    n = x.shape[0]
    rows = None
    inputs: Tuple[Tensor, ...] = (x,)
    if src is None:
        if weights is not None:
            raise ShapeError("weights scale gathered rows; give src")
        plan = _segment_plan(idx, n, num_segments)
        values = x.data
    else:
        rows = _row_plan(src, n)
        plan = _segment_plan(idx, len(rows), num_segments)
        values = _gather_rows_into_workspace(x.data, rows)
        if weights is not None:
            weights = as_tensor(weights)
            if x.ndim < 2 or weights.shape != (len(rows),) + x.shape[1:-1]:
                raise ShapeError(
                    f"weights of shape {weights.shape} do not scale "
                    f"{len(rows)} rows of shape {x.shape[1:]}")
            values *= weights.data[..., None]
            inputs = (x, weights)
    tail = x.shape[1:]
    width = int(np.prod(tail, dtype=np.int64))
    data = np.bincount(plan.flat(width), weights=values.ravel(),
                       minlength=num_segments * width)
    data = data.reshape((num_segments,) + tail)

    def build(out):
        def vjp(g, live):
            if rows is None:
                return (gather_rows(g, plan),)
            gx = (scatter_sum(g, rows, n, src=plan, weights=weights)
                  if live[0] else None)
            if weights is None:
                return (gx,)
            return (gx, edge_dot(g, x, plan, rows) if live[1] else None)
        return vjp

    return _apply("scatter_sum", data, inputs, build)


def edge_dot(a: Tensor, b: Tensor, ia, ib) -> Tensor:
    """One score per edge: ``out[e]`` is the sum over the last axis of
    ``a[ia[e]] * b[ib[e]]``.

    ``a`` and ``b`` share their shape past the first axis, ``(d,)`` or
    ``(H, d)``, and the output has shape ``(E,)`` or ``(E, H)``.
    ``ia`` and ``ib`` are row indices, raw or planned, of one length E.
    The result equals ``sum_axis(mul(gather_rows(a, ia),
    gather_rows(b, ib)), -1)`` bit for bit. Each input's cotangent is
    one :func:`scatter_sum` of the other input, weighted by the
    output's cotangent.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or a.shape[1:] != b.shape[1:]:
        raise ShapeError(
            f"edge_dot rows of shapes {a.shape} and {b.shape} do not align")
    na, nb = a.shape[0], b.shape[0]
    pa, pb = _row_plan(ia, na), _row_plan(ib, nb)
    if len(pa) != len(pb):
        raise ShapeError(f"{len(pa)} and {len(pb)} edge endpoints")
    prod = _gather_rows_into_workspace(a.data, pa)
    prod *= (np.take(b.data, pb.ids, axis=0) if pb is pa
             else _gather_rows_into_workspace(b.data, pb))
    width = prod.shape[-1]
    if width < 8:
        # numpy adds fewer than 8 values in order, starting from +0.0;
        # column by column that order is several times faster
        data = prod[..., 0] + 0.0
        for k in range(1, width):
            data += prod[..., k]
    else:
        data = prod.sum(axis=-1)

    def build(out):
        def vjp(g, live):
            return (scatter_sum(b, pa, na, src=pb, weights=g)
                    if live[0] else None,
                    scatter_sum(a, pb, nb, src=pa, weights=g)
                    if live[1] else None)
        return vjp

    return _apply("edge_dot", data, (a, b), build)


def _col_plan(cols, width: int) -> SegmentPlan:
    """``cols`` as a plan over ``width`` columns naming each column at
    most once; a plan is only checked against the width (and, once, for
    repeats)."""
    if isinstance(cols, SegmentPlan):
        if cols.bound != width:
            raise ShapeError(
                f"column index plan bound {cols.bound} != {width} columns")
    else:
        cols = SegmentPlan.rows(cols, width, "column index")
    if not cols.distinct:
        raise ShapeError("column index repeats a column")
    return cols


def take_cols(x: Tensor, cols) -> Tensor:
    """Select columns ``x[:, cols]`` of a matrix.

    ``cols`` is an integer array or a :class:`SegmentPlan` built for
    ``x.shape[1]`` columns, with no column named twice. The VJP places
    the gradient back with :func:`place_cols`.
    """
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"take_cols expects a matrix, got shape {x.shape}")
    width = x.shape[1]
    plan = _col_plan(cols, width)

    def build(out):
        def vjp(g, live):
            return (place_cols(g, plan, width),)
        return vjp

    return _apply("take_cols", np.take(x.data, plan.ids, axis=1), (x,),
                  build)


def place_cols(x: Tensor, cols, width: int) -> Tensor:
    """A ``width``-column matrix holding column j of ``x`` at column
    ``cols[j]`` and zeros elsewhere; the VJP is :func:`take_cols`.

    ``cols`` is an integer array or a :class:`SegmentPlan` with bound
    ``width``, with no column named twice.
    """
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"place_cols expects a matrix, got shape {x.shape}")
    plan = _col_plan(cols, width)
    if len(plan) != x.shape[1]:
        raise ShapeError(f"{x.shape[1]} columns but {len(plan)} places")
    data = np.zeros((x.shape[0], width))
    data[:, plan.ids] = x.data

    def build(out):
        def vjp(g, live):
            return (take_cols(g, plan),)
        return vjp

    return _apply("place_cols", data, (x,), build)


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


def segment_softmax(scores: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Softmax over groups of the rows of ``scores``, column by column.

    ``scores`` has shape ``(E,)`` or ``(E, H)``; ``segment_ids[e]``
    names the group of row e, and in each column the entries of each
    group sum to 1 in the output. An ``(E, H)`` call equals H calls on
    its columns bit for bit: the per-group sums are one width-H
    bincount that adds each column's rows in row order. Every group in
    ``[0, num_segments)`` must be non-empty. The per-group max is
    subtracted as a constant before exponentiation; shift invariance
    keeps all derivatives exact. ``segment_ids`` is an integer array or
    a :class:`SegmentPlan`; see :func:`segment_max` for how the max is
    taken.
    """
    scores = as_tensor(scores)
    if scores.ndim not in (1, 2):
        raise ShapeError(
            f"scores must be 1-D or 2-D, got shape {scores.shape}")
    plan = _segment_plan(segment_ids, scores.shape[0], num_segments,
                         what="scores")
    if len(plan) == 0:
        raise SegmentError("segment_softmax over zero scores")
    if plan.starts is None and not plan.counts.all():
        empty = int(np.argmin(plan.counts))
        raise SegmentError(f"segment {empty} has no entries")
    seg_max = segment_max(scores.data, plan)
    shifted = sub(scores, Tensor(np.take(seg_max, plan.ids, axis=0)))
    num = exp(shifted)
    denom = scatter_sum(num, plan, num_segments)
    return div(num, gather_rows(denom, plan))


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


def cross_entropy(logits: Tensor, labels, mask=None) -> Tensor:
    """Mean negative log likelihood of integer ``labels`` under ``logits``.

    ``mask`` optionally restricts the mean to a subset of rows, given
    either as a boolean vector over rows or as row indices.
    """
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got shape {logits.shape}")
    labels = np.asarray(labels)
    if mask is not None:
        mask = np.asarray(mask)
        if mask.dtype == np.bool_:
            if mask.shape != (logits.shape[0],):
                raise ShapeError(
                    f"boolean mask of shape {mask.shape} does not cover "
                    f"{logits.shape[0]} rows")
            idx = np.nonzero(mask)[0]
        else:
            idx = check_index(mask, logits.shape[0], ShapeError,
                              "row index")
        if idx.size == 0:
            raise EmptyBatchError("cross_entropy mask selects zero rows")
        logits = gather_rows(logits, idx)
        labels = labels[idx]
    n, c = logits.shape
    if n == 0:
        raise EmptyBatchError("cross_entropy over zero rows")
    if labels.shape != (n,) or not np.issubdtype(labels.dtype, np.integer):
        raise ShapeError(f"labels must be {n} integers")
    if labels.min() < 0 or labels.max() >= c:
        raise DomainError(f"labels out of range [0, {c})")
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    logp = log_softmax(logits)
    picked = sum_(mul(logp, Tensor(onehot)))
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
    if np.any((t < 0.0) | (t > 1.0)):
        raise DomainError("targets must lie in [0, 1]")
    z = logits.data
    val = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    n = float(z.size)
    targets_t, count = Tensor(t), Tensor(n)

    def build(out):
        def vjp(g, live):
            return (div(mul(g, sub(sigmoid(logits), targets_t)), count),)
        return vjp

    return _apply("binary_cross_entropy", np.asarray(val.sum() / n),
                  (logits,), build)


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

    With ``create_graph=True`` (HIGHER_ORDER tapes only) the backward
    computation is recorded, so returned gradients can be differentiated
    again.
    """
    if loss.shape != ():
        raise ShapeError(f"loss must be a scalar, got shape {loss.shape}")
    if loss._tape is None or loss._tape() is None:
        raise MissingDependencyError("loss was not recorded on any live tape")
    tape = loss._tape()
    if create_graph and tape.mode is not TapeMode.HIGHER_ORDER:
        raise TapeModeError("create_graph=True needs a HIGHER_ORDER tape")

    targets = {}
    for p in params:
        nid = _target_node_id(tape, p)
        if nid is None:
            raise MissingDependencyError(
                "gradient target was never used on the loss tape")
        targets[id(p)] = nid

    adjoint: Dict[int, Tensor] = {loss._node_id: Tensor(np.ones(()))}
    stop = min(targets.values(), default=loss._node_id)

    def sweep():
        for nid in range(loss._node_id, stop - 1, -1):
            g = adjoint.get(nid)
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
