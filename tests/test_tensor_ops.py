"""Forward values, validation errors, and tape recording rules."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st

from gnncl.engine import (
    DomainError,
    EmptyBatchError,
    SegmentError,
    SegmentPlan,
    ShapeError,
    Tape,
    TapeMode,
    Tensor,
    add,
    backward,
    binary_cross_entropy,
    cross_entropy,
    div,
    edge_dot,
    exp,
    gather_rows,
    l1_norm,
    log,
    log_softmax,
    matmul,
    mean_,
    mul,
    place_cols,
    relu,
    reshape,
    scatter_sum,
    segment_softmax,
    sigmoid,
    sq_l2_norm,
    sum_,
    sum_axis,
    take_cols,
    tanh,
    transpose,
)
from gnncl.engine.ops import segment_max


def test_tensor_basics():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2)
    assert t.ndim == 2
    assert t.size == 4
    assert t.data.dtype == np.float64
    s = Tensor(3.5)
    assert s.shape == ()
    assert s.item() == 3.5


def test_arithmetic_values():
    with Tape():
        a = Tensor([1.0, 2.0, 3.0])
        b = Tensor([4.0, 5.0, 6.0])
        assert np.allclose(add(a, b).data, [5, 7, 9])
        assert np.allclose(mul(a, b).data, [4, 10, 18])
        assert np.allclose(div(b, a).data, [4, 2.5, 2])
        assert np.allclose((a + b).data, [5, 7, 9])
        assert np.allclose((a * 2.0).data, [2, 4, 6])
        assert np.allclose((-a).data, [-1, -2, -3])
        row = Tensor([[1.0, 2.0, 3.0]])
        assert np.allclose((row @ Tensor(np.eye(3))).data, row.data)


def test_division_by_zero_rejected():
    with Tape():
        with pytest.raises(DomainError):
            div(Tensor([1.0]), Tensor([0.0]))


def test_log_domain_checked():
    with Tape():
        with pytest.raises(DomainError):
            log(Tensor([0.0]))


def test_reductions():
    with Tape():
        x = Tensor([[1.0, -2.0], [3.0, 4.0]])
        assert sum_(x).item() == 6.0
        assert mean_(x).item() == 1.5
        assert l1_norm(x).item() == 10.0
        assert sq_l2_norm(x).item() == 30.0
        assert np.allclose(sum_axis(x, axis=0).data, [4.0, 2.0])
        assert np.allclose(sum_axis(x, axis=1).data, [-1.0, 7.0])


def test_gather_scatter_are_duals():
    with Tape():
        x = Tensor([[1.0], [2.0], [3.0]])
        idx = np.array([2, 0, 0])
        g = gather_rows(x, idx)
        assert np.allclose(g.data, [[3.0], [1.0], [1.0]])
        s = scatter_sum(g, idx, 3)
        assert np.allclose(s.data, [[2.0], [0.0], [3.0]])


def test_segment_softmax_frozen_oracle():
    # segments (0, 0, 1) with scores (ln 1, ln 3, anything):
    # first segment -> (0.25, 0.75), singleton segment -> 1
    with Tape():
        scores = Tensor([0.0, np.log(3.0), 5.0])
        out = segment_softmax(scores, np.array([0, 0, 1]), 2)
    assert np.allclose(out.data, [0.25, 0.75, 1.0], atol=1e-12)


def test_segment_softmax_sums_to_one_per_segment():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=12) * 50  # large scale: stability check
    seg = np.sort(rng.integers(0, 4, size=12))
    seg[:3] = 0
    seg[-1] = 3
    with Tape():
        out = segment_softmax(Tensor(scores), seg, 4)
    sums = np.bincount(seg, weights=out.data, minlength=4)
    present = np.bincount(seg, minlength=4) > 0
    assert np.allclose(sums[present], 1.0)
    assert np.all(np.isfinite(out.data))


def test_gather_scatter_validation():
    x = Tensor(np.ones((3, 2)))
    with Tape():
        # bad row indices: ShapeError, whether raw or built into a plan
        for bad in (np.array([0, 3]), np.array([-1]), np.array([[0]]),
                    np.array([0.0])):
            with pytest.raises(ShapeError):
                gather_rows(x, bad)
            with pytest.raises(ShapeError):
                SegmentPlan.rows(bad, 3)
        # bad segment ids: SegmentError, whether raw or built into a plan
        for bad in (np.array([0, 0, 2]), np.array([0, -1, 1]),
                    np.array([[0, 0, 1]]), np.array([0.0, 0.0, 1.0])):
            with pytest.raises(SegmentError):
                scatter_sum(x, bad, 2)
            with pytest.raises(SegmentError):
                SegmentPlan(bad, 2)
        with pytest.raises(SegmentError):
            scatter_sum(x, np.array([0, 0, 1]), 0)
        with pytest.raises(SegmentError):
            SegmentPlan(np.array([0, 0, 1]), 0)
        with pytest.raises(ShapeError):
            scatter_sum(x, np.array([0, 1]), 2)
        # a valid plan whose bound or length does not fit the tensor
        with pytest.raises(ShapeError):
            gather_rows(x, SegmentPlan.rows(np.array([0, 1]), 4))
        with pytest.raises(SegmentError):
            scatter_sum(x, SegmentPlan(np.array([0, 0, 1]), 3), 2)
        with pytest.raises(ShapeError):
            scatter_sum(x, SegmentPlan(np.array([0, 1]), 2), 2)


def test_column_validation():
    x = Tensor(np.ones((2, 3)))
    with Tape():
        # out of range, repeated, or not integers: raw or as a plan
        for bad in (np.array([0, 3]), np.array([1, 1]), np.array([0.0])):
            with pytest.raises(ShapeError):
                take_cols(x, bad)
            with pytest.raises(ShapeError):
                place_cols(Tensor(np.ones((2, len(bad)))), bad, 3)
        with pytest.raises(ShapeError):
            take_cols(x, SegmentPlan.rows(np.array([2, 2]), 3))
        # a plan whose bound is not the width
        with pytest.raises(ShapeError):
            take_cols(x, SegmentPlan.rows(np.array([0, 1]), 4))
        with pytest.raises(ShapeError):
            place_cols(x, SegmentPlan.rows(np.array([0, 1, 2]), 3), 4)
        # one place per column of the input; matrices only
        with pytest.raises(ShapeError):
            place_cols(x, np.array([0, 1]), 3)
        with pytest.raises(ShapeError):
            take_cols(Tensor(np.ones(3)), np.array([0]))
        with pytest.raises(ShapeError):
            place_cols(Tensor(np.ones(3)), np.array([0]), 3)


def test_segment_softmax_validation():
    with Tape():
        with pytest.raises(ShapeError):
            segment_softmax(Tensor([[[1.0]]]), np.array([0]), 1)
        with pytest.raises(ShapeError):
            segment_softmax(Tensor([[[1.0]]]),
                            SegmentPlan(np.array([0]), 1), 1)
        with pytest.raises(SegmentError):
            segment_softmax(Tensor([1.0, 2.0]), np.array([0, 3]), 2)
        with pytest.raises(SegmentError):
            SegmentPlan(np.array([0, 3]), 2)
        # an empty segment, sorted or not, raw or planned
        for ids in (np.array([0, 2]), np.array([2, 0])):
            with pytest.raises(SegmentError):
                segment_softmax(Tensor([1.0, 2.0]), ids, 3)
            with pytest.raises(SegmentError):
                segment_softmax(Tensor([1.0, 2.0]), SegmentPlan(ids, 3), 3)
        with pytest.raises(SegmentError):
            segment_softmax(Tensor(np.zeros(0)), np.zeros(0, np.int64), 1)
        with pytest.raises(SegmentError):
            segment_softmax(Tensor(np.zeros(0)),
                            SegmentPlan(np.zeros(0, np.int64), 1), 1)
        # a plan that does not fit the scores or the segment count
        plan = SegmentPlan(np.array([0, 0, 1]), 2)
        with pytest.raises(ShapeError):
            segment_softmax(Tensor([1.0, 2.0]), plan, 2)
        with pytest.raises(SegmentError):
            segment_softmax(Tensor([1.0, 2.0, 3.0]), plan, 3)


def test_segment_plan_layout():
    plan = SegmentPlan(np.array([0, 0, 1, 2, 2, 2]), 3)
    assert len(plan) == 6
    assert plan.starts.tolist() == [0, 2, 3]
    assert plan.counts.tolist() == [2, 1, 3]
    assert plan.flat(2).tolist() == [0, 1, 0, 1, 2, 3, 4, 5, 4, 5, 4, 5]
    assert plan.flat(2) is plan.flat(2)
    # unsorted ids or an empty segment leave no starts
    assert SegmentPlan(np.array([1, 0]), 2).starts is None
    assert SegmentPlan(np.array([0, 2]), 3).starts is None
    assert SegmentPlan(np.array([0, 0]), 2).starts is None
    # raw ids wrapped by the ops are never scanned; row plans neither
    assert SegmentPlan(np.array([0, 1]), 2, scan=False).starts is None
    assert SegmentPlan.rows(np.array([0, 1]), 2).starts is None
    # the plan owns a read-only copy of its ids
    ids = np.array([0, 1])
    plan = SegmentPlan(ids, 2)
    ids[0] = 5
    assert plan.ids.tolist() == [0, 1]
    assert not plan.ids.flags.writeable


def test_log_softmax_large_logits_stable():
    with Tape():
        out = log_softmax(Tensor([[1000.0, 0.0], [-1000.0, 0.0]]))
    assert np.all(np.isfinite(out.data))
    assert np.allclose(np.exp(out.data).sum(axis=1), 1.0)


def test_cross_entropy_frozen_oracle():
    # logits (+10, -10) with the correct label: ln(1 + e^-20)
    with Tape():
        loss = cross_entropy(Tensor([[10.0, -10.0]]), np.array([0]))
    assert loss.item() == pytest.approx(np.log1p(np.exp(-20.0)), rel=1e-12)


def test_cross_entropy_uniform_logits():
    with Tape():
        loss = cross_entropy(Tensor(np.zeros((4, 3))), np.array([0, 1, 2, 0]))
    assert loss.item() == pytest.approx(np.log(3.0), rel=1e-12)


def test_cross_entropy_mask_and_empty_batch():
    logits = np.array([[5.0, 0.0], [0.0, 5.0], [5.0, 0.0]])
    labels = np.array([0, 1, 1])
    mask = np.array([True, True, False])
    with Tape():
        partial = cross_entropy(Tensor(logits), labels, mask)
        full = cross_entropy(Tensor(logits[:2]), labels[:2])
    assert partial.item() == pytest.approx(full.item(), rel=1e-12)
    with Tape():
        with pytest.raises(EmptyBatchError):
            cross_entropy(Tensor(logits), labels, np.zeros(3, dtype=bool))


def test_binary_cross_entropy_value_and_stability():
    with Tape():
        loss = binary_cross_entropy(Tensor([0.0, 0.0]), np.array([1.0, 0.0]))
        assert loss.item() == pytest.approx(np.log(2.0), rel=1e-12)
        extreme = binary_cross_entropy(Tensor([500.0, -500.0]),
                                       np.array([0.0, 1.0]))
        assert np.isfinite(extreme.item())


def test_binary_cross_entropy_records_on_higher_order_tape():
    z = Tensor([-1.5, 0.0, 2.0], requires_grad=True)
    targets = np.array([1.0, 0.0, 1.0])
    sig = 1.0 / (1.0 + np.exp(-z.data))
    with Tape(TapeMode.HIGHER_ORDER):
        loss = binary_cross_entropy(z, targets)
        assert loss._node_id is not None
        g = backward(loss, [z], create_graph=True)[z]
        assert g._node_id is not None
        assert np.allclose(g.data, (sig - targets) / 3, rtol=1e-12)
        second = backward(sum_(g), [z])[z]
    assert np.allclose(second.data, sig * (1.0 - sig) / 3, rtol=1e-12)


def test_backward_requires_scalar():
    with Tape():
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = mul(x, x)
        with pytest.raises(ShapeError):
            backward(y, [x])


def test_no_tape_means_constants():
    x = Tensor([1.0], requires_grad=True)
    y = mul(x, x)  # no tape: plain numeric evaluation
    assert y._node_id is None
    assert np.allclose(y.data, [1.0])


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_sigmoid_tanh_bounded(values):
    with Tape():
        x = Tensor(values)
        s = sigmoid(x).data
        t = tanh(x).data
    assert np.all((s >= 0) & (s <= 1))
    assert np.all((t >= -1) & (t <= 1))
    assert np.all(np.isfinite(s)) and np.all(np.isfinite(t))


@given(st.lists(st.floats(-20, 20), min_size=2, max_size=10),
       st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_segment_softmax_invariant_to_shift(values, num_segments):
    # per-segment shift invariance: softmax(x) == softmax(x + c)
    seg = np.arange(len(values)) % num_segments
    seg.sort()
    used = int(seg.max()) + 1
    with Tape():
        a = segment_softmax(Tensor(values), seg, used).data
        shifted = np.asarray(values) + 13.5
        b = segment_softmax(Tensor(shifted), seg, used).data
    assert np.allclose(a, b, atol=1e-10)


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_matmul_shapes(n, k, m):
    with Tape():
        out = matmul(Tensor(np.ones((n, k))), Tensor(np.ones((k, m))))
    assert out.shape == (n, m)
    assert np.allclose(out.data, k)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
       st.integers(1, 4), st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_stacked_matmul_slices_match_2d_products(n, k, m, heads, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(n, k)), rng.normal(size=(k, m))
    xs, ys = rng.normal(size=(heads, n, k)), rng.normal(size=(heads, k, m))
    for a, b, pick in ((x, ys, lambda i: (x, ys[i])),
                       (xs, y, lambda i: (xs[i], y)),
                       (xs, ys, lambda i: (xs[i], ys[i]))):
        out = matmul(Tensor(a), Tensor(b)).data
        assert out.shape == (heads, n, m)
        for i in range(heads):
            p, q = pick(i)
            assert np.array_equal(out[i], matmul(Tensor(p), Tensor(q)).data)


def test_matmul_and_transpose_validation():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4, 5))))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))
    x = Tensor(np.arange(24.0).reshape(2, 3, 4))
    with pytest.raises(ShapeError):
        transpose(x)
    with pytest.raises(ShapeError):
        transpose(x, (0, 0, 1))
    assert np.array_equal(transpose(x, (1, 0, 2)).data,
                          np.transpose(x.data, (1, 0, 2)))


def test_relu_exp_values():
    with Tape():
        x = Tensor([-2.0, 0.0, 3.0])
        assert np.allclose(relu(x).data, [0.0, 0.0, 3.0])
        assert np.allclose(exp(x).data, np.exp([-2.0, 0.0, 3.0]))


# ---------------------------------------------------------------------------
# planned kernels against their oracles, bit for bit

_finite = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)


def _add_at(values, ids, n):
    out = np.zeros((n,) + values.shape[1:])
    np.add.at(out, ids, values)
    return out


@st.composite
def _segments(draw, sort):
    n = draw(st.integers(1, 6))
    ids = draw(hnp.arrays(np.int64, st.integers(0, 24),
                          elements=st.integers(0, n - 1)))
    if sort:
        ids = np.sort(ids)
    return ids, n


@given(_segments(sort=False), st.integers(1, 3), st.integers(1, 3),
       st.data())
@settings(max_examples=150, deadline=None)
def test_planned_scatter_matches_add_at(seg, k, m, data):
    # unsorted and duplicate ids, empty segments, zero rows; one plan
    # serves three widths
    ids, n = seg
    plan = SegmentPlan(ids, n)
    for tail in ((), (k,), (k, m)):
        x = data.draw(hnp.arrays(np.float64, (len(ids),) + tail,
                                 elements=_finite))
        want = _add_at(x, ids, n)
        with Tape():
            assert np.array_equal(scatter_sum(Tensor(x), plan, n).data, want)
            assert np.array_equal(scatter_sum(Tensor(x), ids, n).data, want)


@given(_segments(sort=False), st.integers(1, 3), st.integers(1, 3),
       st.data())
@settings(max_examples=150, deadline=None)
def test_planned_gather_and_its_vjp_match_oracles(seg, k, m, data):
    # rows gathered by fancy indexing; the VJP scatters with the same
    # plan and must equal np.add.at of the upstream gradient
    ids, n = seg
    plan = SegmentPlan.rows(ids, n)
    for tail in ((), (k,), (k, m)):
        x = Tensor(data.draw(hnp.arrays(np.float64, (n,) + tail,
                                        elements=_finite)),
                   requires_grad=True)
        w = data.draw(hnp.arrays(np.float64, (len(ids),) + tail,
                                 elements=_finite))
        with Tape():
            out = gather_rows(x, plan)
            assert np.array_equal(out.data, x.data[ids])
            grad = backward(sum_(mul(out, Tensor(w))), [x])[x]
        assert np.array_equal(grad.data, _add_at(w, ids, n))


@st.composite
def _columns(draw):
    width = draw(st.integers(1, 6))
    order = draw(st.permutations(range(width)))
    cols = np.asarray(order[:draw(st.integers(0, width))], dtype=np.int64)
    return cols, width


@given(_columns(), st.integers(0, 4), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_column_primitives_match_selection_matmuls(col, n, planned, data):
    # with sel the 0/1 matrix picking cols, take_cols is x @ sel and
    # place_cols is y @ sel.T; each one's VJP is the other
    cols, width = col
    k = len(cols)
    sel = np.zeros((width, k))
    sel[cols, np.arange(k)] = 1.0
    idx = SegmentPlan.rows(cols, width) if planned else cols

    def draw(shape):
        return data.draw(hnp.arrays(np.float64, shape, elements=_finite))

    x = Tensor(draw((n, width)), requires_grad=True)
    y = Tensor(draw((n, k)), requires_grad=True)
    wx, wy = draw((n, k)), draw((n, width))
    with Tape():
        taken = take_cols(x, idx)
        placed = place_cols(y, idx, width)
        assert np.array_equal(taken.data, x.data @ sel)
        assert np.array_equal(placed.data, y.data @ sel.T)
        gx = backward(sum_(mul(taken, Tensor(wx))), [x])[x]
        gy = backward(sum_(mul(placed, Tensor(wy))), [y])[y]
    assert np.array_equal(gx.data, wx @ sel.T)
    assert np.array_equal(gy.data, wy @ sel)


@given(st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_segment_max_matches_maximum_at(sort, data):
    # sorted ids with no empty segment take the reduceat path
    ids, n = data.draw(_segments(sort=sort))
    values = data.draw(hnp.arrays(np.float64, len(ids), elements=_finite))
    plan = SegmentPlan(ids, n)
    want = np.full(n, -np.inf)
    np.maximum.at(want, ids, values)
    assert np.array_equal(segment_max(values, plan), want)
    if plan.starts is not None and len(ids):
        with Tape():
            planned = segment_softmax(Tensor(values), plan, n).data
            raw = segment_softmax(Tensor(values), ids, n).data
        assert np.array_equal(planned, raw)


@given(st.booleans(), st.booleans(), st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_segment_softmax_columns_match_1d_calls(sort, planned, heads, data):
    # an (E, H) call is H 1-D calls on its columns, values and
    # first-order gradients alike, with the max by reduceat (sorted
    # plan) or by maximum.at (raw ids, unsorted plan)
    n = data.draw(st.integers(1, 5))
    extra = data.draw(st.lists(st.integers(0, n - 1), max_size=12))
    ids = np.concatenate([np.arange(n), np.asarray(extra, np.int64)])
    ids = (np.sort(ids) if sort
           else ids[np.asarray(data.draw(st.permutations(range(len(ids)))),
                               np.int64)])
    seg = SegmentPlan(ids, n) if planned else ids
    values = data.draw(hnp.arrays(np.float64, (len(ids), heads),
                                  elements=_finite))
    up = data.draw(hnp.arrays(np.float64, (len(ids), heads),
                              elements=_finite))
    x = Tensor(values, requires_grad=True)
    with Tape():
        out = segment_softmax(x, seg, n)
        grad = backward(sum_(mul(out, Tensor(up))), [x])[x]
    for h in range(heads):
        col = Tensor(values[:, h].copy(), requires_grad=True)
        with Tape():
            want = segment_softmax(col, seg, n)
            want_grad = backward(sum_(mul(want, Tensor(up[:, h].copy()))),
                                 [col])[col]
        assert _same(out.data[:, h], want.data)
        assert _same(grad.data[:, h], want_grad.data)


# fused edge kernels against the chains of ops they replace ---------------

_signed = st.one_of(st.just(0.0), st.just(-0.0), _finite)


def _same(a, b):
    """Equal values with equal signs of zero."""
    return (np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@st.composite
def _edge_lists(draw):
    """(rows, ids, num_rows, num_segments): unsorted row indices into
    ``num_rows`` rows and segment ids, sorted or not, that may leave
    segments empty; zero edges allowed."""
    num_rows = draw(st.integers(1, 5))
    num_segments = draw(st.integers(1, 5))
    e = draw(st.integers(0, 12))
    rows = draw(hnp.arrays(np.int64, e,
                           elements=st.integers(0, num_rows - 1)))
    ids = draw(hnp.arrays(np.int64, e,
                          elements=st.integers(0, num_segments - 1)))
    if draw(st.booleans()):
        ids = np.sort(ids)
    return rows, ids, num_rows, num_segments


# last widths below 8 and at or above 8, where numpy sums pairwise
_widths = st.sampled_from([1, 3, 7, 8, 9, 16, 19])


@given(_edge_lists(), st.sampled_from(["none", "row", "head"]), _widths,
       st.integers(1, 3), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_fused_scatter_matches_gather_mul_scatter(edges, weighting, d,
                                                  heads, planned, data):
    # out[v] = sum of w[e] * x[src[e]] over idx[e] == v: no weights,
    # one weight per edge on (n, d) rows, or one per edge and head on
    # (n, H, d) rows; values and first-order VJPs bit for bit
    rows, ids, n, m = edges
    e = len(rows)
    tail = (heads, d) if weighting == "head" else (d,)

    def draw(shape):
        return data.draw(hnp.arrays(np.float64, shape, elements=_signed))

    x = Tensor(draw((n,) + tail), requires_grad=True)
    params = [x]
    w = None
    if weighting != "none":
        w = Tensor(draw((e,) + tail[:-1]), requires_grad=True)
        params.append(w)
    up = Tensor(draw((m,) + tail))
    src, idx = ((SegmentPlan.rows(rows, n), SegmentPlan(ids, m))
                if planned else (rows, ids))
    with Tape():
        out = scatter_sum(x, idx, m, src=src, weights=w)
        grads = backward(sum_(mul(out, up)), params)
    with Tape():
        msgs = gather_rows(x, src)
        if w is not None:
            msgs = mul(msgs, reshape(w, w.shape + (1,)))
        want = scatter_sum(msgs, idx, m)
        want_grads = backward(sum_(mul(want, up)), params)
    assert _same(out.data, want.data)
    assert _same(grads[x].data, want_grads[x].data)
    if w is not None:
        # a sum starts from +0.0, and the chain's sum_to leaves a last
        # axis of width 1 unsummed, so there a lone -0.0 keeps its sign
        same = _same if d > 1 else np.array_equal
        assert same(grads[w].data, want_grads[w].data)


@given(_edge_lists(), st.booleans(), _widths, st.integers(1, 3),
       st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_edge_dot_matches_gather_mul_sum(edges, per_head, d, heads, planned,
                                         data):
    # out[e] = sum over the last axis of a[ia[e]] * b[ib[e]], for
    # (n, d) and (n, H, d) rows; values and first-order VJPs bit for bit;
    # one plan may serve both ends
    rows, ids, na, nb = edges
    shared = planned and data.draw(st.booleans())
    if shared:
        ids, nb = rows, na
    tail = (heads, d) if per_head else (d,)

    def draw(shape):
        return data.draw(hnp.arrays(np.float64, shape, elements=_signed))

    a = Tensor(draw((na,) + tail), requires_grad=True)
    b = Tensor(draw((nb,) + tail), requires_grad=True)
    up = Tensor(draw((len(rows),) + tail[:-1]))
    ia, ib = ((SegmentPlan.rows(rows, na), SegmentPlan(ids, nb))
              if planned else (rows, ids))
    if shared:
        ib = ia
    with Tape():
        out = edge_dot(a, b, ia, ib)
        grads = backward(sum_(mul(out, up)), [a, b])
    with Tape():
        want = sum_axis(mul(gather_rows(a, ia), gather_rows(b, ib)), -1)
        want_grads = backward(sum_(mul(want, up)), [a, b])
    assert _same(out.data, want.data)
    for p in (a, b):
        assert _same(grads[p].data, want_grads[p].data)


def test_fused_edge_kernel_validation():
    x = Tensor(np.ones((3, 2, 4)))
    src, dst = np.array([0, 2, 1]), np.array([1, 1, 0])
    with Tape():
        # weights scale gathered rows: src is required, and the weights
        # are (E,) for (n, d) rows or (E, H) for (n, H, d) rows
        with pytest.raises(ShapeError):
            scatter_sum(x, dst, 2, weights=np.ones((3, 2)))
        for bad in (np.ones(3), np.ones((3, 4)), np.ones((2, 2))):
            with pytest.raises(ShapeError):
                scatter_sum(x, dst, 2, src=src, weights=bad)
        with pytest.raises(ShapeError):
            scatter_sum(Tensor(np.ones(3)), dst, 2, src=src,
                        weights=np.ones(3))
        # src is checked as rows of x, idx as segments, one per src
        with pytest.raises(ShapeError):
            scatter_sum(x, dst, 2, src=np.array([0, 3, 1]))
        with pytest.raises(ShapeError):
            scatter_sum(x, dst[:2], 2, src=src)
        with pytest.raises(SegmentError):
            scatter_sum(x, np.array([0, 2, 1]), 2, src=src)
        # edge_dot: rows of one shape, endpoints of one length, in range
        with pytest.raises(ShapeError):
            edge_dot(x, Tensor(np.ones((3, 2, 3))), src, dst)
        with pytest.raises(ShapeError):
            edge_dot(Tensor(np.ones(3)), Tensor(np.ones(3)), src, dst)
        with pytest.raises(ShapeError):
            edge_dot(x, x, src, dst[:2])
        with pytest.raises(ShapeError):
            edge_dot(x, x, src, np.array([0, 3, 1]))
