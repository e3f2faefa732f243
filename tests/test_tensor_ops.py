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
            segment_softmax(Tensor([[1.0]]), np.array([0]), 1)
        with pytest.raises(ShapeError):
            segment_softmax(Tensor([[1.0]]), SegmentPlan(np.array([0]), 1), 1)
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


@given(st.lists(st.integers(0, 4), min_size=1, max_size=12),
       st.integers(1, 4), st.booleans())
@settings(max_examples=60, deadline=None)
def test_plan_copies_match_a_validated_plan(ids, count, rows):
    # copy c of the range [0, bound) is [c*bound, (c+1)*bound); the
    # copied plan equals one built and scanned from the shifted ids,
    # and is kept on the plan it was copied from
    ids = np.sort(np.asarray(ids)) if not rows else np.asarray(ids)
    bound = int(ids.max()) + 1
    plan = (SegmentPlan.rows(ids, bound) if rows
            else SegmentPlan(ids, bound))
    shifted = np.concatenate([ids + c * bound for c in range(count)])
    want = (SegmentPlan.rows(shifted, count * bound) if rows
            else SegmentPlan(shifted, count * bound))
    got = plan.copies(count)
    assert got.bound == want.bound
    assert np.array_equal(got.ids, want.ids)
    assert not got.ids.flags.writeable
    if want.starts is None:
        assert got.starts is None
    else:
        assert np.array_equal(got.starts, want.starts)
    assert np.array_equal(got.flat(3), want.flat(3))
    assert plan.copies(count) is got
    assert plan.copies(1) is plan


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
