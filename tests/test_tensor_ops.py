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
    Tensor,
    add,
    backward,
    binary_cross_entropy,
    cross_entropy,
    div,
    edge_dot,
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
    sub,
    sum_,
    sum_axis,
    take_cols,
    tanh,
    transpose,
)
from gnncl.engine import segments
from gnncl.engine.ops import segment_max


def _kernels():
    """Run a loop body once with each kernel of ``scatter_sum``: the
    slot loop, then one bincount. The plan picks one by the number of
    values per slot; here ``SLOT_VALUES`` forces each in turn."""
    for values in (0, 1 << 62):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(segments, "SLOT_VALUES", values)
            yield


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
        assert np.allclose(mul(a, 2.0).data, [2, 4, 6])
        assert np.allclose(neg(a).data, [-1, -2, -3])
        row = Tensor([[1.0, 2.0, 3.0]])
        assert np.allclose(matmul(row, Tensor(np.eye(3))).data, row.data)


def _bits(a):
    return np.ascontiguousarray(a, np.float64).view(np.int64)


def test_leaky_relu_matches_where_oracle():
    # the slope table and x * slope give np.where's bits, signs of zero
    # and NaN included, for values and the gradient alike
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
               -5e-324, 2.2e-308, -2.2e-308, 1.5, -1.5]
    values = np.concatenate([special, np.random.default_rng(3)
                             .standard_normal(36)]).reshape(4, 12)
    for alpha in (0.2, 0.01, 1.5):
        x = Tensor(values.copy(), requires_grad=True)
        # the loss sums +inf and -inf; only its gradient is checked
        with Tape(), np.errstate(invalid="ignore"):
            out = leaky_relu(x, alpha)
            grad = backward(sum_(out), [x])[x]
        want = np.where(values > 0, values, alpha * values)
        assert np.array_equal(_bits(out.data), _bits(want))
        assert np.array_equal(_bits(grad.data),
                              _bits(np.where(values > 0, 1.0, alpha)))


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
        assert sq_l2_norm(x).item() == 30.0
        assert np.allclose(sum_axis(x, axis=0).data, [4.0, 2.0])
        assert np.allclose(sum_axis(x, axis=1).data, [-1.0, 7.0])


def test_gather_scatter_are_duals():
    with Tape():
        x = Tensor([[1.0], [2.0], [3.0]])
        idx = SegmentPlan.rows(np.array([2, 0, 0]), 3)
        g = gather_rows(x, idx)
        assert np.allclose(g.data, [[3.0], [1.0], [1.0]])
        s = scatter_sum(g, idx)
        assert np.allclose(s.data, [[2.0], [0.0], [3.0]])


def test_segment_softmax_frozen_oracle():
    # segments (0, 0, 1) with scores (ln 1, ln 3, anything):
    # first segment -> (0.25, 0.75), singleton segment -> 1
    with Tape():
        scores = Tensor([0.0, np.log(3.0), 5.0])
        out = segment_softmax(scores, SegmentPlan(np.array([0, 0, 1]), 2))
    assert np.allclose(out.data, [0.25, 0.75, 1.0], atol=1e-12)


def test_segment_softmax_sums_to_one_per_segment():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=12) * 50  # large scale: stability check
    seg = np.sort(rng.integers(0, 4, size=12))
    seg[:3] = 0
    seg[-1] = 3
    with Tape():
        out = segment_softmax(Tensor(scores), SegmentPlan(seg, 4))
    sums = np.bincount(seg, weights=out.data, minlength=4)
    present = np.bincount(seg, minlength=4) > 0
    assert np.allclose(sums[present], 1.0)
    assert np.all(np.isfinite(out.data))


def test_gather_scatter_validation():
    x = Tensor(np.ones((3, 2)))
    with Tape():
        # bad row indices are refused as the plan is built: ShapeError
        for bad in (np.array([0, 3]), np.array([-1]), np.array([[0]]),
                    np.array([0.0])):
            with pytest.raises(ShapeError):
                SegmentPlan.rows(bad, 3)
        # bad segment ids or count: SegmentError
        for bad in (np.array([0, 0, 2]), np.array([0, -1, 1]),
                    np.array([[0, 0, 1]]), np.array([0.0, 0.0, 1.0])):
            with pytest.raises(SegmentError):
                SegmentPlan(bad, 2)
        with pytest.raises(SegmentError):
            SegmentPlan(np.array([0, 0, 1]), 0)
        # a valid plan whose bound or length does not fit the tensor
        with pytest.raises(ShapeError):
            gather_rows(x, SegmentPlan.rows(np.array([0, 1]), 4))
        with pytest.raises(ShapeError):
            scatter_sum(x, SegmentPlan(np.array([0, 1]), 2))


def _indexed_calls():
    """Each indexed op's call with one index left open, and a plan that
    fits it."""
    x = Tensor(np.ones((3, 2)))
    rows = SegmentPlan.rows(np.array([0, 2, 2]), 3)
    seg = SegmentPlan(np.array([0, 1, 1]), 2)
    col = SegmentPlan.rows(np.array([1]), 2)
    return {
        "gather_rows": (lambda i: gather_rows(x, i), rows),
        "scatter_sum-idx": (lambda i: scatter_sum(x, i), seg),
        "scatter_sum-src": (lambda i: scatter_sum(x, seg, src=i), rows),
        "edge_dot-ia": (lambda i: edge_dot(x, x, i, rows), rows),
        "edge_dot-ib": (lambda i: edge_dot(x, x, rows, i), rows),
        "segment_softmax": (
            lambda i: segment_softmax(Tensor(np.ones(3)), i), seg),
        "take_cols": (lambda i: take_cols(x, i), col),
        "place_cols": (lambda i: place_cols(Tensor(np.ones((3, 1))), i), col),
    }


@pytest.mark.parametrize("call", sorted(_indexed_calls()))
def test_indexed_ops_take_only_plans(call):
    # a plan is the one index type: the same ids as an array are refused
    op, plan = _indexed_calls()[call]
    with Tape():
        op(plan)
        with pytest.raises(TypeError, match="SegmentPlan"):
            op(plan.ids.copy())


def test_column_validation():
    x = Tensor(np.ones((2, 3)))
    with Tape():
        # out of range or not integers: refused as the plan is built
        for bad in (np.array([0, 3]), np.array([0.0])):
            with pytest.raises(ShapeError):
                SegmentPlan.rows(bad, 3)
        # a repeated column, taken or placed
        repeated = SegmentPlan.rows(np.array([1, 1]), 3)
        with pytest.raises(ShapeError):
            take_cols(x, repeated)
        with pytest.raises(ShapeError):
            place_cols(Tensor(np.ones((2, 2))), repeated)
        # a plan whose bound is not the width
        with pytest.raises(ShapeError):
            take_cols(x, SegmentPlan.rows(np.array([0, 1]), 4))
        # one place per column of the input; matrices only
        first = SegmentPlan.rows(np.array([0]), 3)
        with pytest.raises(ShapeError):
            place_cols(x, SegmentPlan.rows(np.array([0, 1]), 3))
        with pytest.raises(ShapeError):
            take_cols(Tensor(np.ones(3)), first)
        with pytest.raises(ShapeError):
            place_cols(Tensor(np.ones(3)), first)


def test_segment_softmax_validation():
    with Tape():
        with pytest.raises(ShapeError):
            segment_softmax(Tensor([[[1.0]]]), SegmentPlan(np.array([0]), 1))
        with pytest.raises(SegmentError):
            SegmentPlan(np.array([0, 3]), 2)
        # an empty segment, sorted or not, scanned for starts or not
        for ids in (np.array([0, 2]), np.array([2, 0])):
            for plan in (SegmentPlan(ids, 3), SegmentPlan.rows(ids, 3)):
                with pytest.raises(SegmentError):
                    segment_softmax(Tensor([1.0, 2.0]), plan)
        with pytest.raises(SegmentError):
            segment_softmax(Tensor(np.zeros(0)),
                            SegmentPlan(np.zeros(0, np.int64), 1))
        # a plan that does not fit the scores
        plan = SegmentPlan(np.array([0, 0, 1]), 2)
        with pytest.raises(ShapeError):
            segment_softmax(Tensor([1.0, 2.0]), plan)


def test_segment_plan_layout():
    plan = SegmentPlan(np.array([0, 0, 1, 2, 2, 2]), 3)
    assert len(plan) == 6
    assert plan.starts.tolist() == [0, 2, 3]
    assert plan.counts.tolist() == [2, 1, 3]
    # segments ranked by size (2, 0, 1); slot k lists the k-th entry of
    # each segment that has one, in rank order: (3, 0, 2), (4, 1), (5)
    slots = plan.slots
    assert slots.pos.tolist() == [1, 2, 0]
    assert slots.perm.tolist() == [3, 0, 2, 4, 1, 5]
    assert slots.spans == [(3, 0), (2, 3), (1, 5)]
    assert plan.slots is slots
    # unsorted ids take the same layout, entries in entry order
    slots = SegmentPlan(np.array([2, 0, 2, 1, 0, 2]), 3).slots
    assert slots.perm.tolist() == [0, 1, 3, 2, 4, 5]
    assert slots.spans == [(3, 0), (2, 3), (1, 5)]
    # ids past 16 bits, unsorted, with most segments empty
    ids = np.array([5, 69999, 5, 69999, 69999])
    plan = SegmentPlan(ids, 70000)
    assert plan.slots.perm.tolist() == [1, 0, 3, 2, 4]
    assert plan.slots.pos[[69999, 5, 0]].tolist() == [0, 1, 2]
    x = np.arange(5.0)
    for _ in _kernels():
        with Tape():
            assert np.array_equal(scatter_sum(Tensor(x), plan).data,
                                  _add_at(x, ids, 70000))
    # unsorted ids or an empty segment leave no starts
    assert SegmentPlan(np.array([1, 0]), 2).starts is None
    assert SegmentPlan(np.array([0, 2]), 3).starts is None
    assert SegmentPlan(np.array([0, 0]), 2).starts is None
    # row plans are never scanned, and segment plans always are
    assert SegmentPlan.rows(np.array([0, 1]), 2).starts is None
    with pytest.raises(TypeError):
        SegmentPlan(np.array([0, 1]), 2, scan=False)
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

    def masked(rows):
        plan = SegmentPlan.rows(np.flatnonzero(rows), 3)
        return cross_entropy(gather_rows(Tensor(logits), plan),
                             labels[plan.ids])

    with Tape():
        partial = masked(mask)
        full = cross_entropy(Tensor(logits[:2]), labels[:2])
    assert partial.item() == pytest.approx(full.item(), rel=1e-12)
    with Tape():
        with pytest.raises(EmptyBatchError):
            masked(np.zeros(3, dtype=bool))


def test_cross_entropy_refuses_boolean_rows():
    # rows are indices only; a boolean array is not read as 0/1 rows
    with pytest.raises(ShapeError):
        SegmentPlan.rows(np.array([True, True, False]), 3)


def _ce_value_and_grad(logits, labels, loss_fn=cross_entropy):
    x = Tensor(logits, requires_grad=True)
    with Tape():
        loss = loss_fn(x, labels)
        grad = backward(loss, [x])[x].data
    return loss.item(), grad


def test_cross_entropy_one_hot_probabilities_equal_integer_labels():
    logits = np.random.default_rng(0).normal(size=(5, 3))
    labels = np.array([0, 2, 1, 1, 0])
    want = _ce_value_and_grad(logits, labels)
    got = _ce_value_and_grad(logits, np.eye(3)[labels])
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])


def test_cross_entropy_soft_targets_equal_the_written_out_formula():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(4, 3))
    probs = rng.random((4, 3))
    probs /= probs.sum(axis=1, keepdims=True)

    def written_out(x, p):
        return neg(div(sum_(mul(Tensor(p), log_softmax(x))),
                       Tensor(float(x.shape[0]))))

    want = _ce_value_and_grad(logits, probs, written_out)
    got = _ce_value_and_grad(logits, probs)
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan])
def test_cross_entropy_refuses_targets_outside_unit_interval(bad):
    probs = np.full((2, 3), 1 / 3)
    probs[1, 2] = bad
    with pytest.raises(DomainError):
        cross_entropy(Tensor(np.zeros((2, 3))), probs)


@pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan])
def test_binary_cross_entropy_refuses_targets_outside_unit_interval(bad):
    with pytest.raises(DomainError):
        binary_cross_entropy(Tensor([0.0, 1.0]), np.array([bad, 1.0]))


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
    with Tape():
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
    plan = SegmentPlan(seg, int(seg.max()) + 1)
    with Tape():
        a = segment_softmax(Tensor(values), plan).data
        shifted = np.asarray(values) + 13.5
        b = segment_softmax(Tensor(shifted), plan).data
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


def _skew(draw, ids, n):
    """``ids``, or with one segment (a hub) given all entries but every
    fourth: one deep segment among shallow and empty ones."""
    if len(ids) and draw(st.booleans()):
        hub = draw(st.integers(0, n - 1))
        ids = np.where(np.arange(len(ids)) % 4 == 0, ids, hub)
    return ids


@st.composite
def _segments(draw, sort):
    """(ids, n): segment ids in [0, n), zero of them or more, that may
    leave segments empty and may pile into one segment."""
    n = draw(st.integers(1, 6))
    ids = draw(hnp.arrays(np.int64, st.integers(0, 24),
                          elements=st.integers(0, n - 1)))
    ids = _skew(draw, ids, n)
    if sort:
        ids = np.sort(ids)
    return ids, n


@given(_segments(sort=False), st.integers(1, 3), st.integers(1, 3),
       st.data())
@settings(max_examples=150, deadline=None)
def test_planned_scatter_matches_add_at(seg, k, m, data):
    # unsorted and duplicate ids, empty segments, zero rows; one plan
    # and its one workspace serve three widths, growing or shrinking
    ids, n = seg
    plan = SegmentPlan(ids, n)
    tails = data.draw(st.permutations([(), (k,), (k, m)]))
    xs = [data.draw(hnp.arrays(np.float64, (len(ids),) + tail,
                               elements=_finite)) for tail in tails]
    for _ in _kernels():
        for x in xs:
            want = _add_at(x, ids, n)
            with Tape():
                assert np.array_equal(scatter_sum(Tensor(x), plan).data,
                                      want)


def _arrays_held(obj, seen=None):
    """Every numpy array reachable from ``obj`` through slots, dicts,
    lists and tuples."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        parts = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        parts = list(obj)
    else:
        parts = [getattr(obj, name, None)
                 for cls in type(obj).__mro__
                 for name in getattr(cls, "__slots__", ())]
    return [a for part in parts for a in _arrays_held(part, seen)]


def test_wide_scatter_keeps_no_per_width_index():
    # width-16 scatters, plain and fused, with SLOT_VALUES values per
    # slot sum slot by slot: they cache float buffers on their plans
    # but no integer index longer than the plan, nothing of E x width
    # entries
    rng = np.random.default_rng(5)
    ids = rng.permutation(np.repeat(np.arange(64), 10))
    rows = rng.integers(0, 9, 640)
    plan, src = SegmentPlan(ids, 64), SegmentPlan.rows(rows, 9)
    x = Tensor(rng.standard_normal((640, 4, 4)))
    y = Tensor(rng.standard_normal((9, 4, 4)))
    w = rng.standard_normal((640, 4))
    with Tape():
        got = scatter_sum(x, plan)
        fused = scatter_sum(y, plan, src=src, weights=w)
    assert np.array_equal(got.data, _add_at(x.data, ids, 64))
    assert np.array_equal(
        fused.data, _add_at(y.data[rows] * w[..., None], ids, 64))
    for p in (plan, src):
        held = [a for a in _arrays_held(p) if a.dtype.kind in "iu"]
        assert held and all(a.size <= max(len(p), p.bound) for a in held)
    # 640 rows of 16 values over segments 10 deep: SLOT_VALUES a slot
    assert len(plan) * 16 == segments.SLOT_VALUES * plan.depth


def test_scatters_of_one_width_share_one_accumulator():
    # (4, 4) rows and (16,) rows are both 16 values wide: a plan that
    # sums both slot by slot keeps one (bound x 16) accumulator, and
    # each result still has its own row shape
    rng = np.random.default_rng(6)
    ids = rng.permutation(np.repeat(np.arange(64), 10))
    plan = SegmentPlan(ids, 64)
    for tail in ((4, 4), (16,)):
        x = Tensor(rng.standard_normal((640,) + tail))
        assert np.array_equal(scatter_sum(x, plan).data,
                              _add_at(x.data, ids, 64))
    owned = [a for a in _arrays_held(plan)
             if a.dtype.kind == "f" and a.flags.owndata]
    assert sum(a.size for a in owned) == 64 * 16


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
        for _ in _kernels():
            with Tape():
                out = gather_rows(x, plan)
                assert np.array_equal(out.data, x.data[ids])
                grad = backward(sum_(mul(out, Tensor(w))), [x])[x]
            assert np.array_equal(grad.data, _add_at(w, ids, n))


@st.composite
def _columns(draw):
    width = draw(st.integers(0, 6))
    order = draw(st.permutations(range(width)))
    cols = np.asarray(order[:draw(st.integers(0, width))], dtype=np.int64)
    return cols, width


@given(_columns(), st.integers(0, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_column_primitives_match_selection_matmuls(col, n, data):
    # with sel the 0/1 matrix picking cols, take_cols is x @ sel and
    # place_cols is y @ sel.T; each one's VJP is the other
    cols, width = col
    k = len(cols)
    sel = np.zeros((width, k))
    sel[cols, np.arange(k)] = 1.0
    idx = SegmentPlan.rows(cols, width)

    def draw(shape):
        return data.draw(hnp.arrays(np.float64, shape, elements=_finite))

    x = Tensor(draw((n, width)), requires_grad=True)
    y = Tensor(draw((n, k)), requires_grad=True)
    wx, wy = draw((n, k)), draw((n, width))
    with Tape():
        taken = take_cols(x, idx)
        placed = place_cols(y, idx)
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
        # the same ids as row indices carry no starts: max by maximum.at
        with Tape():
            scanned = segment_softmax(Tensor(values), plan).data
            unscanned = segment_softmax(Tensor(values),
                                        SegmentPlan.rows(ids, n)).data
        assert np.array_equal(scanned, unscanned)


@given(st.booleans(), st.booleans(), st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_segment_softmax_columns_match_1d_calls(sort, scanned, heads, data):
    # an (E, H) call is H 1-D calls on its columns, values and
    # first-order gradients alike, with the max by reduceat (sorted
    # plan) or by maximum.at (row plan, unsorted plan)
    n = data.draw(st.integers(1, 5))
    extra = data.draw(st.lists(st.integers(0, n - 1), max_size=12))
    ids = np.concatenate([np.arange(n), np.asarray(extra, np.int64)])
    ids = (np.sort(ids) if sort
           else ids[np.asarray(data.draw(st.permutations(range(len(ids)))),
                               np.int64)])
    seg = SegmentPlan(ids, n) if scanned else SegmentPlan.rows(ids, n)
    values = data.draw(hnp.arrays(np.float64, (len(ids), heads),
                                  elements=_finite))
    up = data.draw(hnp.arrays(np.float64, (len(ids), heads),
                              elements=_finite))
    wants = []
    for h in range(heads):
        col = Tensor(values[:, h].copy(), requires_grad=True)
        with Tape():
            want = segment_softmax(col, seg)
            want_grad = backward(sum_(mul(want, Tensor(up[:, h].copy()))),
                                 [col])[col]
        wants.append((want.data, want_grad.data))
    x = Tensor(values, requires_grad=True)
    for _ in _kernels():
        with Tape():
            out = segment_softmax(x, seg)
            grad = backward(sum_(mul(out, Tensor(up))), [x])[x]
        for h, (want, want_grad) in enumerate(wants):
            assert _same(out.data[:, h], want)
            assert _same(grad.data[:, h], want_grad)


def _softmax_chain(scores, plan):
    """The chain of recorded ops that ``segment_softmax`` fuses: exp of
    the shifted scores, divided by their gathered per-segment sums."""
    shift = np.take(segment_max(scores.data, plan), plan.ids, axis=0)
    num = exp(sub(scores, Tensor(shift)))
    return div(num, gather_rows(scatter_sum(num, plan), plan))


@given(st.sampled_from(["sorted", "rows", "unsorted"]),
       st.sampled_from([None, 1, 3]), st.data())
@settings(max_examples=100, deadline=None)
def test_segment_softmax_is_one_node_equal_to_its_chain(layout, heads, data):
    # the value bit for bit and the first-order gradient to 1e-12 of the
    # cotangent's scale, on (E,) and (E, H) scores, with the max by
    # reduceat (sorted plan) or by maximum.at (row plan, unsorted plan);
    # the call leaves one segment_softmax node and no node of the chain
    n = data.draw(st.integers(1, 5))
    extra = data.draw(st.lists(st.integers(0, n - 1), max_size=12))
    ids = np.sort(np.concatenate([np.arange(n),
                                  np.asarray(extra, np.int64)]))
    if layout == "unsorted":
        ids = ids[np.asarray(data.draw(st.permutations(range(len(ids)))),
                             np.int64)]
    seg = (SegmentPlan.rows(ids, n) if layout == "rows"
           else SegmentPlan(ids, n))
    if layout != "unsorted":  # a permutation may come out sorted
        assert (seg.starts is not None) == (layout == "sorted")
    shape = (len(ids),) if heads is None else (len(ids), heads)
    values = data.draw(hnp.arrays(np.float64, shape, elements=_finite))
    up = Tensor(data.draw(hnp.arrays(np.float64, shape, elements=_finite)))
    x = Tensor(values, requires_grad=True)
    for _ in _kernels():
        results = []
        for softmax in (segment_softmax, _softmax_chain):
            with Tape() as tape:
                out = softmax(x, seg)
                ops = [node.op for node in tape.nodes if node.op != "leaf"]
                grad = backward(sum_(mul(out, up)), [x])[x]
            results.append((out.data, grad.data, ops))
        (out, grad, ops), (want, want_grad, chain_ops) = results
        assert ops == ["segment_softmax"]
        assert chain_ops == ["sub", "exp", "scatter_sum", "gather_rows",
                             "div"]
        assert _same(out, want)
        scale = max(1.0, float(np.max(np.abs(up.data))))
        assert np.max(np.abs(grad - want_grad)) <= 1e-12 * scale


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
    segments empty or pile into one; zero edges allowed."""
    num_rows = draw(st.integers(1, 5))
    num_segments = draw(st.integers(1, 5))
    e = draw(st.integers(0, 12))
    rows = draw(hnp.arrays(np.int64, e,
                           elements=st.integers(0, num_rows - 1)))
    ids = draw(hnp.arrays(np.int64, e,
                          elements=st.integers(0, num_segments - 1)))
    ids = _skew(draw, ids, num_segments)
    if draw(st.booleans()):
        ids = np.sort(ids)
    return rows, ids, num_rows, num_segments


# last widths below 8 and at or above 8, where numpy sums pairwise
_widths = st.sampled_from([1, 3, 7, 8, 9, 16, 19])


@given(_edge_lists(), st.sampled_from(["none", "row", "head"]), _widths,
       st.integers(1, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_fused_scatter_matches_gather_mul_scatter(edges, weighting, d,
                                                  heads, data):
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
    src, idx = SegmentPlan.rows(rows, n), SegmentPlan(ids, m)
    with Tape():
        msgs = gather_rows(x, src)
        if w is not None:
            msgs = mul(msgs, reshape(w, w.shape + (1,)))
        want = scatter_sum(msgs, idx)
        want_grads = backward(sum_(mul(want, up)), params)
    for _ in _kernels():
        with Tape():
            out = scatter_sum(x, idx, src=src, weights=w)
            grads = backward(sum_(mul(out, up)), params)
        assert _same(out.data, want.data)
        assert _same(grads[x].data, want_grads[x].data)
        if w is not None:
            # a sum starts from +0.0, and the chain's sum_to leaves a
            # last axis of width 1 unsummed, so there a lone -0.0 keeps
            # its sign
            same = _same if d > 1 else np.array_equal
            assert same(grads[w].data, want_grads[w].data)


@given(_edge_lists(), st.booleans(), _widths, st.integers(1, 3),
       st.data())
@settings(max_examples=200, deadline=None)
def test_edge_dot_matches_gather_mul_sum(edges, per_head, d, heads, data):
    # out[e] = sum over the last axis of a[ia[e]] * b[ib[e]], for
    # (n, d) and (n, H, d) rows; values and first-order VJPs bit for bit;
    # one plan may serve both ends
    rows, ids, na, nb = edges
    shared = data.draw(st.booleans())
    if shared:
        ids, nb = rows, na
    tail = (heads, d) if per_head else (d,)

    def draw(shape):
        return data.draw(hnp.arrays(np.float64, shape, elements=_signed))

    a = Tensor(draw((na,) + tail), requires_grad=True)
    b = Tensor(draw((nb,) + tail), requires_grad=True)
    up = Tensor(draw((len(rows),) + tail[:-1]))
    ia, ib = SegmentPlan.rows(rows, na), SegmentPlan(ids, nb)
    if shared:
        ib = ia
    with Tape():
        want = sum_axis(mul(gather_rows(a, ia), gather_rows(b, ib)), -1)
        want_grads = backward(sum_(mul(want, up)), [a, b])
    for _ in _kernels():
        with Tape():
            out = edge_dot(a, b, ia, ib)
            grads = backward(sum_(mul(out, up)), [a, b])
        assert _same(out.data, want.data)
        for p in (a, b):
            assert _same(grads[p].data, want_grads[p].data)


def test_fused_edge_kernel_validation():
    x = Tensor(np.ones((3, 2, 4)))
    src = SegmentPlan.rows(np.array([0, 2, 1]), 3)
    dst = SegmentPlan(np.array([1, 1, 0]), 2)
    ends = SegmentPlan.rows(np.array([1, 1, 0]), 3)
    with Tape():
        # weights scale gathered rows: src is required, and the weights
        # are (E,) for (n, d) rows or (E, H) for (n, H, d) rows
        with pytest.raises(ShapeError):
            scatter_sum(x, dst, weights=np.ones((3, 2)))
        for bad in (np.ones(3), np.ones((3, 4)), np.ones((2, 2))):
            with pytest.raises(ShapeError):
                scatter_sum(x, dst, src=src, weights=bad)
        with pytest.raises(ShapeError):
            scatter_sum(Tensor(np.ones(3)), dst, src=src,
                        weights=np.ones(3))
        # src is checked as rows of x, idx as segments, one per src
        with pytest.raises(ShapeError):
            scatter_sum(x, dst, src=SegmentPlan.rows(np.array([0, 3, 1]), 4))
        with pytest.raises(ShapeError):
            scatter_sum(x, SegmentPlan(np.array([1, 0]), 2), src=src)
        with pytest.raises(SegmentError):
            SegmentPlan(np.array([0, 2, 1]), 2)
        # edge_dot: rows of one shape, endpoints of one length, in range
        with pytest.raises(ShapeError):
            edge_dot(x, Tensor(np.ones((3, 2, 3))), src, ends)
        with pytest.raises(ShapeError):
            edge_dot(Tensor(np.ones(3)), Tensor(np.ones(3)), src, ends)
        with pytest.raises(ShapeError):
            edge_dot(x, x, src, SegmentPlan.rows(np.array([1, 1]), 3))
        with pytest.raises(ShapeError):
            edge_dot(x, x, src, SegmentPlan.rows(np.array([0, 3, 1]), 4))


_flat_shapes = st.sampled_from([(), (0,), (3,), (2, 0), (2, 3), (2, 1, 3),
                                (1, 2, 2)])


@given(st.lists(st.tuples(_flat_shapes, st.booleans()), max_size=5),
       st.data())
@settings(max_examples=150, deadline=None)
def test_flat_concat_and_its_vjp_match_concatenate_and_slices(inputs, data):
    # 0-d, empty and 3-D inputs, some of them constants: the vector is
    # np.concatenate of the raveled inputs, each live input's cotangent
    # is its slice of the upstream vector, and flat_split cuts the same
    # slices
    def draw(shape):
        return data.draw(hnp.arrays(np.float64, shape, elements=_finite))

    xs = [Tensor(draw(shape), requires_grad=live) for shape, live in inputs]
    live = [x for x in xs if x.requires_grad]
    want = np.concatenate([np.zeros(0)] + [x.data.ravel() for x in xs])
    up = draw(want.shape)
    bounds = np.cumsum([0] + [x.size for x in xs])
    slices = [up[lo:hi].reshape(x.shape)
              for x, lo, hi in zip(xs, bounds[:-1], bounds[1:])]
    with Tape() as tape:
        out = flat_concat(xs)
        assert np.array_equal(out.data, want)
        if not live:
            assert len(tape) == 0
            return
        grads = backward(sum_(mul(out, Tensor(up))), live)
    for x, piece in zip(xs, slices):
        if x.requires_grad:
            assert np.array_equal(grads[x].data, piece)
    for got, piece in zip(flat_split(Tensor(up), [x.shape for x in xs]),
                          slices):
        assert np.array_equal(got.data, piece)


def test_flat_split_validation():
    with pytest.raises(ShapeError):
        flat_split(Tensor(np.ones(5)), [(2,), (2,)])
    with pytest.raises(ShapeError):
        flat_split(Tensor(np.ones((2, 2))), [(2, 2)])
    assert flat_split(Tensor(np.zeros(0)), []) == []
