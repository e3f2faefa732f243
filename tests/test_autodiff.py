"""Gradient correctness against central differences, higher-order
differentiation, and tape lifecycle semantics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gnncl.engine import (
    MissingDependencyError,
    SegmentPlan,
    Tape,
    Tensor,
    abs_,
    add,
    backward,
    binary_cross_entropy,
    cross_entropy,
    div,
    edge_dot,
    elu,
    exp,
    flat_concat,
    gather_rows,
    leaky_relu,
    log,
    log_softmax,
    matmul,
    mul,
    place_cols,
    relu,
    reshape,
    scatter_sum,
    segment_softmax,
    sigmoid,
    sq_l2_norm,
    square,
    sum_,
    sum_axis,
    take_cols,
    tanh,
    transpose,
)
from conftest import central_diff, grad_check, max_rel_err

TOL = 1e-6  # elementwise closed-form composites should do far better
            # than the 1e-4 budget used at the model level


def test_chain_of_elementwise_ops(rng):
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

    def loss():
        return sum_(mul(tanh(x), sigmoid(add(x, square(x)))))

    assert grad_check(loss, [x]) < TOL


def test_matmul_chain(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

    def loss():
        return sq_l2_norm(tanh(matmul(a, b)))

    assert grad_check(loss, [a, b]) < TOL


def test_broadcast_add_bias(rng):
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)

    def loss():
        return sum_(square(add(x, b)))

    assert grad_check(loss, [x, b]) < TOL


def test_div_exp_log(rng):
    x = Tensor(rng.uniform(0.5, 2.0, size=6), requires_grad=True)
    y = Tensor(rng.uniform(0.5, 2.0, size=6), requires_grad=True)

    def loss():
        return sum_(log(div(exp(x), add(y, Tensor(np.ones(6))))))

    assert grad_check(loss, [x, y]) < TOL


def test_piecewise_activations_away_from_kinks(rng):
    x = Tensor(rng.normal(size=10) + np.where(rng.random(10) > 0.5, 2, -2),
               requires_grad=True)

    def loss():
        return sum_(add(relu(x), add(leaky_relu(x), elu(x))))

    assert grad_check(loss, [x]) < TOL


def test_abs_l1_gradients(rng):
    x = Tensor(rng.normal(size=8) + 1.5, requires_grad=True)

    def loss():
        return add(sum_(abs_(x)), sum_(abs_(mul(x, x))))

    assert grad_check(loss, [x]) < TOL


def test_gather_scatter_gradients(rng):
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    idx = SegmentPlan.rows(np.array([0, 0, 3, 4, 1, 1]), 5)
    seg = SegmentPlan(np.array([0, 1, 1, 0, 2, 2]), 3)

    def loss():
        g = gather_rows(x, idx)
        return sq_l2_norm(scatter_sum(tanh(g), seg))

    assert grad_check(loss, [x]) < TOL


def test_segment_softmax_gradients(rng):
    scores = Tensor(rng.normal(size=7), requires_grad=True)
    seg = SegmentPlan(np.array([0, 0, 0, 1, 1, 2, 2]), 3)

    def loss():
        return sq_l2_norm(segment_softmax(scores, seg))

    assert grad_check(loss, [scores]) < TOL


def test_log_softmax_cross_entropy_gradients(rng):
    logits = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    labels = np.array([0, 1, 2, 3, 1, 0])
    rows = SegmentPlan.rows(np.array([0, 1, 3, 4]), 6)

    def loss():
        return cross_entropy(gather_rows(logits, rows), labels[rows.ids])

    assert grad_check(loss, [logits]) < TOL


def test_binary_cross_entropy_gradients(rng):
    logits = Tensor(rng.normal(size=5), requires_grad=True)
    targets = np.array([1.0, 0.0, 1.0, 1.0, 0.0])

    def loss():
        return binary_cross_entropy(logits, targets)

    assert grad_check(loss, [logits]) < TOL


def test_sum_axis_mean_gradients(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

    def loss():
        y = square(sum_axis(x, axis=0))
        return div(sum_(y), Tensor(float(y.size)))

    assert grad_check(loss, [x]) < TOL


def test_grad_of_disconnected_param_is_zero():
    with Tape():
        x = Tensor([1.0, 2.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        loss = sum_(square(x))
        _ = mul(unused, unused)  # registered on the tape, off the loss path
        grads = backward(loss, [x, unused])
    assert np.allclose(grads[x].data, [2.0, 4.0])
    assert np.allclose(grads[unused].data, [0.0])


def test_backward_unseen_tensor_rejected():
    with Tape():
        x = Tensor([1.0], requires_grad=True)
        loss = sum_(x)
        stranger = Tensor([1.0], requires_grad=True)
        with pytest.raises(MissingDependencyError):
            backward(loss, [x, stranger])


def test_backward_is_stateless():
    with Tape():
        x = Tensor([3.0], requires_grad=True)
        loss = sum_(square(x))
        g1 = backward(loss, [x])
        g2 = backward(loss, [x])
    assert np.allclose(g1[x].data, [6.0])
    assert np.allclose(g2[x].data, [6.0])  # no accumulation across calls
    assert g1[x] is not g2[x]


def test_backward_frees_adjoints_as_it_sweeps():
    # a first-order sweep holds the adjoints of its frontier, not one
    # per tape node: a chain of 20 muls stays below four of its arrays
    x = Tensor(np.linspace(0.5, 1.5, 10 ** 5), requires_grad=True)
    c = Tensor(np.full(x.shape, 1.01))
    with Tape():
        y = x
        for _ in range(20):
            y = mul(y, c)
        loss = sum_(y)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            grads = backward(loss, [x])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak - start < 4 * x.data.nbytes
    assert np.allclose(grads[x].data, 1.01 ** 20)


def test_non_leaf_target_keeps_its_gradient(rng):
    # y is a target that later ops also consume: the sweep runs y's own
    # VJP and must still return y's adjoint, alone or beside a leaf
    x = Tensor(rng.normal(size=5), requires_grad=True)
    with Tape():
        y = tanh(x)
        loss = sum_(mul(y, exp(y)))
        alone = backward(loss, [y])
        both = backward(loss, [x, y])
    assert np.array_equal(alone[y].data, both[y].data)
    assert np.allclose(alone[y].data, np.exp(y.data) * (1.0 + y.data))
    assert np.allclose(both[x].data,
                       np.exp(y.data) * (1.0 + y.data) * (1.0 - y.data ** 2))


def test_first_order_backward_records_nothing(rng):
    # one plain tape serves both sweeps: a first-order backward leaves it
    # as it was, and create_graph records a sweep that a second backward
    # differentiates through
    x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    ps = [x, w]
    with Tape() as tape:
        loss = sq_l2_norm(tanh(matmul(x, w)))
        before = len(tape)
        backward(loss, ps)
        assert len(tape) == before
        g = backward(loss, ps, create_graph=True)
        assert len(tape) > before
        cap = add(sum_(abs_(g[x])), sum_(abs_(g[w])))
        outer = backward(cap, ps)

    def cap_value():
        with Tape():
            inner = backward(sq_l2_norm(tanh(matmul(x, w))), ps,
                             create_graph=True)
            return add(sum_(abs_(inner[x])), sum_(abs_(inner[w]))).item()

    numeric = central_diff(cap_value, [x.data, w.data])
    for p, num in zip(ps, numeric):
        assert max_rel_err(outer[p].data, num) < 1e-6


def test_second_derivative_cubic():
    # d/dx sum(x^3) = 3x^2, d2/dx2 = 6x
    x = Tensor([1.5, -2.0, 0.5], requires_grad=True)
    with Tape():
        loss = sum_(mul(x, mul(x, x)))
        g = backward(loss, [x], create_graph=True)
        gsum = sum_(g[x])
        h = backward(gsum, [x])
    assert np.allclose(g[x].data, 3 * x.data ** 2)
    assert np.allclose(h[x].data, 6 * x.data)


def test_second_derivative_of_l1_of_gradient(rng):
    # the capacity-style objective: d/dw ||dL/dw||_1, with L the sum of
    # exp, tanh, sigmoid or elu of w*x, whose VJPs read the op's own
    # output; of log of, or a quotient by, w*x + c with c > 0; of
    # square(leaky_relu(w*x + shift)); and with L the sigmoid cross
    # entropy of the logits w*x, or the cross entropy of planned rows of
    # F (w W)
    w = Tensor(rng.normal(size=4), requires_grad=True)
    x_const = rng.normal(size=4)
    targets = rng.random(4)
    # elu's and leaky_relu's inputs w*x + shift sit at least 0.5 from
    # their kink at 0, two on each side
    shift = np.array([-1.0, -1.0, 1.0, 1.0]) * (
        np.abs(w.data * x_const) + 0.5)
    # w*x + c stays at least 0.5 above 0
    c = Tensor(np.abs(w.data * x_const) + 0.5)
    feats, proj = rng.normal(size=(6, 4)), rng.normal(size=(4, 3))
    rows = SegmentPlan.rows(np.array([4, 0, 2, 5]), 6)
    labels = np.array([2, 0, 1, 1])

    def exp_sum():
        return sum_(exp(mul(w, Tensor(x_const))))

    def tanh_sum():
        return sum_(tanh(mul(w, Tensor(x_const))))

    def sigmoid_sum():
        return sum_(sigmoid(mul(w, Tensor(x_const))))

    def elu_sum():
        return sum_(elu(add(mul(w, Tensor(x_const)), Tensor(shift))))

    def log_sum():
        return sum_(log(add(mul(w, Tensor(x_const)), c)))

    def div_sum():
        wx = mul(w, Tensor(x_const))
        return sum_(div(wx, add(wx, c)))

    def leaky_square():
        return sum_(square(leaky_relu(
            add(mul(w, Tensor(x_const)), Tensor(shift)))))

    def bce():
        return binary_cross_entropy(mul(w, Tensor(x_const)), targets)

    def planned_ce():
        weight = mul(reshape(w, (4, 1)), Tensor(proj))
        return cross_entropy(
            gather_rows(matmul(Tensor(feats), weight), rows), labels)

    for inner in (exp_sum, tanh_sum, sigmoid_sum, elu_sum, log_sum, div_sum,
                  leaky_square, bce, planned_ce):
        with Tape():
            loss = inner()
            g = backward(loss, [w], create_graph=True)
            cap = sum_(abs_(g[w]))
            outer = backward(cap, [w])
        analytic = outer[w].data

        def cap_value():
            with Tape():
                loss = inner()
                g = backward(loss, [w], create_graph=True)
                return sum_(abs_(g[w])).item()

        numeric = central_diff(cap_value, [w.data], eps=1e-5)[0]
        assert max_rel_err(analytic, numeric) < 1e-6, inner.__name__


def test_second_derivative_through_softmax(rng):
    sorted_ids = np.array([0, 0, 1, 1, 1])
    # (E,) and (E, H) scores; a sorted plan (max by reduceat), the same
    # ids as row indices, never scanned for starts, and an unsorted plan
    # (both max by maximum.at)
    for shape in ((5,), (5, 3)):
        scores = Tensor(rng.normal(size=shape), requires_grad=True)
        for seg in (SegmentPlan(sorted_ids, 2),
                    SegmentPlan.rows(sorted_ids, 2),
                    SegmentPlan(np.array([1, 0, 1, 0, 1]), 2)):
            def inner():
                return sq_l2_norm(segment_softmax(scores, seg))

            with Tape():
                loss = inner()
                g = backward(loss, [scores], create_graph=True)
                outer = backward(sum_(abs_(g[scores])), [scores])
            analytic = outer[scores].data

            def cap_value():
                with Tape():
                    g = backward(inner(), [scores], create_graph=True)
                    return sum_(abs_(g[scores])).item()

            numeric = central_diff(cap_value, [scores.data], eps=1e-5)[0]
            assert max_rel_err(analytic, numeric) < 1e-5


def test_second_derivative_through_column_primitives(rng):
    # d/dx ||dL/dx||_1 with L = sum(tanh(place(take(x) * w)) * v): the
    # double backward runs the VJPs of both primitives' VJPs
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 3)))
    v = Tensor(rng.normal(size=(3, 4)))
    take = SegmentPlan.rows(np.array([4, 0, 2]), 5)
    place = SegmentPlan.rows(np.array([3, 1, 0]), 4)

    def inner():
        placed = place_cols(mul(take_cols(x, take), w), place)
        return sum_(mul(tanh(placed), v))

    with Tape():
        g = backward(inner(), [x], create_graph=True)
        outer = backward(sum_(abs_(g[x])), [x])
    analytic = outer[x].data

    def cap_value():
        with Tape():
            g = backward(inner(), [x], create_graph=True)
            return sum_(abs_(g[x])).item()

    numeric = central_diff(cap_value, [x.data], eps=1e-5)[0]
    assert max_rel_err(analytic, numeric) < 1e-6


def test_second_derivative_through_fused_edge_kernels(rng):
    # d/dp sum over operands of ||dL/dp||_1 with edge weights scored by
    # edge_dot and normalized per destination, as in a GAT layer, then
    # used by the fused scatter: the double backward runs the VJPs of
    # both ops' VJPs. Rows of (n, d) with (E,) weights, and (n, H, d)
    # with (E, H) weights.
    s = SegmentPlan.rows(np.array([0, 2, 3, 1, 1, 0, 3]), 4)
    t = SegmentPlan(np.array([0, 0, 1, 1, 2, 2, 2]), 3)
    for tail in ((3,), (2, 3)):
        x = Tensor(rng.normal(size=(4,) + tail), requires_grad=True)
        y = Tensor(rng.normal(size=(3,) + tail), requires_grad=True)
        v = Tensor(rng.normal(size=(3,) + tail))
        operands = [x, y]

        def capacity():
            w = segment_softmax(edge_dot(y, x, t, s), t)
            out = scatter_sum(x, t, src=s, weights=w)
            loss = sum_(mul(tanh(out), v))
            g = backward(loss, operands, create_graph=True)
            return add(sum_(abs_(g[x])), sum_(abs_(g[y])))

        with Tape():
            outer = backward(capacity(), operands)

        def cap_value():
            with Tape():
                return capacity().item()

        numeric = central_diff(cap_value, [p.data for p in operands],
                               eps=1e-5)
        for p, num in zip(operands, numeric):
            assert max_rel_err(outer[p].data, num) < 1e-6


def test_second_derivative_through_flat_concat(rng):
    # d/dp of the l1 norm of the flat gradient vector, as in the capacity
    # term, for a 0-d, a vector and a 3-D operand mixed by one matmul:
    # the double backward runs the VJPs of flat_concat's VJP (the
    # slices) and of the slices' VJPs (flat_concat again)
    operands = [Tensor(rng.normal(size=shape), requires_grad=True)
                for shape in ((), (3,), (2, 1, 3))]
    m = Tensor(rng.normal(size=(10, 4)))

    def capacity():
        flat = flat_concat(operands)
        loss = sum_(tanh(matmul(reshape(mul(flat, flat), (1, 10)), m)))
        g = backward(loss, operands, create_graph=True)
        return sum_(abs_(flat_concat([g[p] for p in operands])))

    with Tape():
        outer = backward(capacity(), operands)

    def cap_value():
        with Tape():
            return capacity().item()

    numeric = central_diff(cap_value, [p.data for p in operands], eps=1e-5)
    for p, num in zip(operands, numeric):
        assert max_rel_err(outer[p].data, num) < 1e-6


def stacked_products(x, w, v, u):
    """A scalar through every stacked matmul form and an axes transpose:
    2-D times a stack, stack times stack, stack times 2-D."""
    hw = matmul(x, w)
    scores = matmul(hw, v)
    back = transpose(matmul(tanh(hw), u), (1, 0, 2))
    return add(sq_l2_norm(tanh(scores)), sum_(mul(tanh(back), back)))


def stacked_operands(rng):
    return [Tensor(rng.normal(size=shape), requires_grad=True)
            for shape in ((5, 3), (2, 3, 4), (2, 4, 1), (4, 3))]


def test_stacked_matmul_and_axes_transpose_gradients(rng):
    operands = stacked_operands(rng)
    assert grad_check(lambda: stacked_products(*operands), operands) < TOL


def test_second_derivative_through_stacked_matmul(rng):
    # d/dp sum over operands of ||dL/dp||_1 through stacked products
    operands = stacked_operands(rng)

    def capacity():
        g = backward(stacked_products(*operands), operands,
                     create_graph=True)
        total = sum_(abs_(g[operands[0]]))
        for p in operands[1:]:
            total = add(total, sum_(abs_(g[p])))
        return total

    with Tape():
        outer = backward(capacity(), operands)

    def cap_value():
        with Tape():
            return capacity().item()

    numeric = central_diff(cap_value, [p.data for p in operands], eps=1e-5)
    for p, num in zip(operands, numeric):
        assert max_rel_err(outer[p].data, num) < 1e-6


def test_create_graph_builds_no_gradient_for_a_constant(rng):
    # the VJP of matmul(x, w) skips x's gradient when x is on no tape;
    # w's gradient is the one built when x is live
    x_data = rng.normal(size=(5, 3))
    w_data = rng.normal(size=(2, 3, 4))
    swept = {}
    for live in (False, True):
        x = Tensor(x_data, requires_grad=live)
        w = Tensor(w_data.copy(), requires_grad=True)
        with Tape() as tape:
            loss = sq_l2_norm(tanh(matmul(x, w)))
            start = len(tape)
            g = backward(loss, [w], create_graph=True)
            ops = [node.op for node in tape.nodes[start:]]
        swept[live] = (g[w].data, ops)
    (g_const, ops_const), (g_live, ops_live) = swept[False], swept[True]
    assert np.array_equal(g_const, g_live)
    # live x: matmul(g, transpose(w)) summed over heads, then w's matmul
    assert ops_live.count("matmul") == 2
    assert "transpose" in ops_live and "sum_to" in ops_live
    # constant x: w's matmul alone; transpose(x) is a constant
    assert ops_const.count("matmul") == 1
    assert "transpose" not in ops_const and "sum_to" not in ops_const


def test_nested_tapes_inner_takes_recording():
    with Tape():
        x = Tensor([2.0], requires_grad=True)
        with Tape() as inner:
            y = Tensor([3.0], requires_grad=True)
            inner_loss = sum_(mul(y, y))
            g = backward(inner_loss, [y])
        assert np.allclose(g[y].data, [6.0])
        outer_loss = sum_(square(x))
        g2 = backward(outer_loss, [x])
    assert np.allclose(g2[x].data, [4.0])


def test_dead_tape_rejects_backward():
    with Tape():
        x = Tensor([1.0], requires_grad=True)
        loss = sum_(x)
    with pytest.raises(MissingDependencyError):
        backward(loss, [x])


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_random_composite_gradients(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 2)), requires_grad=True)

    def loss():
        h = tanh(matmul(x, w))
        h2 = square(h)
        return add(sq_l2_norm(h), div(sum_(h2), Tensor(float(h2.size))))

    assert grad_check(loss, [x, w]) < 1e-5
