"""Gradient correctness against central differences, higher-order
differentiation, and tape lifecycle semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gnncl.engine import (
    MissingDependencyError,
    SegmentPlan,
    Tape,
    TapeMode,
    TapeModeError,
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
    gather_rows,
    l1_norm,
    leaky_relu,
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
        return add(l1_norm(x), sum_(abs_(mul(x, x))))

    assert grad_check(loss, [x]) < TOL


def test_gather_scatter_gradients(rng):
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    idx = np.array([0, 0, 3, 4, 1, 1])
    seg = np.array([0, 1, 1, 0, 2, 2])
    # raw ids, then the same ids as plans
    for idx, seg in ((idx, seg), (SegmentPlan.rows(idx, 5),
                                  SegmentPlan(seg, 3))):
        def loss():
            g = gather_rows(x, idx)
            return sq_l2_norm(scatter_sum(tanh(g), seg, 3))

        assert grad_check(loss, [x]) < TOL


def test_segment_softmax_gradients(rng):
    scores = Tensor(rng.normal(size=7), requires_grad=True)
    seg = np.array([0, 0, 0, 1, 1, 2, 2])
    for seg in (seg, SegmentPlan(seg, 3)):
        def loss():
            return sq_l2_norm(segment_softmax(scores, seg, 3))

        assert grad_check(loss, [scores]) < TOL


def test_log_softmax_cross_entropy_gradients(rng):
    logits = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    labels = np.array([0, 1, 2, 3, 1, 0])
    mask = np.array([True, True, False, True, True, False])

    def loss():
        return cross_entropy(logits, labels, mask)

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
        return mean_(square(sum_axis(x, axis=0)))

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


def test_create_graph_needs_higher_order_tape():
    with Tape(TapeMode.FIRST_ORDER):
        x = Tensor([1.0], requires_grad=True)
        loss = sum_(square(x))
        with pytest.raises(TapeModeError):
            backward(loss, [x], create_graph=True)


def test_second_derivative_cubic():
    # d/dx sum(x^3) = 3x^2, d2/dx2 = 6x
    x = Tensor([1.5, -2.0, 0.5], requires_grad=True)
    with Tape(TapeMode.HIGHER_ORDER):
        loss = sum_(mul(x, mul(x, x)))
        g = backward(loss, [x], create_graph=True)
        gsum = sum_(g[x])
        h = backward(gsum, [x])
    assert np.allclose(g[x].data, 3 * x.data ** 2)
    assert np.allclose(h[x].data, 6 * x.data)


def test_second_derivative_of_l1_of_gradient(rng):
    # the capacity-style objective: d/dw ||dL/dw||_1, with L = sum(tanh(w*x))
    # and with L the sigmoid cross entropy of the logits w*x
    w = Tensor(rng.normal(size=4), requires_grad=True)
    x_const = rng.normal(size=4)
    targets = rng.random(4)

    def tanh_sum():
        return sum_(tanh(mul(w, Tensor(x_const))))

    def bce():
        return binary_cross_entropy(mul(w, Tensor(x_const)), targets)

    for inner in (tanh_sum, bce):
        with Tape(TapeMode.HIGHER_ORDER):
            loss = inner()
            g = backward(loss, [w], create_graph=True)
            cap = l1_norm(g[w])
            outer = backward(cap, [w])
        analytic = outer[w].data

        def cap_value():
            with Tape(TapeMode.HIGHER_ORDER):
                loss = inner()
                g = backward(loss, [w], create_graph=True)
                return l1_norm(g[w]).item()

        numeric = central_diff(cap_value, [w.data], eps=1e-5)[0]
        assert max_rel_err(analytic, numeric) < 1e-6, inner.__name__


def test_second_derivative_through_softmax(rng):
    scores = Tensor(rng.normal(size=5), requires_grad=True)
    sorted_ids = np.array([0, 0, 1, 1, 1])
    # raw ids; a sorted plan (max by reduceat); an unsorted plan (max by
    # maximum.at)
    for seg in (sorted_ids, SegmentPlan(sorted_ids, 2),
                SegmentPlan(np.array([1, 0, 1, 0, 1]), 2)):
        def inner():
            return sq_l2_norm(segment_softmax(scores, seg, 2))

        with Tape(TapeMode.HIGHER_ORDER):
            loss = inner()
            g = backward(loss, [scores], create_graph=True)
            outer = backward(l1_norm(g[scores]), [scores])
        analytic = outer[scores].data

        def cap_value():
            with Tape(TapeMode.HIGHER_ORDER):
                g = backward(inner(), [scores], create_graph=True)
                return l1_norm(g[scores]).item()

        numeric = central_diff(cap_value, [scores.data], eps=1e-5)[0]
        assert max_rel_err(analytic, numeric) < 1e-5


def test_second_derivative_through_column_primitives(rng):
    # d/dx ||dL/dx||_1 with L = sum(tanh(place(take(x) * w)) * v): the
    # double backward runs the VJPs of both primitives' VJPs
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 3)))
    v = Tensor(rng.normal(size=(3, 4)))
    take, place = np.array([4, 0, 2]), np.array([3, 1, 0])
    for take, place in ((take, place), (SegmentPlan.rows(take, 5),
                                        SegmentPlan.rows(place, 4))):
        def inner():
            placed = place_cols(mul(take_cols(x, take), w), place, 4)
            return sum_(mul(tanh(placed), v))

        with Tape(TapeMode.HIGHER_ORDER):
            g = backward(inner(), [x], create_graph=True)
            outer = backward(l1_norm(g[x]), [x])
        analytic = outer[x].data

        def cap_value():
            with Tape(TapeMode.HIGHER_ORDER):
                g = backward(inner(), [x], create_graph=True)
                return l1_norm(g[x]).item()

        numeric = central_diff(cap_value, [x.data], eps=1e-5)[0]
        assert max_rel_err(analytic, numeric) < 1e-6


def test_second_derivative_through_fused_edge_kernels(rng):
    # d/dp sum over operands of ||dL/dp||_1 with edge weights scored by
    # edge_dot and normalized per destination, as in a GAT layer, then
    # used by the fused scatter: the double backward runs the VJPs of
    # both ops' VJPs. Rows of (n, d) with (E,) weights, and (n, H, d)
    # with (E, H) weights; raw ids, then plans.
    src = np.array([0, 2, 3, 1, 1, 0, 3])
    dst = np.array([0, 0, 1, 1, 2, 2, 2])
    for tail in ((3,), (2, 3)):
        x = Tensor(rng.normal(size=(4,) + tail), requires_grad=True)
        y = Tensor(rng.normal(size=(3,) + tail), requires_grad=True)
        v = Tensor(rng.normal(size=(3,) + tail))
        operands = [x, y]
        for s, t in ((src, dst), (SegmentPlan.rows(src, 4),
                                  SegmentPlan(dst, 3))):
            def capacity():
                w = segment_softmax(edge_dot(y, x, t, s), t, 3)
                out = scatter_sum(x, t, 3, src=s, weights=w)
                loss = sum_(mul(tanh(out), v))
                g = backward(loss, operands, create_graph=True)
                return add(l1_norm(g[x]), l1_norm(g[y]))

            with Tape(TapeMode.HIGHER_ORDER):
                outer = backward(capacity(), operands)

            def cap_value():
                with Tape(TapeMode.HIGHER_ORDER):
                    return capacity().item()

            numeric = central_diff(cap_value, [p.data for p in operands],
                                   eps=1e-5)
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
        total = l1_norm(g[operands[0]])
        for p in operands[1:]:
            total = add(total, l1_norm(g[p]))
        return total

    with Tape(TapeMode.HIGHER_ORDER):
        outer = backward(capacity(), operands)

    def cap_value():
        with Tape(TapeMode.HIGHER_ORDER):
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
        with Tape(TapeMode.HIGHER_ORDER) as tape:
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
        return add(sq_l2_norm(h), mean_(square(h)))

    assert grad_check(loss, [x, w]) < 1e-5
