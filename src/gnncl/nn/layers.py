"""GCN, GAT, and GIN layers over CSR graphs.

Layers consume a ForwardContext (graph plus normalized adjacency) and
produce node embeddings; every parameter is a leaf Tensor registered by
name through ``named_parameters``.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

from ..engine import (
    SegmentPlan,
    Tensor,
    add,
    elu,
    gather_rows,
    leaky_relu,
    matmul,
    mul,
    relu,
    reshape,
    scatter_sum,
    segment_softmax,
    sigmoid,
    sum_axis,
    tanh,
    transpose,
)


class ModelError(ValueError):
    """Configuration or dimension problem in a model component."""


_ACTIVATIONS: dict = {
    "relu": relu,
    "elu": elu,
    "tanh": tanh,
    "sigmoid": sigmoid,
    "leaky_relu": leaky_relu,
    "identity": lambda t: t,
}


def activation_fn(name: str) -> Callable[[Tensor], Tensor]:
    if name not in _ACTIVATIONS:
        raise ModelError(f"unknown activation '{name}'")
    return _ACTIVATIONS[name]


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int,
           shape: Tuple[int, ...]) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape),
                  requires_grad=True)


class GcnLayer:
    """h' = act(A_hat h W + b) with the precomputed normalized weights."""

    def __init__(self, d_in: int, d_out: int, activation: str,
                 rng: np.random.Generator):
        self.W = glorot(rng, d_in, d_out, (d_in, d_out))
        self.b = Tensor(np.zeros(d_out), requires_grad=True)
        self.act = activation_fn(activation)

    def named_parameters(self) -> List[Tuple[str, Tensor]]:
        return [("W", self.W), ("b", self.b)]

    def forward(self, h: Tensor, ctx) -> Tensor:
        adj = ctx.adj
        hw = matmul(h, self.W)
        agg = scatter_sum(hw, ctx.adj_dst_plan, adj.num_nodes,
                          src=ctx.adj_src_plan, weights=adj.weights)
        return self.act(add(agg, self.b))


class GatLayer:
    """Multi-head attention aggregation over self-looped neighborhoods.

    ``W`` stacks the heads' projections, shape (H, d_in, d_head), and
    ``a`` their attention vectors, shape (H, 2*d_head, 1), destination
    half first. All heads run as one chain of ops, edge-major over the
    graph's one adjacency plan: scores are (n, H) per node and (E, H)
    per edge, the segment softmax normalizes each head's column, and
    one fused :func:`scatter_sum` weights and sums the (n, H, d_head)
    projected rows into (n, H, d_head). Heads merge by concatenation (a
    reshape) or by mean; the final layer of a network must use mean.
    """

    def __init__(self, d_in: int, d_out: int, num_heads: int,
                 activation: str, rng: np.random.Generator,
                 merge: str = "concat", slope: float = 0.2):
        if num_heads < 1:
            raise ModelError("num_heads must be >= 1")
        if merge not in ("concat", "mean"):
            raise ModelError(f"unknown head merge '{merge}'")
        if merge == "concat":
            if d_out % num_heads != 0:
                raise ModelError(
                    f"output dim {d_out} not divisible by {num_heads} heads")
            d_head = d_out // num_heads
        else:
            d_head = d_out
        self.num_heads = num_heads
        self.d_head = d_head
        self.d_out = d_out
        self.merge = merge
        self.slope = slope
        self.W = glorot(rng, d_in, d_head, (num_heads, d_in, d_head))
        self.a = glorot(rng, 2 * d_head, 1, (num_heads, 2 * d_head, 1))
        # rows of ``a`` viewed as (2H, d_head, 1) that score each head's
        # destination and source node
        halves = 2 * np.arange(num_heads)
        self._a_dst = SegmentPlan.rows(halves, 2 * num_heads)
        self._a_src = SegmentPlan.rows(halves + 1, 2 * num_heads)
        self.act = activation_fn(activation)

    def named_parameters(self) -> List[Tuple[str, Tensor]]:
        return [("W", self.W), ("a", self.a)]

    def _run(self, h: Tensor, ctx) -> Tuple[Tensor, Tensor]:
        heads, d = self.num_heads, self.d_head
        n = ctx.adj.num_nodes
        src, dst = ctx.adj_src_plan, ctx.adj_dst_plan
        hw = matmul(h, self.W)
        a = reshape(self.a, (2 * heads, d, 1))
        # (H, n, 1) scores, node-major as (n, H, 1)
        s_dst = transpose(matmul(hw, gather_rows(a, self._a_dst)), (1, 0, 2))
        s_src = transpose(matmul(hw, gather_rows(a, self._a_src)), (1, 0, 2))
        logits = leaky_relu(
            reshape(add(gather_rows(s_dst, dst), gather_rows(s_src, src)),
                    (len(src), heads)),
            alpha=self.slope)
        alpha = segment_softmax(logits, dst, n)
        out = scatter_sum(transpose(hw, (1, 0, 2)), dst, n, src=src,
                          weights=alpha)
        if self.merge == "concat" or heads == 1:
            out = reshape(out, (n, heads * d))
        else:
            out = mul(sum_axis(out, axis=1), Tensor(1.0 / heads))
        return self.act(out), alpha

    def forward(self, h: Tensor, ctx) -> Tensor:
        return self._run(h, ctx)[0]

    def forward_with_attention(self, h: Tensor, ctx
                               ) -> Tuple[Tensor, Tensor]:
        """The output and the coefficients of every head as one 1-D
        vector, head h's edges at positions h*E to (h+1)*E."""
        out, alpha = self._run(h, ctx)
        return out, reshape(transpose(alpha), (alpha.size,))


class GinLayer:
    """h' = MLP((1 + eps) h + sum of neighbor h), raw adjacency.

    The MLP is affine -> activation -> affine; eps is fixed by default
    and becomes a learnable scalar parameter on request.
    """

    def __init__(self, d_in: int, d_out: int, activation: str,
                 rng: np.random.Generator, eps: float = 0.0,
                 eps_learnable: bool = False):
        self.W1 = glorot(rng, d_in, d_out, (d_in, d_out))
        self.b1 = Tensor(np.zeros(d_out), requires_grad=True)
        self.W2 = glorot(rng, d_out, d_out, (d_out, d_out))
        self.b2 = Tensor(np.zeros(d_out), requires_grad=True)
        self.eps_learnable = eps_learnable
        if eps_learnable:
            self.eps = Tensor(np.asarray(float(eps)), requires_grad=True)
        else:
            self.eps = Tensor(np.asarray(float(eps)))
        self.act = activation_fn(activation)

    def named_parameters(self) -> List[Tuple[str, Tensor]]:
        out = [("W1", self.W1), ("b1", self.b1),
               ("W2", self.W2), ("b2", self.b2)]
        if self.eps_learnable:
            out.append(("eps", self.eps))
        return out

    def forward(self, h: Tensor, ctx) -> Tensor:
        g = ctx.graph
        if g.num_edges:
            src, dst = ctx.edge_plans
            agg = scatter_sum(gather_rows(h, src), dst, g.num_nodes)
            z = add(mul(add(Tensor(1.0), self.eps), h), agg)
        else:
            z = mul(add(Tensor(1.0), self.eps), h)
        hidden = self.act(add(matmul(z, self.W1), self.b1))
        return add(matmul(hidden, self.W2), self.b2)
