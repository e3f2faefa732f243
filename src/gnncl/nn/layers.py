"""GCN, GAT, and GIN layers over CSR graphs.

Layers consume a ForwardContext (graph plus normalized adjacency) and
produce node embeddings; every parameter is a leaf Tensor registered by
name through ``named_parameters``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

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
    place_cols,
    relu,
    reshape,
    scatter_sum,
    segment_softmax,
    sigmoid,
    sum_axis,
    tanh,
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
        msgs = mul(gather_rows(hw, ctx.adj_src_plan),
                   Tensor(adj.weights[:, None]))
        agg = scatter_sum(msgs, ctx.adj_dst_plan, adj.num_nodes)
        return self.act(add(agg, self.b))


class GatLayer:
    """Multi-head attention aggregation over self-looped neighborhoods.

    Each head holds a projection W and an attention vector a of length
    2*d_head (destination half first). Heads merge by concatenation or
    by mean; the final layer of a network must use mean.
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
        self.W = [glorot(rng, d_in, d_head, (d_in, d_head))
                  for _ in range(num_heads)]
        self.a = [glorot(rng, 2 * d_head, 1, (2 * d_head, 1))
                  for _ in range(num_heads)]
        # rows of a scoring the destination and the source node
        self._a_dst = SegmentPlan.rows(np.arange(d_head), 2 * d_head)
        self._a_src = SegmentPlan.rows(np.arange(d_head, 2 * d_head),
                                       2 * d_head)
        # columns of each head's block in a concatenated output
        self._blocks: List[SegmentPlan] = []
        if merge == "concat" and num_heads > 1:
            self._blocks = [
                SegmentPlan.rows(np.arange(i * d_head, (i + 1) * d_head),
                                 d_out, "column index")
                for i in range(num_heads)]
        self.act = activation_fn(activation)

    def named_parameters(self) -> List[Tuple[str, Tensor]]:
        out = []
        for i in range(self.num_heads):
            out.append((f"h{i}.W", self.W[i]))
            out.append((f"h{i}.a", self.a[i]))
        return out

    def _run(self, h: Tensor, ctx) -> Tuple[Tensor, List[Tensor]]:
        n = ctx.adj.num_nodes
        src, dst = ctx.adj_src_plan, ctx.adj_dst_plan
        e = len(src)
        merged: Optional[Tensor] = None
        alphas: List[Tensor] = []
        for i in range(self.num_heads):
            hw = matmul(h, self.W[i])
            a_dst = gather_rows(self.a[i], self._a_dst)
            a_src = gather_rows(self.a[i], self._a_src)
            s_dst = matmul(hw, a_dst)
            s_src = matmul(hw, a_src)
            logits = leaky_relu(
                reshape(add(gather_rows(s_dst, dst),
                            gather_rows(s_src, src)), (e,)),
                alpha=self.slope)
            alpha = segment_softmax(logits, dst, n)
            alphas.append(alpha)
            msgs = mul(reshape(alpha, (e, 1)), gather_rows(hw, src))
            out = scatter_sum(msgs, dst, n)
            if self._blocks:
                out = place_cols(out, self._blocks[i], self.d_out)
            merged = out if merged is None else add(merged, out)
        if self.merge == "mean" and self.num_heads > 1:
            merged = mul(merged, Tensor(1.0 / self.num_heads))
        return self.act(merged), alphas

    def forward(self, h: Tensor, ctx) -> Tensor:
        return self._run(h, ctx)[0]

    def forward_with_attention(self, h: Tensor, ctx
                               ) -> Tuple[Tensor, List[Tensor]]:
        return self._run(h, ctx)


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
