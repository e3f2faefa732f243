"""GNN models: stacked backbone layers plus a shared class head.

The head covers the union of all tasks' classes; a forward pass returns
logits restricted to one task's columns. The attention coefficients of
the middle layer (native for GAT, synthesized for GCN/GIN) are exposed
as an AttentionSnapshot for sensitivity analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine import (
    SegmentPlan,
    Tensor,
    add,
    div,
    gather_rows,
    matmul,
    mul,
    scatter_sum,
    segment_softmax,
    sq_l2_norm,
    sum_axis,
    take_cols,
    tanh,
)
from ..graphs import (
    Graph,
    NormalizedAdjacency,
    TaskSequence,
    TaskSpec,
    TaskType,
    merge_graphs,
    normalize_adjacency,
)
from .layers import GatLayer, GcnLayer, GinLayer, ModelError, glorot

BACKBONES = ("gcn", "gat", "gin")


@dataclass(frozen=True)
class ModelConfig:
    backbone: str = "gat"
    num_layers: int = 2
    hidden_dim: int = 16
    heads: Tuple[int, ...] = (4, 1)
    activation: str = "elu"
    attention_slope: float = 0.2
    gin_eps: float = 0.0
    gin_eps_learnable: bool = False

    def __post_init__(self):
        if self.backbone not in BACKBONES:
            raise ModelError(f"unknown backbone '{self.backbone}'")
        if self.num_layers < 1:
            raise ModelError("num_layers must be >= 1")
        if not isinstance(self.heads, (tuple, list)) or not all(
                isinstance(h, (int, np.integer)) and not isinstance(h, bool)
                and h >= 1 for h in self.heads):
            raise ModelError(
                f"heads must be positive integers, got {self.heads!r}")
        if self.backbone == "gat" and len(self.heads) != self.num_layers:
            raise ModelError(
                f"{self.num_layers} layers need {self.num_layers} head "
                f"counts, got {self.heads}")


@dataclass
class ForwardContext:
    """Precomputed structure for forwarding one (possibly merged) graph.

    The index plans below are built on first use and then kept on the
    context, so every forward pass over it reuses the same validated
    indices.
    """

    graph: Graph
    adj: NormalizedAdjacency
    node_to_graph: Optional[np.ndarray] = None
    num_graphs: Optional[int] = None
    graph_labels: Optional[np.ndarray] = None

    @classmethod
    def for_graph(cls, graph: Graph) -> "ForwardContext":
        return cls(graph=graph, adj=normalize_adjacency(graph))

    @classmethod
    def for_pool(cls, graphs: Sequence[Graph]) -> "ForwardContext":
        merged, n2g = merge_graphs(graphs)
        labels = np.asarray([g.graph_label for g in graphs],
                            dtype=np.float64)
        return cls(graph=merged, adj=normalize_adjacency(merged),
                   node_to_graph=n2g, num_graphs=len(graphs),
                   graph_labels=labels)

    @cached_property
    def adj_src_plan(self) -> SegmentPlan:
        """Neighbor rows of the self-looped adjacency's edges."""
        return SegmentPlan.rows(self.adj.edge_src, self.adj.num_nodes)

    @cached_property
    def adj_dst_plan(self) -> SegmentPlan:
        """Aggregating node of each adjacency edge; sorted, so it carries
        segment starts."""
        return SegmentPlan(self.adj.edge_dst, self.adj.num_nodes)

    @cached_property
    def edge_plans(self) -> Tuple[SegmentPlan, SegmentPlan]:
        """(source rows, destination segments) of the raw graph's edges."""
        g = self.graph
        return (SegmentPlan.rows(g.edge_src, g.num_nodes),
                SegmentPlan(g.edge_dst, g.num_nodes))

    @cached_property
    def pool_plan(self) -> SegmentPlan:
        """Graph of each node in a pooled context."""
        return SegmentPlan(self.node_to_graph, self.num_graphs)


@dataclass
class AttentionSnapshot:
    """Normalized middle-layer coefficients as one 1-D Tensor.

    ``edge_dst[e]`` is the aggregating node of coefficient e. A layer
    with several heads lays them out head-major, one run of the edge
    list per head (the transpose of the layer's edge-major (E, H)
    coefficients), so ``edge_dst`` repeats once per head; each (head,
    node) group sums to 1.
    """

    coeffs: Tensor
    edge_dst: np.ndarray
    num_nodes: int

    def squared_norm(self, node_mask: Optional[np.ndarray] = None) -> Tensor:
        """Sum of squared coefficients, optionally restricted to edges
        whose aggregating node is selected by ``node_mask``."""
        coeffs = self.coeffs
        if node_mask is not None:
            coeffs = mul(coeffs,
                         Tensor(node_mask[self.edge_dst].astype(np.float64)))
        return sq_l2_norm(coeffs)


def nonparam_attention(weight: Tensor, h: Tensor,
                       ctx: ForwardContext) -> AttentionSnapshot:
    """Attention synthesized from a plain projection weight.

    Edge score for aggregating node i and neighbor j is
    (h_i W)^T tanh(h_j W); scores normalize per neighborhood by segment
    softmax, self-loops included.
    """
    adj, dst = ctx.adj, ctx.adj_dst_plan
    hw = matmul(h, weight)
    th = tanh(hw)
    scores = sum_axis(mul(gather_rows(hw, dst),
                          gather_rows(th, ctx.adj_src_plan)), axis=1)
    coeffs = segment_softmax(scores, dst, adj.num_nodes)
    return AttentionSnapshot(coeffs=coeffs, edge_dst=adj.edge_dst,
                             num_nodes=adj.num_nodes)


class GnnModel:
    """Backbone stack plus shared linear head over all classes."""

    def __init__(self, config: ModelConfig, in_dim: int, num_classes: int,
                 rng: np.random.Generator):
        self.config = config
        self.in_dim = in_dim
        self.num_classes = num_classes
        self.layers: List = []
        d = in_dim
        for l in range(config.num_layers):
            d_out = config.hidden_dim
            if config.backbone == "gcn":
                layer = GcnLayer(d, d_out, config.activation, rng)
            elif config.backbone == "gat":
                last = l == config.num_layers - 1
                layer = GatLayer(d, d_out, config.heads[l],
                                 config.activation, rng,
                                 merge="mean" if last else "concat",
                                 slope=config.attention_slope)
            else:
                layer = GinLayer(d, d_out, config.activation, rng,
                                 eps=config.gin_eps,
                                 eps_learnable=config.gin_eps_learnable)
            self.layers.append(layer)
            d = d_out
        self.head_W = glorot(rng, d, num_classes, (d, num_classes))
        self.head_b = Tensor(np.zeros(num_classes), requires_grad=True)
        self._class_cols: Dict[Tuple[int, ...], SegmentPlan] = {}

    @property
    def middle_layer_index(self) -> int:
        return math.ceil(self.config.num_layers / 2) - 1

    def named_parameters(self) -> List[Tuple[str, Tensor]]:
        out = []
        for l, layer in enumerate(self.layers):
            for name, p in layer.named_parameters():
                out.append((f"layers.{l}.{name}", p))
        out.append(("head.W", self.head_W))
        out.append(("head.b", self.head_b))
        return out

    def parameters(self) -> List[Tensor]:
        return [p for _, p in self.named_parameters()]

    def middle_weight(self) -> Tensor:
        """The projection used for synthesized attention at the middle
        layer (GCN weight, GIN first affine)."""
        layer = self.layers[self.middle_layer_index]
        if isinstance(layer, GcnLayer):
            return layer.W
        if isinstance(layer, GinLayer):
            return layer.W1
        raise ModelError("GAT layers expose their own attention")

    def forward_embeddings(self, ctx: ForwardContext,
                           want_attention: bool = False
                           ) -> Tuple[Tensor, Optional[AttentionSnapshot]]:
        h = Tensor(ctx.graph.features)
        snapshot: Optional[AttentionSnapshot] = None
        for l, layer in enumerate(self.layers):
            if want_attention and l == self.middle_layer_index:
                if isinstance(layer, GatLayer):
                    h, coeffs = layer.forward_with_attention(h, ctx)
                    snapshot = AttentionSnapshot(
                        coeffs=coeffs,
                        edge_dst=np.tile(ctx.adj.edge_dst, layer.num_heads),
                        num_nodes=ctx.adj.num_nodes)
                else:
                    snapshot = nonparam_attention(self.middle_weight(), h,
                                                  ctx)
                    h = layer.forward(h, ctx)
            else:
                h = layer.forward(h, ctx)
        return h, snapshot

    def state_arrays(self) -> List[Tuple[str, np.ndarray]]:
        return [(name, p.data) for name, p in self.named_parameters()]

    def load_state(self, arrays: dict) -> None:
        for name, p in self.named_parameters():
            if name not in arrays:
                raise ModelError(f"missing parameter '{name}'")
            a = np.asarray(arrays[name], dtype=np.float64)
            if a.shape != p.shape:
                raise ModelError(
                    f"parameter '{name}' shape {a.shape} != {p.shape}")
            p.data = a.copy()

    def clone(self) -> "GnnModel":
        twin = GnnModel(self.config, self.in_dim, self.num_classes,
                        np.random.default_rng(0))
        twin.load_state(dict(self.state_arrays()))
        return twin


def class_columns(model: GnnModel, classes: Sequence[int]) -> SegmentPlan:
    """The head columns of ``classes``, for :func:`take_cols`.

    Each class set is validated once and its plan kept on the model.
    """
    key = tuple(classes)
    plan = model._class_cols.get(key)
    if plan is None:
        for c in key:
            if not 0 <= c < model.num_classes:
                raise ModelError(
                    f"class {c} outside the model's head [0, "
                    f"{model.num_classes})")
        if len(set(key)) != len(key):
            raise ModelError(f"classes {key} repeat a class")
        plan = SegmentPlan.rows(np.asarray(key, dtype=np.int64),
                                model.num_classes, "column index")
        model._class_cols[key] = plan
    return plan


def head_logits(model: GnnModel, ctx: ForwardContext,
                emb: Tensor) -> Tensor:
    """Full head logits from embeddings; pooled contexts mean-pool per
    graph first."""
    if ctx.node_to_graph is not None:
        pool = ctx.pool_plan
        counts = pool.counts.astype(np.float64)
        emb = div(scatter_sum(emb, pool, ctx.num_graphs),
                  Tensor(counts[:, None]))
    return add(matmul(emb, model.head_W), model.head_b)


def model_forward(model: GnnModel, ctx: ForwardContext, task: TaskSpec,
                  want_attention: bool = False
                  ) -> Tuple[Tensor, Optional[AttentionSnapshot]]:
    """Logits restricted to the task's classes, plus the middle-layer
    attention snapshot when requested.

    Node contexts give per-node logits [N x |classes|]; pooled graph
    contexts give per-graph logits [G x |classes|] via mean pooling.
    """
    emb, snapshot = model.forward_embeddings(ctx, want_attention)
    full = head_logits(model, ctx, emb)
    logits = take_cols(full, class_columns(model, task.classes))
    return logits, snapshot
