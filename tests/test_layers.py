"""Backbone layers against dense-matrix oracles, equivariance, and
model plumbing (head masking, snapshots, checkpoints)."""

import numpy as np
import pytest

from gnncl.engine import Tape, Tensor, add, backward, sum_, take_cols
from gnncl.graphs import graph_from_edges, normalize_adjacency
from gnncl.nn import (
    ForwardContext,
    GnnModel,
    ModelConfig,
    ModelError,
    class_columns,
    head_logits,
    load_checkpoint,
    model_forward,
    save_checkpoint,
)
from gnncl.nn.layers import GatLayer, GcnLayer, GinLayer


def small_graph(rng, n=7, d=3, p=0.5):
    mask = np.triu(rng.random((n, n)) < p, k=1)
    src, dst = np.nonzero(mask)
    feats = rng.normal(size=(n, d))
    labels = rng.integers(0, 2, size=n)
    return graph_from_edges(n, np.stack([src, dst], 1), feats, labels)


def dense_norm_adj(graph):
    n = graph.num_nodes
    a = np.zeros((n, n))
    a[graph.edge_dst, graph.edge_src] = 1.0
    a += np.eye(n)
    d = a.sum(axis=1)
    inv = 1.0 / np.sqrt(d)
    return inv[:, None] * a * inv[None, :]


def test_gcn_matches_dense_oracle(rng):
    g = small_graph(rng)
    ctx = ForwardContext.for_graph(g)
    layer = GcnLayer(3, 4, "identity", np.random.default_rng(0))
    with Tape():
        out = layer.forward(Tensor(g.features), ctx).data
    want = dense_norm_adj(g) @ g.features @ layer.W.data + layer.b.data
    assert np.max(np.abs(out - want)) < 1e-12


def test_gin_matches_formula(rng):
    g = small_graph(rng)
    ctx = ForwardContext.for_graph(g)
    layer = GinLayer(3, 4, "identity", np.random.default_rng(1), eps=0.3)
    with Tape():
        out = layer.forward(Tensor(g.features), ctx).data
    n = g.num_nodes
    a = np.zeros((n, n))
    a[g.edge_dst, g.edge_src] = 1.0  # raw adjacency, no self-loops
    pre = (1.3 * g.features + a @ g.features) @ layer.W1.data + layer.b1.data
    want = pre @ layer.W2.data + layer.b2.data
    assert np.max(np.abs(out - want)) < 1e-12


def test_gat_hand_oracle():
    # path 0-1: with W = I (1-dim) and a = (1, 0), scores depend only on
    # the destination, so alpha is uniform over each neighborhood
    g = graph_from_edges(2, np.array([[0, 1]]),
                         np.array([[2.0], [4.0]]),
                         np.zeros(2, dtype=np.int64))
    ctx = ForwardContext.for_graph(g)
    layer = GatLayer(1, 1, 1, "identity", np.random.default_rng(0),
                     merge="mean")
    layer.W[0].data = np.array([[1.0]])
    layer.a[0].data = np.array([[1.0], [0.0]])
    with Tape():
        out, alphas = layer.forward_with_attention(Tensor(g.features), ctx)
    assert np.allclose(alphas[0].data, 0.5)
    assert np.allclose(out.data, [[3.0], [3.0]])


def test_gat_zero_attention_equals_mean(rng):
    # a = 0 makes every neighborhood uniform: attention aggregation
    # reduces to averaging hW over the self-looped neighborhood
    g = small_graph(rng)
    ctx = ForwardContext.for_graph(g)
    layer = GatLayer(3, 5, 1, "identity", np.random.default_rng(2),
                     merge="mean")
    layer.a[0].data = np.zeros_like(layer.a[0].data)
    with Tape():
        out = layer.forward(Tensor(g.features), ctx).data
    hw = g.features @ layer.W[0].data
    n = g.num_nodes
    a = np.zeros((n, n))
    a[g.edge_dst, g.edge_src] = 1.0
    a += np.eye(n)
    want = (a / a.sum(1, keepdims=True)) @ hw
    assert np.max(np.abs(out - want)) < 1e-12


def test_gat_alphas_normalized_per_node(rng):
    g = small_graph(rng, n=9)
    ctx = ForwardContext.for_graph(g)
    layer = GatLayer(3, 6, 2, "elu", np.random.default_rng(3))
    with Tape():
        _, alphas = layer.forward_with_attention(Tensor(g.features), ctx)
    for coeffs in alphas:
        sums = np.bincount(ctx.adj.edge_dst, weights=coeffs.data,
                           minlength=g.num_nodes)
        assert np.allclose(sums, 1.0)


def test_gat_concat_head_dim_check():
    with pytest.raises(ModelError):
        GatLayer(3, 7, 2, "elu", np.random.default_rng(0), merge="concat")


@pytest.mark.parametrize("backbone", ["gcn", "gat", "gin"])
def test_permutation_equivariance(backbone, rng):
    g = small_graph(rng, n=8)
    perm = rng.permutation(8)
    inv = np.argsort(perm)
    # relabeled graph: node i becomes perm[i]
    pairs = np.stack([perm[g.edge_src], perm[g.edge_dst]], 1)
    g2 = graph_from_edges(8, pairs, g.features[inv], g.labels[inv])
    cfg = ModelConfig(backbone=backbone, hidden_dim=4,
                      heads=(2, 1) if backbone == "gat" else (1, 1))
    model = GnnModel(cfg, 3, 2, np.random.default_rng(5))
    with Tape():
        out1 = model.forward_embeddings(ForwardContext.for_graph(g))[0].data
        out2 = model.forward_embeddings(ForwardContext.for_graph(g2))[0].data
    assert np.max(np.abs(out2 - out1[inv])) < 1e-10


def test_head_masking_selects_columns(rng):
    g = small_graph(rng)
    ctx = ForwardContext.for_graph(g)
    model = GnnModel(ModelConfig(backbone="gcn", hidden_dim=4), 3, 6,
                     np.random.default_rng(6))
    from gnncl.graphs import TaskSpec
    task = TaskSpec(task_index=0, classes=(2, 5),
                    train_mask=np.ones(7, dtype=bool),
                    test_mask=np.zeros(7, dtype=bool))
    with Tape():
        masked, _ = model_forward(model, ctx, task)
        emb, _ = model.forward_embeddings(ctx)
        full = head_logits(model, ctx, emb)
    assert masked.shape == (7, 2)
    assert np.allclose(masked.data, full.data[:, [2, 5]])


def test_class_columns_validation(rng):
    model = GnnModel(ModelConfig(backbone="gcn"), 3, 4,
                     np.random.default_rng(0))
    with pytest.raises(ModelError):
        class_columns(model, [4])
    with pytest.raises(ModelError):
        class_columns(model, [1, 1])


def test_middle_layer_index():
    for layers, want in [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2)]:
        heads = tuple([2] * (layers - 1) + [1])
        cfg = ModelConfig(backbone="gat", num_layers=layers, heads=heads)
        model = GnnModel(cfg, 3, 2, np.random.default_rng(0))
        assert model.middle_layer_index == want


def test_snapshot_from_every_backbone(rng):
    g = small_graph(rng)
    ctx = ForwardContext.for_graph(g)
    for backbone in ("gcn", "gat", "gin"):
        model = GnnModel(ModelConfig(backbone=backbone, hidden_dim=4),
                         3, 2, np.random.default_rng(8))
        with Tape():
            _, snap = model.forward_embeddings(ctx, want_attention=True)
            norm = snap.squared_norm()
        for coeffs in snap.heads:
            sums = np.bincount(snap.edge_dst, weights=coeffs.data,
                               minlength=g.num_nodes)
            assert np.allclose(sums, 1.0)
        assert norm.item() > 0


def test_snapshot_mask_restricts_edges(rng):
    g = small_graph(rng)
    ctx = ForwardContext.for_graph(g)
    model = GnnModel(ModelConfig(backbone="gat", hidden_dim=4,
                                 heads=(2, 1)), 3, 2,
                     np.random.default_rng(9))
    mask = np.zeros(7, dtype=bool)
    mask[0] = True
    with Tape():
        _, snap = model.forward_embeddings(ctx, want_attention=True)
        part = snap.squared_norm(mask).item()
        full = snap.squared_norm().item()
    assert 0 < part < full


def test_model_clone_and_state_roundtrip(rng):
    model = GnnModel(ModelConfig(backbone="gat", hidden_dim=4, heads=(2, 1)),
                     3, 4, np.random.default_rng(10))
    twin = model.clone()
    for (na, a), (nb, b) in zip(model.state_arrays(), twin.state_arrays()):
        assert na == nb
        assert np.array_equal(a, b)
    twin.layers[0].W[0].data += 1.0
    assert not np.array_equal(model.layers[0].W[0].data,
                              twin.layers[0].W[0].data)


def test_checkpoint_roundtrip(tmp_path, rng):
    g = small_graph(rng)
    ctx = ForwardContext.for_graph(g)
    model = GnnModel(ModelConfig(backbone="gin", hidden_dim=4,
                                 gin_eps=0.2, gin_eps_learnable=True),
                     3, 4, np.random.default_rng(11))
    save_checkpoint(model, tmp_path / "ck")
    back = load_checkpoint(tmp_path / "ck")
    assert back.config == model.config
    for (na, a), (nb, b) in zip(model.state_arrays(), back.state_arrays()):
        assert na == nb
        assert np.array_equal(a, b)
    with Tape():
        out1 = model.forward_embeddings(ctx)[0].data
        out2 = back.forward_embeddings(ctx)[0].data
    assert np.array_equal(out1, out2)


def test_gradients_reach_all_parameters(rng):
    g = small_graph(rng)
    ctx = ForwardContext.for_graph(g)
    for backbone in ("gcn", "gat", "gin"):
        model = GnnModel(ModelConfig(backbone=backbone, hidden_dim=4),
                         3, 2, np.random.default_rng(12))
        with Tape():
            emb, _ = model.forward_embeddings(ctx)
            loss = sum_(head_logits(model, ctx, emb))
            grads = backward(loss, model.parameters())
        nonzero = sum(
            1 for p in model.parameters() if np.any(grads[p].data != 0))
        assert nonzero >= len(model.parameters()) - 1  # head bias rows may
        # miss classes but everything upstream must be live


@pytest.mark.parametrize("backbone", ["gcn", "gat", "gin"])
def test_context_plans_validate_once(backbone, rng, monkeypatch):
    # plans are built on a context's first forward pass and kept on it,
    # and a class set's head columns on the model; later passes,
    # backward included, validate no index
    import gnncl.engine.segments as segments

    def pool(seed):
        g = small_graph(np.random.default_rng(seed))
        g.graph_label = seed % 2
        return g

    node_ctx = ForwardContext.for_graph(small_graph(rng))
    pool_ctx = ForwardContext.for_pool([pool(1), pool(2), pool(3)])
    assert not {"adj_src_plan", "adj_dst_plan", "edge_plans",
                "pool_plan"} & set(vars(node_ctx))
    cfg = ModelConfig(backbone=backbone, hidden_dim=4)
    model = GnnModel(cfg, 3, 2, np.random.default_rng(7))

    def step(ctx):
        with Tape():
            emb, snap = model.forward_embeddings(ctx, want_attention=True)
            logits = take_cols(head_logits(model, ctx, emb),
                               class_columns(model, (1, 0)))
            loss = add(sum_(logits), snap.squared_norm())
            backward(loss, model.parameters())

    for ctx in (node_ctx, pool_ctx):
        step(ctx)
    assert node_ctx.adj_dst_plan is node_ctx.adj_dst_plan
    assert node_ctx.adj_dst_plan.starts is not None
    checked = []
    real = segments.check_index
    monkeypatch.setattr(segments, "check_index",
                        lambda *a: checked.append(a[3]) or real(*a))
    for ctx in (node_ctx, pool_ctx):
        step(ctx)
    assert checked == []
