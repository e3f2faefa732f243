"""Backbone layers against dense-matrix oracles, equivariance, and
model plumbing (head masking, snapshots, checkpoints)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gnncl.engine import (
    Tape,
    TapeMode,
    Tensor,
    abs_,
    add,
    backward,
    mul,
    place_cols,
    sq_l2_norm,
    sum_,
    take_cols,
    tanh,
)
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
    layer.W.data[0] = np.array([[1.0]])
    layer.a.data[0] = np.array([[1.0], [0.0]])
    with Tape():
        out, alphas = layer.forward_with_attention(Tensor(g.features), ctx)
    assert np.allclose(alphas.data, 0.5)
    assert np.allclose(out.data, [[3.0], [3.0]])


def test_gat_zero_attention_equals_mean(rng):
    # a = 0 makes every neighborhood uniform: attention aggregation
    # reduces to averaging hW over the self-looped neighborhood
    g = small_graph(rng)
    ctx = ForwardContext.for_graph(g)
    layer = GatLayer(3, 5, 1, "identity", np.random.default_rng(2),
                     merge="mean")
    layer.a.data[0] = np.zeros_like(layer.a.data[0])
    with Tape():
        out = layer.forward(Tensor(g.features), ctx).data
    hw = g.features @ layer.W.data[0]
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
    for coeffs in alphas.data.reshape(2, -1):
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
        heads = len(snap.edge_dst) // len(ctx.adj.edge_dst)
        for coeffs, dst in zip(snap.coeffs.data.reshape(heads, -1),
                               snap.edge_dst.reshape(heads, -1)):
            assert np.array_equal(dst, ctx.adj.edge_dst)
            sums = np.bincount(dst, weights=coeffs, minlength=g.num_nodes)
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
    twin.layers[0].W.data[0] += 1.0
    assert not np.array_equal(model.layers[0].W.data[0],
                              twin.layers[0].W.data[0])


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


# stacked GAT heads against a per-head reference ------------------------

def per_head_gat(layer, h, ctx):
    """``layer``'s forward run one head at a time: head i is a one-head
    ``GatLayer`` with the identity activation whose leaves hold copies
    of ``W[i:i+1]`` and ``a[i:i+1]``. A concatenated output places each
    head's block with ``place_cols`` and adds the blocks, and a mean
    adds the heads in order and scales. Returns (out, alphas, Ws, As)."""
    heads, d = layer.num_heads, layer.d_head
    singles = []
    for i in range(heads):
        single = GatLayer(layer.W.shape[1], d, 1, "identity",
                          np.random.default_rng(0), slope=layer.slope)
        single.W = Tensor(layer.W.data[i:i + 1].copy(), requires_grad=True)
        single.a = Tensor(layer.a.data[i:i + 1].copy(), requires_grad=True)
        singles.append(single)
    merged = None
    alphas = []
    for i, single in enumerate(singles):
        out, alpha = single.forward_with_attention(h, ctx)
        alphas.append(alpha)
        if layer.merge == "concat" and heads > 1:
            out = place_cols(out, np.arange(i * d, (i + 1) * d),
                             layer.d_out)
        merged = out if merged is None else add(merged, out)
    if layer.merge == "mean" and heads > 1:
        merged = mul(merged, Tensor(1.0 / heads))
    return (layer.act(merged), alphas, [s.W for s in singles],
            [s.a for s in singles])


def gat_objectives(out, coeffs, weights):
    """A task-like scalar of the output, and a topology-like scalar: the
    squared norms of the coefficient vectors in ``coeffs``, summed."""
    topo = None
    for c in coeffs:
        part = sq_l2_norm(c)
        topo = part if topo is None else add(topo, part)
    return sum_(mul(tanh(out), Tensor(weights))), topo


def capacity_of(loss, topo, params):
    """l1 mass of both gradient maps, recorded for a further backward."""
    f = backward(loss, params, create_graph=True)
    g = backward(topo, params, create_graph=True)
    total = None
    for p in params:
        term = add(sum_(abs_(f[p])), sum_(abs_(g[p])))
        total = term if total is None else add(total, term)
    return total


@given(n=st.integers(2, 8), heads=st.integers(1, 4), d_in=st.integers(1, 4),
       d_head=st.integers(1, 3), merge=st.sampled_from(["concat", "mean"]),
       act=st.sampled_from(["elu", "identity", "tanh"]),
       seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_stacked_gat_matches_per_head_reference(n, heads, d_in, d_head,
                                                merge, act, seed):
    # outputs, coefficients, first-order gradients and the capacity
    # term's gradient all agree bit for bit with one chain per head
    rng = np.random.default_rng(seed)
    g = small_graph(rng, n=n, d=d_in)
    ctx = ForwardContext.for_graph(g)
    d_out = heads * d_head if merge == "concat" else d_head
    layer = GatLayer(d_in, d_out, heads, act, rng, merge=merge)
    weights = rng.normal(size=(n, d_out))
    h = Tensor(g.features)
    stacked = [layer.W, layer.a]

    with Tape():
        out, coeffs = layer.forward_with_attention(h, ctx)
        loss, _ = gat_objectives(out, [coeffs], weights)
        grads = backward(loss, stacked)
    with Tape():
        ref_out, alphas, Ws, As = per_head_gat(layer, h, ctx)
        ref_loss, _ = gat_objectives(ref_out, alphas, weights)
        ref_grads = backward(ref_loss, Ws + As)
    assert np.array_equal(out.data, ref_out.data)
    assert np.array_equal(coeffs.data,
                          np.concatenate([a.data for a in alphas]))
    assert np.array_equal(grads[layer.W].data,
                          np.concatenate([ref_grads[w].data for w in Ws]))
    assert np.array_equal(grads[layer.a].data,
                          np.concatenate([ref_grads[a].data for a in As]))

    with Tape(TapeMode.HIGHER_ORDER):
        out, coeffs = layer.forward_with_attention(h, ctx)
        cap = capacity_of(*gat_objectives(out, [coeffs], weights), stacked)
        cap_grads = backward(cap, stacked)
    with Tape(TapeMode.HIGHER_ORDER):
        ref_out, alphas, Ws, As = per_head_gat(layer, h, ctx)
        ref_cap = capacity_of(*gat_objectives(ref_out, alphas, weights),
                              Ws + As)
        ref_cap_grads = backward(ref_cap, Ws + As)
    assert np.array_equal(cap_grads[layer.W].data,
                          np.concatenate([ref_cap_grads[w].data for w in Ws]))
    assert np.array_equal(cap_grads[layer.a].data,
                          np.concatenate([ref_cap_grads[a].data
                                          for a in As]))


def test_gat_tape_size_does_not_grow_with_heads(rng):
    g = small_graph(rng)
    ctx = ForwardContext.for_graph(g)
    sizes = []
    for heads in (1, 4):
        layer = GatLayer(3, 8, heads, "elu", np.random.default_rng(0))
        with Tape() as tape:
            layer.forward(Tensor(g.features), ctx)
        sizes.append(len(tape))
    assert sizes[0] == sizes[1]


def test_stacked_heads_draw_the_per_head_values():
    # one draw per parameter over the same stream as one draw per head
    layer = GatLayer(3, 8, 4, "elu", np.random.default_rng(4))
    rng = np.random.default_rng(4)
    w_lim, a_lim = np.sqrt(6.0 / (3 + 2)), np.sqrt(6.0 / (4 + 1))
    W = [rng.uniform(-w_lim, w_lim, size=(3, 2)) for _ in range(4)]
    a = [rng.uniform(-a_lim, a_lim, size=(4, 1)) for _ in range(4)]
    assert np.array_equal(layer.W.data, np.stack(W))
    assert np.array_equal(layer.a.data, np.stack(a))
    assert [name for name, _ in layer.named_parameters()] == ["W", "a"]


def test_old_checkpoint_format_rejected(tmp_path):
    model = GnnModel(ModelConfig(backbone="gat", hidden_dim=4, heads=(2, 1)),
                     3, 2, np.random.default_rng(13))
    save_checkpoint(model, tmp_path / "ck")
    manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
    assert manifest["format"] == 2
    assert [p["name"] for p in manifest["params"]][:2] == [
        "layers.0.W", "layers.0.a"]
    manifest["format"] = 1
    (tmp_path / "ck" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ModelError):
        load_checkpoint(tmp_path / "ck")
