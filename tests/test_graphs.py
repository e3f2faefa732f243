"""Graph structures, normalization, generators, and dataset files."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gnncl.graphs import (
    DatasetError,
    Graph,
    GraphError,
    TaskSequence,
    TaskSpec,
    TaskType,
    generate_graph_classification_tasks,
    generate_sbm_tasks,
    graph_from_edges,
    load_dataset,
    merge_graphs,
    normalize_adjacency,
    rule_statistic,
    save_dataset,
    sequences_equal,
)
from gnncl.graphs.generators import RULE_KINDS, _random_graph


def toy_graph(num_nodes=4, edges=((0, 1), (1, 2), (2, 3))):
    feats = np.arange(num_nodes * 2, dtype=np.float64).reshape(num_nodes, 2)
    labels = np.zeros(num_nodes, dtype=np.int64)
    return graph_from_edges(num_nodes, np.array(edges), feats, labels)


def test_undirected_edges_stored_both_ways():
    g = toy_graph()
    assert g.num_edges == 6
    assert sorted(zip(g.edge_dst.tolist(), g.edge_src.tolist())) == [
        (0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]


def test_duplicate_edges_collapse():
    g = graph_from_edges(3, np.array([[0, 1], [1, 0], [0, 1]]),
                         np.zeros((3, 1)), np.zeros(3, dtype=np.int64))
    assert g.num_edges == 2


def test_self_loops_rejected():
    with pytest.raises(GraphError):
        graph_from_edges(2, np.array([[0, 0]]), np.zeros((2, 1)),
                         np.zeros(2, dtype=np.int64))


def test_edge_index_bounds_checked():
    with pytest.raises(GraphError):
        graph_from_edges(2, np.array([[0, 5]]), np.zeros((2, 1)),
                         np.zeros(2, dtype=np.int64))


def test_degrees():
    g = toy_graph()
    assert g.degrees().tolist() == [1, 2, 2, 1]


def test_normalization_two_node_oracle():
    # single edge: both nodes get degree-with-self-loop 2, all four
    # weights (two loop, two cross) are 1/2
    g = graph_from_edges(2, np.array([[0, 1]]), np.zeros((2, 1)),
                         np.zeros(2, dtype=np.int64))
    adj = normalize_adjacency(g)
    assert np.allclose(adj.weights, 0.5)
    assert len(adj.weights) == 4


def test_normalization_star_oracle():
    # star with center 0 and three leaves: center degree 4, leaves 2
    g = toy_graph(4, ((0, 1), (0, 2), (0, 3)))
    adj = normalize_adjacency(g)
    w = {}
    for s, d, v in zip(adj.edge_src, adj.edge_dst, adj.weights):
        w[(int(d), int(s))] = v
    assert w[(0, 0)] == pytest.approx(1 / 4)
    assert w[(0, 1)] == pytest.approx(1 / np.sqrt(8))
    assert w[(1, 1)] == pytest.approx(1 / 2)
    assert w[(1, 0)] == pytest.approx(1 / np.sqrt(8))


@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 12))
@settings(max_examples=25, deadline=None)
def test_normalization_row_identity(seed, n):
    # symmetric normalization satisfies sum_j w_ij sqrt(d_j) = sqrt(d_i)
    rng = np.random.default_rng(seed)
    mask = np.triu(rng.random((n, n)) < 0.4, k=1)
    src, dst = np.nonzero(mask)
    g = graph_from_edges(n, np.stack([src, dst], axis=1),
                         np.zeros((n, 1)), np.zeros(n, dtype=np.int64))
    adj = normalize_adjacency(g)
    d_tilde = g.degrees() + 1.0
    lhs = np.zeros(n)
    np.add.at(lhs, adj.edge_dst, adj.weights * np.sqrt(d_tilde[adj.edge_src]))
    assert np.max(np.abs(lhs - np.sqrt(d_tilde))) < 1e-12


def test_merge_graphs_block_diagonal():
    a = toy_graph(3, ((0, 1), (1, 2)))
    b = toy_graph(2, ((0, 1),))
    merged, n2g = merge_graphs([a, b])
    assert merged.num_nodes == 5
    assert n2g.tolist() == [0, 0, 0, 1, 1]
    pairs = set(zip(merged.edge_dst.tolist(), merged.edge_src.tolist()))
    assert (3, 4) in pairs and (4, 3) in pairs
    assert not any((d < 3) != (s < 3) for d, s in pairs)


@pytest.mark.parametrize("edges", [
    [[0, 1, 2], [3, 4, 5]],  # (E, 3)
    [0, 1, 2, 3],            # flat
    [[0.7, 1.2]],            # not integral
    [[0, float("nan")]],
    [[True, False]],
    [["0", "1"]],
    [[0, 1], [2]],           # ragged
])
def test_malformed_edges_rejected(edges):
    with pytest.raises(GraphError):
        graph_from_edges(6, edges, np.zeros((6, 1)),
                         np.zeros(6, dtype=np.int64))


def test_empty_and_integral_edge_inputs_accepted():
    feats, labels = np.zeros((3, 1)), np.zeros(3, dtype=np.int64)
    for empty in ([], np.zeros((0, 2)), np.zeros(0, dtype=np.int64)):
        g = graph_from_edges(3, empty, feats, labels)
        assert g.num_edges == 0 and g.row_ptr.tolist() == [0, 0, 0, 0]
    g = graph_from_edges(3, [[0.0, 2.0]], feats, labels)
    assert np.array_equal(g.col_idx, [2, 0])


# per-node reference implementations: oracles for the vectorised ones


def reference_csr(num_nodes, edges, directed):
    pairs = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    if not directed and pairs.size:
        pairs = np.concatenate([pairs, pairs[:, ::-1]], axis=0)
    if pairs.size:
        pairs = np.unique(pairs, axis=0)
        rows, cols = pairs[:, 0], pairs[:, 1]
    else:
        rows = cols = np.zeros(0, dtype=np.int64)
    counts = np.bincount(rows, minlength=num_nodes)
    return np.concatenate([[0], np.cumsum(counts)]), cols


def reference_adjacency(graph):
    n = graph.num_nodes
    src_parts, dst_parts = [], []
    for i in range(n):
        row = graph.col_idx[graph.row_ptr[i]:graph.row_ptr[i + 1]]
        merged = np.sort(np.concatenate([row, [i]]))
        src_parts.append(merged)
        dst_parts.append(np.full(len(merged), i, dtype=np.int64))
    src, dst = np.concatenate(src_parts), np.concatenate(dst_parts)
    row_ptr = np.concatenate([[0], np.cumsum(np.bincount(dst, minlength=n))])
    inv_sqrt = 1.0 / np.sqrt((graph.degrees() + 1).astype(np.float64))
    return src, dst, row_ptr, inv_sqrt[dst] * inv_sqrt[src]


def reference_row_check(num_nodes, row_ptr, col_idx):
    for i in range(num_nodes):
        row = col_idx[row_ptr[i]:row_ptr[i + 1]]
        if np.any(row == i):
            raise GraphError(f"self-loop on node {i}")
        if len(np.unique(row)) != len(row):
            raise GraphError(f"duplicate edges in row {i}")


def assert_same_arrays(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


@st.composite
def edge_lists(draw):
    """A node count and an unsorted edge list over it, with repeats, both
    directions of some pairs and room for isolated nodes."""
    n = draw(st.integers(1, 12))
    if n == 1:
        return n, []
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
        .map(lambda p: (p[0], (p[0] + p[1]) % n)), max_size=30))
    return n, pairs


@given(edge_lists(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_construction_matches_per_node_oracle(case, directed):
    n, pairs = case
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    g = graph_from_edges(n, edges, np.zeros((n, 1)),
                         np.zeros(n, dtype=np.int64), directed=directed)
    assert_same_arrays((g.row_ptr, g.col_idx),
                       reference_csr(n, edges, directed))
    assert np.array_equal(
        g.edge_dst, np.repeat(np.arange(n), np.diff(g.row_ptr)))
    adj = normalize_adjacency(g)
    assert_same_arrays((adj.edge_src, adj.edge_dst, adj.row_ptr,
                        adj.weights), reference_adjacency(g))


@given(edge_lists(), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_adjacency_of_unsorted_rows_matches_oracle(case, seed):
    # a Graph built directly may list a row's neighbors in any order
    n, pairs = case
    g = graph_from_edges(n, np.array(pairs, dtype=np.int64).reshape(-1, 2),
                         np.zeros((n, 1)), np.zeros(n, dtype=np.int64))
    rng = np.random.default_rng(seed)
    col = np.concatenate([rng.permutation(g.col_idx[a:b])
                          for a, b in zip(g.row_ptr[:-1], g.row_ptr[1:])])
    shuffled = Graph(n, g.row_ptr, col, g.features, g.labels)
    adj = normalize_adjacency(shuffled)
    assert_same_arrays((adj.edge_src, adj.edge_dst, adj.row_ptr,
                        adj.weights), reference_adjacency(shuffled))


@st.composite
def csr_inputs(draw):
    """Raw CSR rows over a few nodes; rows may hold self-loops and
    repeated neighbors, which the draw injects at random."""
    n = draw(st.integers(1, 8))
    rows = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        row = draw(st.lists(st.sampled_from(others), max_size=4,
                            unique=True)) if others else []
        if row and draw(st.integers(0, 4)) == 0:
            row.insert(draw(st.integers(0, len(row))),
                       draw(st.sampled_from(row)))
        if draw(st.integers(0, 5)) == 0:
            row.insert(draw(st.integers(0, len(row))), i)
        rows.append(row)
    row_ptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
    col_idx = np.array([j for r in rows for j in r], dtype=np.int64)
    return n, row_ptr, col_idx


@given(csr_inputs())
@settings(max_examples=150, deadline=None)
def test_validation_matches_per_row_oracle(case):
    n, row_ptr, col_idx = case
    try:
        reference_row_check(n, row_ptr, col_idx)
        want = None
    except GraphError as e:
        want = str(e)
    try:
        Graph(n, row_ptr, col_idx, np.zeros((n, 1)),
              np.zeros(n, dtype=np.int64))
        got = None
    except GraphError as e:
        got = str(e)
    assert got == want


def test_validation_names_lowest_row_and_loop_first():
    def message(n, rows):
        row_ptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
        col = np.array([j for r in rows for j in r], dtype=np.int64)
        with pytest.raises(GraphError) as info:
            Graph(n, row_ptr, col, np.zeros((n, 1)),
                  np.zeros(n, dtype=np.int64))
        return str(info.value)

    assert message(3, [[1], [0, 2, 2], [1, 2]]) == "duplicate edges in row 1"
    assert message(3, [[1], [2, 1, 2], []]) == "self-loop on node 1"
    assert message(3, [[1], [0], [2, 0, 0]]) == "self-loop on node 2"


# generators -----------------------------------------------------------


def test_sbm_shapes_and_determinism():
    seq = generate_sbm_tasks(6, 2, 10, 0.3, 0.05, 8, 0.2, seed=3)
    seq2 = generate_sbm_tasks(6, 2, 10, 0.3, 0.05, 8, 0.2, seed=3)
    assert seq.task_type is TaskType.NODE
    assert len(seq.tasks) == 3
    assert seq.graph.num_nodes == 60
    assert [t.classes for t in seq.tasks] == [(0, 1), (2, 3), (4, 5)]
    assert np.array_equal(seq.graph.col_idx, seq2.graph.col_idx)
    assert np.array_equal(seq.graph.features, seq2.graph.features)
    seq3 = generate_sbm_tasks(6, 2, 10, 0.3, 0.05, 8, 0.2, seed=4)
    assert not np.array_equal(seq.graph.features, seq3.graph.features)


def test_sbm_no_cross_edges_when_p_out_zero():
    seq = generate_sbm_tasks(4, 2, 8, 0.5, 0.0, 4, 0.1, seed=0)
    g = seq.graph
    blocks = g.labels[np.arange(g.num_nodes)]
    assert np.all(blocks[g.edge_src] == blocks[g.edge_dst])


def dense_upper_edges(draw, prob):
    src, dst = np.nonzero(np.triu(draw < prob, k=1))
    return np.stack([src, dst], axis=1)


@pytest.mark.parametrize("seed,num_classes,per_class,p_in,p_out", [
    (0, 6, 40, 0.295, 0.035),
    (7919, 4, 9, 0.5, 0.0),
    (3, 2, 13, 1.0, 0.2),
    (11, 3, 1, 1.0, 0.0),
    (5, 4, 25, 0.3, 0.29),
    # several row blocks of the draw, with class blocks across their edges
    (2, 3, 700, 0.02, 0.004),
])
def test_sbm_edges_match_dense_oracle(seed, num_classes, per_class, p_in,
                                      p_out):
    n = num_classes * per_class
    labels = np.repeat(np.arange(num_classes), per_class)
    prob = np.where(labels[:, None] == labels[None, :], p_in, p_out)
    draw = np.random.default_rng([seed, 0]).random((n, n))
    want = reference_csr(n, dense_upper_edges(draw, prob), directed=False)
    g = generate_sbm_tasks(num_classes, num_classes, per_class, p_in, p_out,
                           4, 0.1, seed=seed).graph
    assert_same_arrays((g.row_ptr, g.col_idx), want)


def test_sbm_draw_memory_is_bounded():
    # the 3,840-node benchmark graph: a whole (n, n) draw would be 118 MB
    tracemalloc.start()
    try:
        generate_sbm_tasks(6, 2, 640, 0.0184375, 0.0021875, 8, 1.3, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("seed,num_nodes", [(0, 3), (1, 8), (7919, 16),
                                            (4, 40)])
def test_random_graph_edges_match_dense_oracle(seed, num_nodes):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.15, 0.5)
    draw = rng.random((num_nodes, num_nodes))
    want = reference_csr(num_nodes, dense_upper_edges(draw, p),
                         directed=False)
    g = _random_graph(np.random.default_rng(seed), num_nodes, 4)
    assert_same_arrays((g.row_ptr, g.col_idx), want)


def test_sbm_split_sizes():
    seq = generate_sbm_tasks(2, 2, 10, 0.4, 0.1, 4, 0.1, seed=1)
    t = seq.tasks[0]
    assert len(t.train) == 12  # 60% of 20
    assert len(t.test) == 8
    assert not set(t.train) & set(t.test)


def test_sbm_validation():
    with pytest.raises(GraphError):
        generate_sbm_tasks(5, 2, 10, 0.3, 0.1, 4, 0.1, seed=0)
    with pytest.raises(GraphError):
        generate_sbm_tasks(4, 2, 10, 0.1, 0.3, 4, 0.1, seed=0)
    with pytest.raises(GraphError):
        generate_sbm_tasks(4, 2, 10, 1.3, 0.1, 4, 0.1, seed=0)
    with pytest.raises(GraphError, match="noise_sigma"):
        generate_sbm_tasks(4, 2, 10, 0.3, 0.1, 4, -0.5, seed=0)


def test_noiseless_separated_sbm_features():
    seq = generate_sbm_tasks(4, 2, 6, 0.5, 0.0, 8, 0.0, seed=2)
    g = seq.graph
    for c in range(4):
        feats = g.features[g.labels == c]
        assert np.allclose(feats, feats[0])
        assert np.linalg.norm(feats[0]) == pytest.approx(1.0)


def test_rule_statistics_hand_values():
    g = toy_graph(4, ((0, 1), (0, 2), (0, 3), (1, 2)))
    assert rule_statistic(g, "mean_degree") == pytest.approx(2.0)
    assert rule_statistic(g, "edge_density") == pytest.approx(8 / 12)
    assert rule_statistic(g, "max_degree") == 3.0
    assert rule_statistic(g, "triangle_count") == 1.0
    with pytest.raises(GraphError):
        rule_statistic(g, "girth")


def test_graph_tasks_structure():
    seq = generate_graph_classification_tasks(3, 20, (6, 10), seed=5)
    assert seq.task_type is TaskType.GRAPH
    assert len(seq.graphs) == 60
    assert [t.classes for t in seq.tasks] == [(0,), (1,), (2,)]
    for t in seq.tasks:
        pool = set(t.train) | set(t.test)
        assert len(pool) == 20
        assert not set(t.train) & set(t.test)
    # labels match an independent recomputation of the rule
    for t in seq.tasks:
        kind = RULE_KINDS[t.task_index % len(RULE_KINDS)]
        idx = list(t.train) + list(t.test)
        stats = np.array([rule_statistic(seq.graphs[i], kind) for i in idx])
        med = float(np.median(stats))
        want = (stats > med).astype(np.int64)
        got = np.array([seq.graphs[i].graph_label for i in idx])
        assert np.array_equal(got, want)


def test_graph_tasks_deterministic():
    a = generate_graph_classification_tasks(2, 10, (5, 8), seed=9)
    b = generate_graph_classification_tasks(2, 10, (5, 8), seed=9)
    for ga, gb in zip(a.graphs, b.graphs):
        assert np.array_equal(ga.col_idx, gb.col_idx)
        assert np.array_equal(ga.features, gb.features)
        assert ga.graph_label == gb.graph_label


# sequence validation --------------------------------------------------


def test_overlapping_class_sets_rejected():
    seq = generate_sbm_tasks(4, 2, 6, 0.4, 0.1, 4, 0.1, seed=0)
    with pytest.raises(GraphError):
        TaskSequence(task_type=TaskType.NODE,
                     tasks=(seq.tasks[0], seq.tasks[0]),
                     graph=seq.graph, graphs=None)
    # a class repeated within one task overlaps itself
    repeated = dataclasses.replace(seq.tasks[0], classes=(0, 1, 1))
    with pytest.raises(GraphError, match="repeat"):
        TaskSequence(task_type=TaskType.NODE,
                     tasks=(repeated, seq.tasks[1]),
                     graph=seq.graph, graphs=None)


@pytest.mark.parametrize("train,match", [
    (np.array([[0, 1]]), "1-D integer"),
    (np.array([0.0, 1.0]), "1-D integer"),
    (np.array([], dtype=float), "1-D integer"),
    (np.array([3, 1, 3]), "repeats"),
])
def test_task_spec_refuses_malformed_splits(train, match):
    with pytest.raises(GraphError, match=match):
        TaskSpec(task_index=0, classes=(0,), train=train, test=np.arange(0))


def test_task_spec_keeps_split_order_read_only():
    t = TaskSpec(task_index=0, classes=(0,), train=[5, 2, 9],
                 test=np.array([1], dtype=np.int32))
    assert t.train.tolist() == [5, 2, 9] and t.train.dtype == np.int64
    assert t.test.dtype == np.int64
    with pytest.raises(ValueError):
        t.train[0] = 1


def _labeled_graph():
    # 6 nodes, labels 0 0 1 1 2 2; task 0 owns classes (0, 1)
    g = toy_graph(6, ((0, 1), (2, 3), (4, 5)))
    g.labels[:] = [0, 0, 1, 1, 2, 2]
    return g


def _pool(n=4):
    return [toy_graph(3, ((0, 1), (1, 2))) for _ in range(n)]


@pytest.mark.parametrize("kind,splits,match", [
    ("node", [([0, 1], [6])], "out of range"),
    ("node", [([0, 1], [-1])], "out of range"),
    ("node", [([0, 1, 2], [2, 3])], "overlap"),
    ("node", [([0, 1], [4])], "outside its class set"),
    ("node", [([], [])], "no nodes"),
    ("graph", [([0, 1], [4])], "out of range"),
    ("graph", [([0, 1], [1])], "overlap"),
    ("graph", [([0, 1], [2]), ([3], [0])], "reuses graphs"),
])
def test_task_sequence_refuses_bad_splits(kind, splits, match):
    node = kind == "node"
    classes = [(0, 1), (2,)] if node else [(0,), (1,)]
    tasks = [TaskSpec(k, classes[k], np.array(tr, np.int64),
                      np.array(te, np.int64))
             for k, (tr, te) in enumerate(splits)]
    data = (dict(task_type=TaskType.NODE, graph=_labeled_graph()) if node
            else dict(task_type=TaskType.GRAPH, graphs=_pool()))
    with pytest.raises(GraphError, match=match):
        TaskSequence(tasks=tasks, **data)


def test_task_sequence_accepts_valid_splits():
    seq = TaskSequence(task_type=TaskType.GRAPH, graphs=_pool(), tasks=[
        TaskSpec(0, (0,), np.array([2, 0]), np.array([3])),
        TaskSpec(1, (1,), np.array([1]), np.array([], np.int64))])
    assert seq.tasks[0].train.tolist() == [2, 0]  # order kept
    seq = TaskSequence(
        task_type=TaskType.NODE, graph=_labeled_graph(), tasks=[
            TaskSpec(0, (0, 1), np.array([3, 0]), np.array([1, 2])),
            TaskSpec(1, (2,), np.array([4]), np.array([5]))])
    assert seq.feature_dim == 2


# file formats ---------------------------------------------------------


def test_dataset_roundtrip(tmp_path):
    seq = generate_sbm_tasks(4, 2, 8, 0.4, 0.05, 6, 0.3, seed=11)
    save_dataset(seq, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert sequences_equal(seq, loaded)


def test_directed_dataset_roundtrip(tmp_path):
    # a directed 4-cycle used to be written undirected, as the one pair
    # [0, 3], and reloaded with 2 stored edges instead of 4
    g = graph_from_edges(4, [[0, 1], [1, 2], [2, 3], [3, 0]],
                         np.eye(4), np.zeros(4, np.int64), directed=True)
    seq = TaskSequence(task_type=TaskType.NODE, graph=g, tasks=[
        TaskSpec(0, (0,), np.array([0, 1]), np.array([2, 3]))])
    save_dataset(seq, tmp_path / "ds")
    import json
    assert json.loads((tmp_path / "ds" / "graph.json").read_text())[
        "directed"] is True
    loaded = load_dataset(tmp_path / "ds")
    assert loaded.graph.num_edges == 4
    assert sequences_equal(seq, loaded)


def test_undirected_dataset_written_once_per_edge(tmp_path):
    seq = generate_sbm_tasks(4, 2, 8, 0.4, 0.05, 6, 0.3, seed=11)
    save_dataset(seq, tmp_path / "ds")
    import json
    spec = json.loads((tmp_path / "ds" / "graph.json").read_text())
    assert spec["directed"] is False
    assert 2 * len(spec["edges"]) == seq.graph.num_edges
    assert all(src < dst for src, dst in spec["edges"])


@pytest.mark.parametrize("nodes_per_class", [1, 2])
def test_tiny_splits_roundtrip(tmp_path, nodes_per_class):
    # on 2 nodes the train split [0, 1] used to reload as the mask [0, 1]
    # (node 1 only); on 1 node [0] reloaded as an empty mask and failed
    seq = generate_sbm_tasks(1, 1, nodes_per_class, 0.5, 0.0, 3, 0.1,
                             seed=2, train_fraction=0.8)
    assert seq.tasks[0].train.tolist() == list(range(nodes_per_class))
    save_dataset(seq, tmp_path / "ds")
    assert sequences_equal(seq, load_dataset(tmp_path / "ds"))


def test_load_autosplit_when_masks_omitted(tmp_path):
    seq = generate_sbm_tasks(2, 2, 10, 0.4, 0.1, 4, 0.2, seed=1)
    save_dataset(seq, tmp_path / "ds")
    tasks_json = (tmp_path / "ds" / "tasks.json")
    import json
    spec = json.loads(tasks_json.read_text())
    for t in spec["tasks"]:
        t.pop("train_mask")
        t.pop("test_mask")
    tasks_json.write_text(json.dumps(spec))
    loaded = load_dataset(tmp_path / "ds")
    t = loaded.tasks[0]
    # deterministic 60/40 per class in index order
    for c in (0, 1):
        nodes = np.nonzero(loaded.graph.labels == c)[0]
        cut = int(round(0.6 * len(nodes)))
        assert set(nodes[:cut]) <= set(t.train)
        assert set(nodes[cut:]) <= set(t.test)


def test_load_rejects_overlapping_classes(tmp_path):
    seq = generate_sbm_tasks(4, 2, 6, 0.4, 0.1, 4, 0.1, seed=2)
    save_dataset(seq, tmp_path / "ds")
    import json
    p = tmp_path / "ds" / "tasks.json"
    spec = json.loads(p.read_text())
    spec["tasks"][1]["classes"] = [1, 2]
    p.write_text(json.dumps(spec))
    with pytest.raises(DatasetError):
        load_dataset(tmp_path / "ds")
    spec["tasks"][1]["classes"] = [2, 3, 3]
    p.write_text(json.dumps(spec))
    with pytest.raises(DatasetError, match="repeat"):
        load_dataset(tmp_path / "ds")


@pytest.mark.parametrize("task,field,value", [
    (0, "train_mask", [True, 3]),       # a bool is not node 1
    (1, "classes", [2.7, "3"]),         # not truncated or parsed
    (1, "classes", [2.0, 3]),
    (0, "classes", [False, True]),      # not classes 0 and 1
    (0, "classes", 1),
    (0, "train_mask", 5),               # a mask is a list
    (0, "test_mask", {"0": 1}),
    (0, None, 5),                       # a task is an object
    (1, None, None),
    (1, None, ["classes"]),
    (None, None, ["tasks"]),            # so is the whole file
])
def test_load_rejects_non_integer_entries(tmp_path, task, field, value):
    # value replaces one field of a task, a whole task (field None) or
    # the whole file (task None)
    seq = generate_sbm_tasks(4, 2, 6, 0.4, 0.1, 4, 0.1, seed=2)
    save_dataset(seq, tmp_path / "ds")
    import json
    p = tmp_path / "ds" / "tasks.json"
    spec = json.loads(p.read_text())
    if task is None:
        spec = value
    elif field is None:
        spec["tasks"][task] = value
    else:
        spec["tasks"][task][field] = value
    p.write_text(json.dumps(spec))
    with pytest.raises(DatasetError, match="tasks.json"):
        load_dataset(tmp_path / "ds")


def test_load_rejects_ragged_features(tmp_path):
    seq = generate_sbm_tasks(2, 2, 6, 0.4, 0.1, 4, 0.1, seed=2)
    save_dataset(seq, tmp_path / "ds")
    f = tmp_path / "ds" / "features.csv"
    lines = f.read_text().splitlines()
    lines[1] = lines[1] + ",0.5"
    f.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError) as info:
        load_dataset(tmp_path / "ds")
    assert "line 2" in str(info.value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_features(tmp_path, value):
    # float() parses these, and a nan feature makes every loss nan
    seq = generate_sbm_tasks(2, 2, 6, 0.4, 0.1, 4, 0.1, seed=2)
    save_dataset(seq, tmp_path / "ds")
    f = tmp_path / "ds" / "features.csv"
    lines = f.read_text().splitlines()
    lines[2] = value + lines[2][lines[2].index(","):]
    f.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match="features.csv line 3"):
        load_dataset(tmp_path / "ds")


def test_load_rejects_label_out_of_range(tmp_path):
    seq = generate_sbm_tasks(2, 2, 6, 0.4, 0.1, 4, 0.1, seed=2)
    save_dataset(seq, tmp_path / "ds")
    f = tmp_path / "ds" / "labels.csv"
    lines = f.read_text().splitlines()
    lines[0] = "9"
    f.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError):
        load_dataset(tmp_path / "ds")


@pytest.mark.parametrize("edges", [[[0, 1, 2]], [0, 1], [[0.5, 1]],
                                   [[True, 3]], [[0, False]]])
def test_load_rejects_malformed_edges(tmp_path, edges):
    seq = generate_sbm_tasks(2, 2, 6, 0.4, 0.1, 4, 0.1, seed=2)
    save_dataset(seq, tmp_path / "ds")
    import json
    p = tmp_path / "ds" / "graph.json"
    spec = json.loads(p.read_text())
    spec["edges"] = edges
    p.write_text(json.dumps(spec))
    with pytest.raises(DatasetError, match="graph.json"):
        load_dataset(tmp_path / "ds")


@pytest.mark.parametrize("key, value", [
    ("directed", "false"), ("directed", 0), ("directed", None),
    ("num_nodes", True)])
def test_load_rejects_non_boolean_directed_and_bool_num_nodes(
        tmp_path, key, value):
    # "directed" is a JSON boolean: the string "false" is not read as
    # true, nor is a bool taken for a node count
    seq = generate_sbm_tasks(2, 2, 6, 0.4, 0.1, 4, 0.1, seed=2)
    save_dataset(seq, tmp_path / "ds")
    import json
    p = tmp_path / "ds" / "graph.json"
    spec = json.loads(p.read_text())
    spec[key] = value
    p.write_text(json.dumps(spec))
    with pytest.raises(DatasetError, match="graph.json"):
        load_dataset(tmp_path / "ds")


def test_save_graph_pool_unsupported(tmp_path):
    seq = generate_graph_classification_tasks(2, 8, (5, 7), seed=0)
    with pytest.raises(DatasetError):
        save_dataset(seq, tmp_path / "ds")


def test_features_roundtrip_exactly(tmp_path):
    seq = generate_sbm_tasks(2, 2, 6, 0.4, 0.1, 4, 0.37, seed=13)
    save_dataset(seq, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert np.array_equal(seq.graph.features, loaded.graph.features)


def test_tasks_json_mask_forms_load_sorted_and_round_trip(tmp_path):
    seq = generate_sbm_tasks(4, 2, 5, 0.5, 0.1, 3, 0.2, seed=4)
    save_dataset(seq, tmp_path / "ds")
    import json
    p = tmp_path / "ds" / "tasks.json"
    spec = json.loads(p.read_text())
    n = seq.graph.num_nodes
    task0 = seq.tasks[0]
    # task 0: a 0/1 list over all nodes and an unsorted list with a repeat
    flags = [0] * n
    for i in task0.train:
        flags[int(i)] = 1
    spec["tasks"][0]["train_mask"] = flags
    test = [int(i) for i in task0.test]
    spec["tasks"][0]["test_mask"] = test[::-1] + [test[0]]
    p.write_text(json.dumps(spec))
    loaded = load_dataset(tmp_path / "ds")
    got = loaded.tasks[0]
    assert got.train.tolist() == sorted(task0.train.tolist())
    assert got.test.tolist() == sorted(set(test))
    assert sequences_equal(seq, loaded)
    save_dataset(loaded, tmp_path / "again")
    assert sequences_equal(loaded, load_dataset(tmp_path / "again"))
