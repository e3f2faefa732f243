"""Synthetic task sequences: SBM node splits and rule-labeled graph pools.

All randomness flows through ``numpy.random.default_rng`` seeded with
``[seed, stream]`` sequences, so a fixed seed reproduces edge lists,
features, and splits bit for bit.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .structures import (
    Graph,
    GraphError,
    TaskSequence,
    TaskSpec,
    TaskType,
    graph_from_edges,
)


def _split(nodes: np.ndarray, train_fraction: float,
           rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """A random (train, test) cut of ``nodes``, ``train_fraction`` of
    them (rounded) in train."""
    perm = rng.permutation(nodes)
    n_train = int(round(train_fraction * len(nodes)))
    return perm[:n_train], perm[n_train:]


# uniform draws per row block of an edge draw: a generator holds one
# block (8 MB of float64) at a time, whatever the node count
DRAW_BLOCK = 2 ** 20


def _draw_upper_pairs(rng: np.random.Generator, n: int, p: float,
                      class_size: int = 0, p_in: float = 0.0
                      ) -> np.ndarray:
    """The edges of an undirected draw: the (i, j) pairs with i < j
    whose entry of an (n, n) uniform draw from ``rng`` is below ``p``,
    in row-major order.

    With ``class_size`` > 0 the nodes form contiguous classes of that
    size, and pairs within a class compare against ``p_in`` instead.
    The draw is made in row blocks of about ``DRAW_BLOCK`` entries, each
    into the same buffer; the stream, and so every edge, is the same as
    one (n, n) draw.
    """
    rows = max(1, min(n, DRAW_BLOCK // max(n, 1)))
    buf = np.empty((rows, n))
    parts = [np.zeros((0, 2), dtype=np.int64)]
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        draw = rng.random(out=buf[:r1 - r0])
        hit = draw < p
        if class_size:
            for c0 in range(r0 - r0 % class_size, r1, class_size):
                c1 = c0 + class_size
                block = (slice(max(c0, r0) - r0, min(c1, r1) - r0),
                         slice(c0, c1))
                hit[block] = draw[block] < p_in
        # np.nonzero on a 2-D mask is several times slower than on its
        # flat view
        src, dst = np.divmod(np.flatnonzero(hit), n)
        src += r0
        upper = src < dst
        parts.append(np.stack([src[upper], dst[upper]], axis=1))
    return np.concatenate(parts)


def generate_sbm_tasks(num_classes: int, classes_per_task: int,
                       nodes_per_class: int, p_in: float, p_out: float,
                       feature_dim: int, noise_sigma: float,
                       seed: int, train_fraction: float = 0.6
                       ) -> TaskSequence:
    """Stochastic-block-model node-classification sequence.

    One graph; class c occupies a contiguous node block and gets
    features drawn around a unit-norm prototype. Tasks partition the
    classes in order, ``classes_per_task`` at a time, each with a
    per-class train/test split (default 60/40).
    """
    if num_classes % classes_per_task != 0:
        raise GraphError(
            f"{num_classes} classes do not divide into tasks of "
            f"{classes_per_task}")
    for name, p in (("p_in", p_in), ("p_out", p_out)):
        if not 0.0 <= p <= 1.0:
            raise GraphError(f"{name}={p} outside [0, 1]")
    if p_in <= p_out:
        raise GraphError("p_in must exceed p_out")
    if noise_sigma < 0:
        raise GraphError(f"noise_sigma={noise_sigma} must be >= 0")

    n = num_classes * nodes_per_class
    labels = np.repeat(np.arange(num_classes), nodes_per_class)

    edges = _draw_upper_pairs(np.random.default_rng([seed, 0]), n, p_out,
                              nodes_per_class, p_in)

    feat_rng = np.random.default_rng([seed, 1])
    protos = feat_rng.normal(size=(num_classes, feature_dim))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    features = protos[labels]
    if noise_sigma > 0:
        features = features + noise_sigma * feat_rng.normal(
            size=(n, feature_dim))

    graph = graph_from_edges(n, edges, features, labels, directed=False)

    split_rng = np.random.default_rng([seed, 2])
    tasks: List[TaskSpec] = []
    for k in range(num_classes // classes_per_task):
        classes = tuple(range(k * classes_per_task,
                              (k + 1) * classes_per_task))
        cuts = [_split(np.nonzero(labels == c)[0], train_fraction,
                       split_rng) for c in classes]
        tasks.append(TaskSpec(
            task_index=k, classes=classes,
            train=np.sort(np.concatenate([tr for tr, _ in cuts])),
            test=np.sort(np.concatenate([te for _, te in cuts]))))
    return TaskSequence(task_type=TaskType.NODE, tasks=tasks, graph=graph)


RULE_KINDS = ("mean_degree", "edge_density", "max_degree", "triangle_count")


def rule_statistic(graph: Graph, kind: str) -> float:
    """The structural statistic a graph-task labeling rule thresholds."""
    deg = graph.degrees()
    if kind == "mean_degree":
        return float(deg.mean())
    if kind == "edge_density":
        n = graph.num_nodes
        possible = n * (n - 1)
        return float(graph.num_edges / possible) if possible else 0.0
    if kind == "max_degree":
        return float(deg.max())
    if kind == "triangle_count":
        n = graph.num_nodes
        a = np.zeros((n, n))
        a[graph.edge_dst, graph.edge_src] = 1.0
        return float(np.round(np.trace(a @ a @ a) / 6.0))
    raise GraphError(f"unknown rule kind '{kind}'")


def _random_graph(rng: np.random.Generator, num_nodes: int,
                  feature_dim: int) -> Graph:
    p = rng.uniform(0.15, 0.5)
    edges = _draw_upper_pairs(rng, num_nodes, p)
    # constant first channel plus noise: degree information then flows
    # through sum aggregation
    features = rng.normal(scale=0.1, size=(num_nodes, feature_dim))
    features[:, 0] = 1.0
    labels = np.zeros(num_nodes, dtype=np.int64)
    return graph_from_edges(num_nodes, edges, features, labels,
                            directed=False)


def generate_graph_classification_tasks(num_tasks: int, graphs_per_task: int,
                                        nodes_range: Tuple[int, int],
                                        seed: int, feature_dim: int = 4,
                                        train_fraction: float = 0.6
                                        ) -> TaskSequence:
    """Binary graph-classification sequence over random graph pools.

    Task t owns its own ``graphs_per_task`` graphs and labels them 1
    when a task-specific structural statistic exceeds the pool median,
    giving a roughly balanced binary target per task. Task t's class id
    is t (one binary head column per task).
    """
    if num_tasks < 1:
        raise GraphError("need at least one task")
    lo, hi = nodes_range
    if lo < 3 or hi < lo:
        raise GraphError(f"bad nodes_range {nodes_range}")
    graphs: List[Graph] = []
    tasks: List[TaskSpec] = []
    for t in range(num_tasks):
        rng = np.random.default_rng([seed, 10 + t])
        pool = [_random_graph(rng, int(rng.integers(lo, hi + 1)),
                              feature_dim) for _ in range(graphs_per_task)]
        kind = RULE_KINDS[t % len(RULE_KINDS)]
        stats = np.array([rule_statistic(g, kind) for g in pool])
        threshold = float(np.median(stats))
        for g, s in zip(pool, stats):
            g.graph_label = int(s > threshold)
        base = len(graphs)
        graphs.extend(pool)
        train, test = _split(np.arange(base, base + graphs_per_task),
                             train_fraction, rng)
        tasks.append(TaskSpec(task_index=t, classes=(t,), train=train,
                              test=test))
    return TaskSequence(task_type=TaskType.GRAPH, tasks=tasks, graphs=graphs)
