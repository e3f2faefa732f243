"""Graph containers, adjacency normalization, and task sequences.

Graphs are CSR: row i lists the neighbors of node i, both directions
present for undirected input, no self-loops in the raw structure.
Instances are treated as immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np


class GraphError(ValueError):
    """Malformed graph structure or task split."""


class TaskType(Enum):
    NODE = "node"
    GRAPH = "graph"


class Graph:
    """CSR adjacency with per-node features and integer labels.

    ``labels`` carries node classes for node-level tasks; graph-level
    instances use ``graph_label`` (0/1) instead and keep ``labels`` as
    zeros.
    """

    def __init__(self, num_nodes: int, row_ptr: np.ndarray,
                 col_idx: np.ndarray, features: np.ndarray,
                 labels: np.ndarray, graph_label: Optional[int] = None):
        self.num_nodes = int(num_nodes)
        self.row_ptr = np.asarray(row_ptr, dtype=np.int64)
        self.col_idx = np.asarray(col_idx, dtype=np.int64)
        self.features = np.asarray(features, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.graph_label = graph_label
        self._validate()

    def _validate(self) -> None:
        n = self.num_nodes
        if n <= 0:
            raise GraphError("graph must have at least one node")
        if self.row_ptr.shape != (n + 1,):
            raise GraphError(f"row_ptr must have length {n + 1}")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != self.col_idx.shape[0]:
            raise GraphError("row_ptr endpoints do not match edge count")
        counts = np.diff(self.row_ptr)
        if np.any(counts < 0):
            raise GraphError("row_ptr must be non-decreasing")
        if self.col_idx.size and (
                self.col_idx.min() < 0 or self.col_idx.max() >= n):
            raise GraphError(f"column indices out of range [0, {n})")
        # edge arrays in CSR order: edge e runs col_idx[e] -> dst[e]
        self.edge_dst = np.repeat(np.arange(n, dtype=np.int64), counts)
        self.edge_src = self.col_idx
        # report the lowest offending row, a self-loop before a duplicate
        # in the same row
        loops = np.flatnonzero(self.col_idx == self.edge_dst)
        loop_row = int(self.edge_dst[loops[0]]) if loops.size else n
        keys = np.sort(self.edge_dst * n + self.col_idx)
        dups = keys[1:][keys[1:] == keys[:-1]]
        dup_row = int(dups[0]) // n if dups.size else n
        if loop_row < n and loop_row <= dup_row:
            raise GraphError(f"self-loop on node {loop_row}")
        if dup_row < n:
            raise GraphError(f"duplicate edges in row {dup_row}")
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise GraphError(
                f"features must be [{n} x d], got {self.features.shape}")
        if self.labels.shape != (n,):
            raise GraphError(f"labels must have length {n}")

    @property
    def num_edges(self) -> int:
        return int(self.col_idx.shape[0])

    def degrees(self) -> np.ndarray:
        return np.diff(self.row_ptr)


def _edge_pairs(edges, num_nodes: int) -> np.ndarray:
    """``edges`` as an (E, 2) int64 array of ``[src, dst]`` pairs, or
    :class:`GraphError` unless it is empty or an (E, 2) array of integral
    values in ``[0, num_nodes)``."""
    try:
        pairs = np.asarray(edges)
    except ValueError as e:  # ragged nesting
        raise GraphError(f"edges must be [src, dst] pairs: {e}") from None
    if pairs.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GraphError(
            f"edges must be [src, dst] pairs, got shape {pairs.shape}")
    if np.issubdtype(pairs.dtype, np.floating):
        if not np.all(np.isfinite(pairs) & (pairs == np.round(pairs))):
            raise GraphError("edge endpoints must be integers")
    elif not np.issubdtype(pairs.dtype, np.integer):
        raise GraphError(
            f"edge endpoints must be integers, got {pairs.dtype}")
    if pairs.min() < 0 or pairs.max() >= num_nodes:
        raise GraphError(f"edge endpoint out of range [0, {num_nodes})")
    return pairs.astype(np.int64)


def graph_from_edges(num_nodes: int, edges: Sequence[Tuple[int, int]],
                     features: np.ndarray, labels: np.ndarray,
                     directed: bool = False,
                     graph_label: Optional[int] = None) -> Graph:
    """Build a CSR graph from an edge list, deduplicating.

    ``edges`` is empty or an (E, 2) array-like of integral ``[src, dst]``
    pairs. Undirected input stores both directions; a directed pair is
    kept as given (row i = targets of i's out-edges). Rows are sorted.
    """
    pairs = _edge_pairs(edges, num_nodes)
    src, dst = pairs[:, 0], pairs[:, 1]
    keys = src * num_nodes + dst
    if not directed:
        keys = np.concatenate([keys, dst * num_nodes + src])
    # one key per distinct pair, sorted: CSR order, rows then columns.
    # Sort and drop repeats rather than call np.unique, which hashes 1-D
    # integers and is then many times slower than the sort.
    keys = np.sort(keys)
    keys = keys[np.diff(keys, prepend=-1) > 0]
    rows, cols = np.divmod(keys, num_nodes)
    counts = np.bincount(rows, minlength=num_nodes)
    row_ptr = np.concatenate([[0], np.cumsum(counts)])
    return Graph(num_nodes, row_ptr, cols, features, labels, graph_label)


class NormalizedAdjacency:
    """Symmetrically normalized adjacency with self-loops.

    Edge weight is 1/sqrt(deg_i * deg_j) with degrees counted after a
    self-loop is added to every node. The edge arrays therefore include
    one (i, i) entry per node and are the neighborhood structure used
    wherever self-loops are wanted (attention included).
    """

    def __init__(self, graph: Graph):
        n = graph.num_nodes
        deg = graph.degrees() + 1
        # one sort of the dst * n + src keys, the n self-loops' included,
        # lists each row's sources in order
        loop_keys = np.arange(n, dtype=np.int64) * (n + 1)
        keys = np.sort(np.concatenate(
            [graph.edge_dst * n + graph.edge_src, loop_keys]))
        self.num_nodes = n
        self.edge_dst, self.edge_src = np.divmod(keys, n)
        self.row_ptr = graph.row_ptr + np.arange(n + 1)
        inv_sqrt = 1.0 / np.sqrt(deg.astype(np.float64))
        self.weights = inv_sqrt[self.edge_dst] * inv_sqrt[self.edge_src]


def normalize_adjacency(graph: Graph) -> NormalizedAdjacency:
    return NormalizedAdjacency(graph)


@dataclass(frozen=True, eq=False)
class TaskSpec:
    """One task: its class set and its train/test split.

    ``train`` and ``test`` are 1-D int64 index arrays without repeats:
    nodes of the shared graph for node tasks, graphs of the pool for
    graph tasks. They are checked and made read-only here, once; their
    range against the graph or pool is checked by :class:`TaskSequence`.
    """

    task_index: int
    classes: Tuple[int, ...]
    train: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        for name in ("train", "test"):
            idx = np.asarray(getattr(self, name))
            if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
                raise GraphError(
                    f"task {self.task_index} {name} must be a 1-D integer "
                    f"index array, got {idx.dtype} of shape {idx.shape}")
            if len(np.unique(idx)) < len(idx):
                raise GraphError(
                    f"task {self.task_index} {name} repeats an index")
            idx = idx.astype(np.int64)
            idx.flags.writeable = False
            object.__setattr__(self, name, idx)


@dataclass
class TaskSequence:
    """Ordered disjoint tasks over one shared graph or a graph pool."""

    task_type: TaskType
    tasks: List[TaskSpec]
    graph: Optional[Graph] = None
    graphs: List[Graph] = field(default_factory=list)

    def __post_init__(self):
        self.validate()

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def feature_dim(self) -> int:
        g = self.graph if self.graph is not None else self.graphs[0]
        return g.features.shape[1]

    def validate(self) -> None:
        if not self.tasks:
            raise GraphError("a task sequence needs at least one task")
        node = self.task_type is TaskType.NODE
        if node and self.graph is None:
            raise GraphError("node tasks need a shared graph")
        if not node and not self.graphs:
            raise GraphError("graph tasks need a graph pool")
        size = self.graph.num_nodes if node else len(self.graphs)
        what = "node" if node else "graph"
        seen: set = set()
        used = np.zeros(size, dtype=bool)
        for k, t in enumerate(self.tasks):
            if t.task_index != k:
                raise GraphError(f"task {k} has index {t.task_index}")
            cs = set(t.classes)
            if not cs:
                raise GraphError(f"task {k} has an empty class set")
            if len(cs) != len(t.classes):
                raise GraphError(f"task {k} classes {t.classes} repeat a "
                                 "class")
            if cs & seen:
                raise GraphError(
                    f"task {k} classes {sorted(cs & seen)} reused from an "
                    "earlier task")
            seen |= cs
            both = np.concatenate([t.train, t.test])
            if both.size == 0:
                raise GraphError(f"task {k} has no {what}s")
            if both.min() < 0 or both.max() >= size:
                raise GraphError(
                    f"task {k} {what} index out of range [0, {size})")
            if len(np.unique(both)) < len(both):
                raise GraphError(f"task {k} train/test {what}s overlap")
            bad = set(self.graph.labels[both].tolist()) - cs if node else ()
            if bad:
                raise GraphError(f"task {k} splits include labels "
                                 f"{sorted(bad)} outside its class set")
            if used[both].any():
                raise GraphError(
                    f"task {k} reuses {what}s from an earlier task")
            used[both] = True


def merge_graphs(graphs: Sequence[Graph]) -> Tuple[Graph, np.ndarray]:
    """Block-diagonal union of graphs for batched forward passes.

    Returns the merged graph and a node-to-graph id vector aligned with
    its nodes.
    """
    if not graphs:
        raise GraphError("cannot merge zero graphs")
    offsets = np.cumsum([0] + [g.num_nodes for g in graphs])
    col = np.concatenate(
        [g.col_idx + off for g, off in zip(graphs, offsets)])
    ptr_parts = [np.asarray([0], dtype=np.int64)]
    edge_off = 0
    for g in graphs:
        ptr_parts.append(g.row_ptr[1:] + edge_off)
        edge_off += g.num_edges
    row_ptr = np.concatenate(ptr_parts)
    feats = np.concatenate([g.features for g in graphs], axis=0)
    labels = np.concatenate([g.labels for g in graphs])
    merged = Graph(int(offsets[-1]), row_ptr, col, feats, labels)
    node_to_graph = np.repeat(np.arange(len(graphs), dtype=np.int64),
                              [g.num_nodes for g in graphs])
    return merged, node_to_graph
