"""Dataset directory serialization for node-task sequences.

Layout: ``graph.json`` (node count, directed flag, edge list),
``features.csv`` (row i = node i), ``labels.csv`` (one integer per
line), ``tasks.json`` (ordered class partitions with optional explicit
masks). Graph-level sequences are generator-only and not covered by
this format.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional

import numpy as np

from .structures import (
    GraphError,
    TaskSequence,
    TaskSpec,
    TaskType,
    graph_from_edges,
)


class DatasetError(ValueError):
    """A dataset directory failed validation; message names file/line."""


def save_dataset(seq: TaskSequence, path: str) -> None:
    """Write a node-task sequence as a dataset directory.

    A graph whose stored edges are symmetric is written undirected, each
    edge once (src < dst); any other as ``"directed": true`` with every
    stored edge. Each split is written as a sorted node-index list under
    its ``train_mask``/``test_mask`` key, or as its 0/1 mask where the
    index list would read back as one.
    """
    if seq.task_type is not TaskType.NODE:
        raise DatasetError(
            "only node-task sequences have a directory format; "
            "graph-task sequences are generator-defined")
    os.makedirs(path, exist_ok=True)
    g = seq.graph
    n = g.num_nodes
    # CSR order sorts the stored keys; the reversed edges match them
    # exactly when every edge is stored both ways
    directed = not np.array_equal(g.edge_dst * n + g.edge_src,
                                  np.sort(g.edge_src * n + g.edge_dst))
    if directed:  # a pair [i, j] is stored in row i, as load reads it
        edges = np.stack([g.edge_dst, g.edge_src], axis=1)
    else:
        keep = g.edge_src < g.edge_dst
        edges = np.stack([g.edge_src[keep], g.edge_dst[keep]], axis=1)
    with open(os.path.join(path, "graph.json"), "w") as f:
        json.dump({"num_nodes": n, "directed": directed,
                   "edges": edges.tolist()}, f)
    with open(os.path.join(path, "features.csv"), "w") as f:
        for row in g.features:
            f.write(",".join("%.17g" % v for v in row) + "\n")
    with open(os.path.join(path, "labels.csv"), "w") as f:
        for v in g.labels:
            f.write(f"{int(v)}\n")
    with open(os.path.join(path, "tasks.json"), "w") as f:
        json.dump({"tasks": [
            {"classes": list(t.classes),
             "train_mask": _split_entry(t.train, n),
             "test_mask": _split_entry(t.test, n)}
            for t in seq.tasks]}, f)


def _split_entry(idx: np.ndarray, num_nodes: int) -> list:
    """A split as ``tasks.json`` holds it: its node indices, or its 0/1
    mask when the index list would parse as a mask (see _parse_mask),
    which only a graph of at most 2 nodes allows."""
    if len(idx) == num_nodes and np.all(idx <= 1):
        return np.isin(np.arange(num_nodes), idx).astype(int).tolist()
    return idx.tolist()


def _load_json(path: str, name: str) -> dict:
    full = os.path.join(path, name)
    if not os.path.exists(full):
        raise DatasetError(f"{name}: file missing from {path}")
    try:
        with open(full) as f:
            spec = json.load(f)
    except json.JSONDecodeError as e:
        raise DatasetError(f"{name} line {e.lineno}: {e.msg}") from None
    if not isinstance(spec, dict):
        raise DatasetError(f"{name}: the top-level value must be an object")
    return spec


def _parse_mask(vals, num_nodes: int, what: str) -> np.ndarray:
    """A mask entry as sorted, distinct node indices: either a 0/1 list
    over all nodes or a list of node indices (ints, so no bools),
    repeats allowed."""
    if not isinstance(vals, list):
        raise DatasetError(f"tasks.json: {what} must be a list, got {vals!r}")
    if len(vals) == num_nodes and all(v in (0, 1, True, False)
                                      for v in vals):
        return np.flatnonzero(np.asarray(vals, dtype=bool))
    for v in vals:
        if type(v) is not int or not 0 <= v < num_nodes:
            raise DatasetError(
                f"tasks.json: {what} entry {v!r} is not a node index in "
                f"[0, {num_nodes})")
    return np.unique(np.asarray(vals, dtype=np.int64))


def load_dataset(path: str, train_fraction: float = 0.6) -> TaskSequence:
    """Read a dataset directory into a validated node-task sequence.

    Tasks lacking explicit masks get a deterministic per-class split:
    the first ``train_fraction`` of each class's nodes in index order
    train, the rest test.
    """
    gspec = _load_json(path, "graph.json")
    for key in ("num_nodes", "directed", "edges"):
        if key not in gspec:
            raise DatasetError(f"graph.json: missing key '{key}'")
    num_nodes, directed = gspec["num_nodes"], gspec["directed"]
    if (not isinstance(num_nodes, int) or isinstance(num_nodes, bool)
            or num_nodes <= 0):
        raise DatasetError(f"graph.json: bad num_nodes {num_nodes!r}")
    if not isinstance(directed, bool):
        raise DatasetError(
            f"graph.json: directed must be true or false, got {directed!r}")

    features: List[List[float]] = []
    width: Optional[int] = None
    fpath = os.path.join(path, "features.csv")
    if not os.path.exists(fpath):
        raise DatasetError(f"features.csv: file missing from {path}")
    with open(fpath) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(v) for v in line.split(",")]
            except ValueError:
                raise DatasetError(
                    f"features.csv line {lineno}: non-numeric value"
                ) from None
            if not np.all(np.isfinite(row)):
                raise DatasetError(
                    f"features.csv line {lineno}: non-finite value")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DatasetError(
                    f"features.csv line {lineno}: expected {width} values, "
                    f"got {len(row)}")
            features.append(row)
    if len(features) != num_nodes:
        raise DatasetError(
            f"features.csv: {len(features)} rows for {num_nodes} nodes")

    labels: List[int] = []
    lpath = os.path.join(path, "labels.csv")
    if not os.path.exists(lpath):
        raise DatasetError(f"labels.csv: file missing from {path}")
    with open(lpath) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                labels.append(int(line))
            except ValueError:
                raise DatasetError(
                    f"labels.csv line {lineno}: not an integer") from None
    if len(labels) != num_nodes:
        raise DatasetError(
            f"labels.csv: {len(labels)} labels for {num_nodes} nodes")
    label_arr = np.asarray(labels, dtype=np.int64)

    edges = gspec["edges"]
    # a JSON true would pass as node 1, as in _parse_mask
    if isinstance(edges, list) and any(
            isinstance(v, bool) for e in edges if isinstance(e, list)
            for v in e):
        raise DatasetError(
            "graph.json: edge endpoints must be integers, not true/false")
    try:
        graph = graph_from_edges(num_nodes, edges,
                                 np.asarray(features), label_arr,
                                 directed=directed)
    except (GraphError, ValueError) as e:
        raise DatasetError(f"graph.json: {e}") from None

    tspec = _load_json(path, "tasks.json")
    if "tasks" not in tspec or not isinstance(tspec["tasks"], list):
        raise DatasetError("tasks.json: missing 'tasks' list")
    tasks: List[TaskSpec] = []
    for k, entry in enumerate(tspec["tasks"]):
        if not isinstance(entry, dict):
            raise DatasetError(f"tasks.json: task {k} must be an object, "
                               f"got {entry!r}")
        if "classes" not in entry:
            raise DatasetError(f"tasks.json: task {k} missing 'classes'")
        classes = entry["classes"]
        if not isinstance(classes, list) or any(
                type(c) is not int for c in classes):
            raise DatasetError(f"tasks.json: task {k} classes must be a "
                               f"list of integers, got {classes!r}")
        classes = tuple(classes)
        bad = [c for c in classes if c < 0 or c > int(label_arr.max())]
        if bad:
            raise DatasetError(
                f"tasks.json: task {k} classes {bad} exceed the label "
                f"range [0, {int(label_arr.max())}]")
        has_train = "train_mask" in entry and entry["train_mask"] is not None
        has_test = "test_mask" in entry and entry["test_mask"] is not None
        if has_train != has_test:
            raise DatasetError(
                f"tasks.json: task {k} must give both masks or neither")
        if has_train:
            train = _parse_mask(entry["train_mask"], num_nodes,
                                f"task {k} train_mask")
            test = _parse_mask(entry["test_mask"], num_nodes,
                               f"task {k} test_mask")
        else:
            train, test = [], []
            for c in classes:
                nodes = np.nonzero(label_arr == c)[0]
                n_train = int(round(train_fraction * len(nodes)))
                train.extend(nodes[:n_train])
                test.extend(nodes[n_train:])
            train = np.sort(np.asarray(train, dtype=np.int64))
            test = np.sort(np.asarray(test, dtype=np.int64))
        tasks.append(TaskSpec(task_index=k, classes=classes, train=train,
                              test=test))
    try:
        return TaskSequence(task_type=TaskType.NODE, tasks=tasks,
                            graph=graph)
    except GraphError as e:
        raise DatasetError(f"tasks.json: {e}") from None


def sequences_equal(a: TaskSequence, b: TaskSequence) -> bool:
    """Structural equality: same graph arrays, classes, and splits."""
    if a.task_type is not b.task_type or a.num_tasks != b.num_tasks:
        return False
    ga, gb = a.graph, b.graph
    if ga.num_nodes != gb.num_nodes:
        return False
    if not (np.array_equal(ga.row_ptr, gb.row_ptr)
            and np.array_equal(ga.col_idx, gb.col_idx)
            and np.array_equal(ga.features, gb.features)
            and np.array_equal(ga.labels, gb.labels)):
        return False
    for ta, tb in zip(a.tasks, b.tasks):
        if ta.classes != tb.classes:
            return False
        if not (np.array_equal(ta.train, tb.train)
                and np.array_equal(ta.test, tb.test)):
            return False
    return True
