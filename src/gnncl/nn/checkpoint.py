"""Checkpoints: JSON manifest plus a little-endian float64 blob.

The blob holds all arrays back to back; the manifest's index table maps
each name to (shape, byte offset). The same blob scheme serializes
importance records.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .layers import ModelError
from .model import GnnModel, ModelConfig

FORMAT_VERSION = 2


def write_blob(path: str, arrays: Sequence[Tuple[str, np.ndarray]]
               ) -> List[dict]:
    """Write arrays into one binary file; return the index table."""
    index: List[dict] = []
    offset = 0
    with open(path, "wb") as f:
        for name, arr in arrays:
            data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
            index.append({"name": name, "shape": list(arr.shape),
                          "offset": offset})
            f.write(data)
            offset += len(data)
    return index


def _is_count(value) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= 0)


def read_blob(path: str, index: Sequence[dict]) -> Dict[str, np.ndarray]:
    """The arrays an index table names; :class:`ModelError` naming the
    array if its entry's ``shape`` is not a list of non-negative ints,
    its ``offset`` is not a non-negative int, or the blob ends before
    the array does."""
    with open(path, "rb") as f:
        raw = f.read()
    out: Dict[str, np.ndarray] = {}
    for entry in index:
        if not isinstance(entry, dict):
            raise ModelError(f"{os.path.basename(path)} index entry "
                             f"{entry!r} is not an object")
        name, shape, start = (entry.get("name"), entry.get("shape"),
                              entry.get("offset"))
        if not (isinstance(shape, list) and all(map(_is_count, shape))
                and _is_count(start)):
            raise ModelError(
                f"{os.path.basename(path)} index entry for '{name}' "
                "needs a list of non-negative integers as shape and a "
                f"non-negative integer offset, got {shape!r} and "
                f"{start!r}")
        count = math.prod(shape)
        if start + 8 * count > len(raw):
            raise ModelError(
                f"{os.path.basename(path)} is too short for '{name}'")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=start)
        out[name] = arr.reshape(shape).astype(np.float64)
    return out


def read_manifest(path: str, name: str, version: int,
                  fields: Dict[str, type]) -> dict:
    """The JSON object in file ``name`` under ``path``; :class:`ModelError`
    if the file is missing or is not JSON, if the object's ``format`` is
    not ``version``, or if a key of ``fields`` is missing or holds
    another type than the one it maps to (a bool is not an int)."""
    full = os.path.join(path, name)
    if not os.path.exists(full):
        raise ModelError(f"no {name} under {path}")
    try:
        with open(full) as f:
            manifest = json.load(f)
    except ValueError as e:
        raise ModelError(f"{name} under {path} is not JSON: {e}") from None
    if not isinstance(manifest, dict):
        raise ModelError(f"{name} must hold a JSON object")
    if manifest.get("format") != version:
        raise ModelError(
            f"unsupported {name} format {manifest.get('format')!r}")
    for key, kind in fields.items():
        value = manifest.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ModelError(f"{name} needs a {kind.__name__} as '{key}', "
                             f"got {value!r}")
    return manifest


def save_checkpoint(model: GnnModel, path: str) -> None:
    os.makedirs(path, exist_ok=True)
    index = write_blob(os.path.join(path, "params.bin"),
                       model.state_arrays())
    manifest = {
        "format": FORMAT_VERSION,
        "config": asdict(model.config),
        "in_dim": model.in_dim,
        "num_classes": model.num_classes,
        "params": index,
    }
    with open(os.path.join(path, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1)


def load_checkpoint(path: str) -> GnnModel:
    manifest = read_manifest(
        path, "manifest.json", FORMAT_VERSION,
        {"config": dict, "in_dim": int, "num_classes": int, "params": list})
    dims = manifest["in_dim"], manifest["num_classes"]
    if min(dims) < 1:
        raise ModelError(
            f"manifest.json in_dim and num_classes must be >= 1, got {dims}")
    try:
        config = ModelConfig(**manifest["config"])
    except TypeError as e:
        raise ModelError(f"manifest.json config: {e}") from None
    model = GnnModel(config, *dims, np.random.default_rng(0))
    arrays = read_blob(os.path.join(path, "params.bin"),
                       manifest["params"])
    model.load_state(arrays)
    return model
