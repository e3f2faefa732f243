"""Gradient projection against episodic-memory constraints.

When the proposed update direction would increase any stored task's
loss (negative inner product with that task's gradient), the gradient
is replaced by the closest direction satisfying all constraints, found
through the small dual quadratic program in the number of past tasks.
"""

from __future__ import annotations

import numpy as np

PGD_ITERATIONS = 200


def gem_project(grad_new: np.ndarray, grads_mem: np.ndarray) -> np.ndarray:
    """Project ``grad_new`` so every memory inner product is >= 0.

    ``grads_mem`` is [num_past_tasks x dim]. Feasible input is returned
    unchanged. The dual minimizes (1/2) v^T G G^T v + g^T G^T v over
    v >= 0 by projected gradient descent with a fixed iteration budget
    and step 1/frobenius(G G^T), stopping early at a fixed point; the
    result is g + G^T v.
    """
    g = np.asarray(grad_new, dtype=np.float64)
    mem = np.atleast_2d(np.asarray(grads_mem, dtype=np.float64))
    if mem.shape[0] == 0:
        raise ValueError("need at least one memory gradient")
    if mem.shape[1] != g.shape[0]:
        raise ValueError(
            f"memory gradients of dim {mem.shape[1]} vs gradient "
            f"{g.shape[0]}")
    dots = mem @ g
    if np.all(dots >= 0.0):
        return g.copy()
    gram = mem @ mem.T
    b = dots
    norm = np.linalg.norm(gram)
    if norm == 0.0:
        return g.copy()
    step = 1.0 / norm
    v = np.zeros(mem.shape[0])
    for _ in range(PGD_ITERATIONS):
        nxt = np.maximum(v - step * (gram @ v + b), 0.0)
        # the map is deterministic: once it returns its input bit for
        # bit, every later iteration would too
        if nxt.tobytes() == v.tobytes():
            break
        v = nxt
    return g + mem.T @ v
