"""Gradient projection for episodic-memory replay."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnncl.continual.gem import PGD_ITERATIONS, gem_project


def active_set_solution(g, mem):
    """Exact QP solution by enumerating KKT active sets.

    Minimize ||x - g||^2 subject to mem @ x >= 0. Only viable for a
    handful of constraints; used as an independent oracle.
    """
    k = mem.shape[0]
    best = None
    for r in range(k + 1):
        for subset in itertools.combinations(range(k), r):
            s = list(subset)
            if s:
                gram = mem[s] @ mem[s].T
                try:
                    v = np.linalg.solve(gram, -(mem[s] @ g))
                except np.linalg.LinAlgError:
                    continue
                if np.any(v < -1e-12):
                    continue
                x = g + mem[s].T @ v
            else:
                x = g.copy()
            if np.all(mem @ x >= -1e-9):
                d = np.linalg.norm(x - g)
                if best is None or d < best[0] - 1e-12:
                    best = (d, x)
    assert best is not None
    return best[1]


def test_feasible_gradient_unchanged():
    g = np.array([1.0, 2.0, 3.0])
    mem = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    out = gem_project(g, mem)
    assert np.array_equal(out, g)
    out[0] = -5.0  # returned array is a copy
    assert g[0] == 1.0


def test_single_constraint_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = rng.normal(size=6)
        m = rng.normal(size=6)
        if g @ m >= 0:
            g = -g
        if g @ m >= 0:
            continue
        expected = g - (g @ m) / (m @ m) * m
        out = gem_project(g, m[None, :])
        assert np.max(np.abs(out - expected)) < 1e-8


def test_projection_is_orthogonal_residual():
    # for one violated constraint the correction is parallel to m and
    # the output is exactly orthogonal to it
    g = np.array([1.0, -2.0])
    m = np.array([0.0, 1.0])
    out = gem_project(g, m[None, :])
    assert out @ m == pytest.approx(0.0, abs=1e-12)
    assert out[0] == pytest.approx(1.0)


def test_two_constraints_match_active_set_oracle():
    # dim well above the constraint count, the operating regime (in
    # training dim is the full parameter vector)
    rng = np.random.default_rng(23)
    for _ in range(30):
        g = rng.normal(size=20)
        mem = rng.normal(size=(2, 20))
        if np.all(mem @ g >= 0):
            g = -g
        out = gem_project(g, mem)
        exact = active_set_solution(g, mem)
        assert np.max(np.abs(out - exact)) < 1e-6


def test_three_constraints_match_active_set_oracle():
    rng = np.random.default_rng(31)
    for _ in range(20):
        g = rng.normal(size=24)
        mem = rng.normal(size=(3, 24))
        out = gem_project(g, mem)
        exact = active_set_solution(g, mem)
        assert np.max(np.abs(out - exact)) < 1e-6


def test_inner_products_nonnegative_bulk():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(300):
        dim = int(rng.integers(20, 120))
        k = int(rng.integers(1, 5))
        g = rng.normal(size=dim) * 10.0 ** rng.integers(-2, 3)
        mem = rng.normal(size=(k, dim))
        out = gem_project(g, mem)
        scale = max(1.0, float(np.linalg.norm(out)))
        worst = min(worst, float(np.min(mem @ out)) / scale)
    assert worst >= -1e-6


def test_zero_memory_gradients_passthrough():
    g = np.array([1.0, 2.0])
    mem = np.zeros((2, 2))
    assert np.array_equal(gem_project(g, mem), g)


def test_validation():
    with pytest.raises(ValueError):
        gem_project(np.ones(3), np.empty((0, 3)))
    with pytest.raises(ValueError):
        gem_project(np.ones(3), np.ones((1, 4)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_projection_never_farther_than_violation(seed):
    # distance moved equals the norm of the dual combination; it is
    # bounded by the exact solution distance computed via active sets
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 10))
    k = int(rng.integers(1, 4))
    g = rng.normal(size=dim)
    mem = rng.normal(size=(k, dim))
    out = gem_project(g, mem)
    exact = active_set_solution(g, mem)
    assert np.linalg.norm(out - g) <= np.linalg.norm(exact - g) + 1e-5


def full_budget_projection(g, mem):
    """gem_project's dual descent run for every one of its iterations."""
    dots = mem @ g
    if np.all(dots >= 0.0):
        return g.copy()
    gram = mem @ mem.T
    norm = np.linalg.norm(gram)
    if norm == 0.0:
        return g.copy()
    step = 1.0 / norm
    v = np.zeros(mem.shape[0])
    for _ in range(PGD_ITERATIONS):
        v = np.maximum(v - step * (gram @ v + dots), 0.0)
    return g + mem.T @ v


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 12),
       st.booleans())
def test_fixed_point_stop_matches_full_budget(seed, k, dim, violated):
    # stopping once an iteration returns its input changes no bit
    rng = np.random.default_rng(seed)
    mem = rng.normal(size=(k, dim))
    g = rng.normal(size=dim)
    if violated:
        g -= 2.0 * mem[0] * abs(mem[0] @ g) / max(mem[0] @ mem[0], 1e-12)
    assert gem_project(g, mem).tobytes() == \
        full_budget_projection(g, mem).tobytes()
