import numpy as np
import pytest

from gnncl.engine import Tape, Tensor, backward


def central_diff(f, arrays, eps=1e-5):
    """Central finite-difference gradient of scalar f() for each array.

    f must recompute from the current contents of ``arrays``; entries
    are perturbed in place and restored.
    """
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f()
            flat[i] = orig - eps
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * eps)
        grads.append(g)
    return grads


def max_rel_err(analytic, numeric):
    """max over components of |a - n| / max(1, |a|, |n|)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    assert a.shape == n.shape
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / scale)) if a.size else 0.0


def grad_check(build_loss, tensors, eps=1e-5):
    """Analytic vs central-difference gradients; returns worst rel err.

    build_loss() must construct the scalar loss from ``tensors`` inside
    whatever tape is active.
    """
    with Tape():
        loss = build_loss()
        grads = backward(loss, tensors)
    analytic = [grads[t].data for t in tensors]

    def scalar():
        with Tape():
            return build_loss().item()

    numeric = central_diff(scalar, [t.data for t in tensors], eps=eps)
    return max(max_rel_err(a, n) for a, n in zip(analytic, numeric))


@pytest.fixture
def rng():
    return np.random.default_rng(7)
