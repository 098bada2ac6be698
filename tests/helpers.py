"""Shared test utilities: finite-difference gradient oracle and tolerances."""

import numpy as np

from mixedflow.nn import Tensor


def fd_grad(fn, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of a scalar fn at x, one entry at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn(x)
        flat[i] = orig - h
        down = fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def check_param_grads(loss_fn, params: list[tuple[str, Tensor]], tol: float = 1e-3,
                      h: float = 1e-4, floor: float = 1e-6):
    """Compare reverse-mode gradients of loss_fn() against central finite
    differences for every parameter tensor; loss_fn must rebuild the graph
    on each call.

    Parameters whose gradient is below `floor` in both views count as
    matching: a structurally zero gradient (e.g. the key-projection bias,
    which cancels in softmax) is pure roundoff on both sides and has no
    meaningful relative error.
    """
    for p in (p for _, p in params):
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    failures = []
    for name, p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)

        def eval_at(x, p=p):
            orig = p.data
            p.data = x.astype(orig.dtype)
            val = loss_fn().item()
            p.data = orig
            return val

        numeric = fd_grad(eval_at, p.data.astype(np.float64), h=h)
        if max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0)) < floor:
            continue
        err = rel_err(analytic, numeric)
        if err > tol:
            failures.append((name, err))
    assert not failures, f"gradient mismatches: {failures}"


class RowCounter:
    """Stands in for the first block of an encoder stack and counts the
    rows that enter the stack: all of them, and the unmasked ones."""

    def __init__(self, block):
        self.block, self.real, self.total = block, 0, 0

    def __call__(self, x, mask, rng=None):
        self.real += int(mask.sum())
        self.total += mask.size
        return self.block(x, mask, rng)
