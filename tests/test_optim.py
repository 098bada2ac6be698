"""Optimizer contracts: no-op on zero gradients, decoupled decay, 1-D
convergence, rejection of non-finite gradients, and exact state resume."""

import numpy as np
import pytest

from mixedflow.nn import Tensor
from mixedflow.nn.optim import ScheduleFreeAdamW


def quadratic_min(opt_cls, steps, lr):
    """Minimize (x - 3)^2 / 2 and return the final evaluation point."""
    p = Tensor(np.array([[10.0]]), requires_grad=True)
    opt = opt_cls([("p", p)], lr=lr, weight_decay=0.0, clip_norm=None)
    for _ in range(steps):
        opt.train_mode()
        p.grad = p.data - 3.0
        opt.step()
    opt.eval_mode()
    return float(p.data[0, 0])


@pytest.mark.parametrize("opt_cls", [ScheduleFreeAdamW])
def test_zero_grad_zero_decay_is_noop(opt_cls):
    p = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
    start = p.data.copy()
    opt = opt_cls([("p", p)], weight_decay=0.0)
    for _ in range(5):
        p.grad = np.zeros_like(p.data)
        assert opt.step()
    np.testing.assert_array_equal(p.data, start)


# the schedule-free evaluation point is a trajectory average, so it closes
# in on the minimizer at a slower O(1/t) rate than plain AdamW
@pytest.mark.parametrize("opt_cls,steps,lr,tol", [
    (ScheduleFreeAdamW, 8000, 0.1, 0.05),
])
def test_quadratic_convergence(opt_cls, steps, lr, tol):
    assert abs(quadratic_min(opt_cls, steps, lr) - 3.0) < tol


@pytest.mark.parametrize("opt_cls", [ScheduleFreeAdamW])
def test_decay_shrinks_parameters_without_gradient(opt_cls):
    p = Tensor(np.full((2, 2), 4.0), requires_grad=True)
    opt = opt_cls([("p", p)], lr=1e-2, weight_decay=0.1)
    norms = [np.linalg.norm(p.data)]
    for _ in range(5):
        p.grad = np.zeros_like(p.data)
        opt.step()
        opt.eval_mode()
        norms.append(np.linalg.norm(p.data))
        opt.train_mode()
    assert all(b < a for a, b in zip(norms, norms[1:]))


@pytest.mark.parametrize("opt_cls", [ScheduleFreeAdamW])
def test_nonfinite_gradient_rejected(opt_cls):
    p = Tensor(np.ones((2,)), requires_grad=True)
    start = p.data.copy()
    opt = opt_cls([("p", p)])
    p.grad = np.array([1.0, np.nan])
    assert not opt.step()
    assert opt.rejected == 1
    np.testing.assert_array_equal(p.data, start)


def test_schedule_free_eval_uses_average():
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = ScheduleFreeAdamW([("p", p)], lr=0.1, weight_decay=0.0, clip_norm=None)
    for _ in range(10):
        opt.train_mode()
        p.grad = np.array([1.0])
        opt.step()
    y = p.data.copy()
    opt.eval_mode()
    x = p.data.copy()
    assert not np.array_equal(x, y)
    np.testing.assert_allclose(x, opt.x[0])


@pytest.mark.parametrize("opt_cls", [ScheduleFreeAdamW], ids=["schedule_free"])
def test_state_resume_is_bitwise(opt_cls):
    def run(total, restore_at=None):
        rng = np.random.default_rng(0)
        p = Tensor(np.array([1.0, -1.0, 0.5]), requires_grad=True)
        opt = opt_cls([("p", p)], lr=1e-2)
        snap = None
        for step in range(total):
            if restore_at is not None and step == restore_at:
                snap = (p.data.copy(), {k: v.copy() for k, v in opt.state_arrays().items()})
            opt.train_mode()
            p.grad = rng.normal(size=3)
            opt.step()
        return p.data.copy(), snap

    final_direct, (params_mid, state_mid) = run(12, restore_at=6)
    # replay: fresh optimizer, fast-forward the gradient stream, load state
    rng = np.random.default_rng(0)
    for _ in range(6):
        rng.normal(size=3)
    p = Tensor(params_mid.copy(), requires_grad=True)
    opt = opt_cls([("p", p)], lr=1e-2)
    opt.load_state(state_mid)
    for _ in range(6):
        opt.train_mode()
        p.grad = rng.normal(size=3)
        opt.step()
    np.testing.assert_array_equal(p.data, final_direct)
