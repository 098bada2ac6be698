"""Optimizer contracts: no-op on zero gradients, decoupled decay, 1-D
convergence, rejection of non-finite gradients, exact state resume, and
bit-for-bit agreement with the per-parameter reference in optim_oracle."""

import math

import numpy as np
import pytest

import optim_oracle
from mixedflow.errors import ConfigError, NumericError
from mixedflow.nn import Tensor, optim
from mixedflow.nn.optim import ScheduleFreeAdamW

# a matrix weight (decayed), a bias and a one-entry parameter (not decayed)
SHAPES = {"w": (3, 4), "b": (4,), "s": (1,)}


def _named_params(shapes, dtype, seed=5):
    rng = np.random.default_rng(seed)
    return [(name, Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True))
            for name, shape in shapes.items()]


@pytest.fixture
def no_decay_or_clip(monkeypatch):
    monkeypatch.setattr(optim, "WEIGHT_DECAY", 0.0)
    monkeypatch.setattr(optim, "CLIP_NORM", math.inf)


def quadratic_min(opt_cls, steps, lr):
    """Minimize (x - 3)^2 / 2 and return the final evaluation point."""
    p = Tensor(np.array([[10.0]]), requires_grad=True)
    opt = opt_cls([("p", p)], lr=lr)
    for _ in range(steps):
        opt.train_mode()
        p.grad = p.data - 3.0
        opt.step()
    opt.eval_mode()
    return float(p.data[0, 0])


@pytest.mark.parametrize("opt_cls", [ScheduleFreeAdamW])
def test_zero_grad_zero_decay_is_noop(opt_cls, monkeypatch):
    monkeypatch.setattr(optim, "WEIGHT_DECAY", 0.0)
    p = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
    start = p.data.copy()
    opt = opt_cls([("p", p)])
    for _ in range(5):
        p.grad = np.zeros_like(p.data)
        assert opt.step()
    np.testing.assert_array_equal(p.data, start)


# the schedule-free evaluation point is a trajectory average, so it closes
# in on the minimizer at a slower O(1/t) rate than plain AdamW
@pytest.mark.parametrize("opt_cls,steps,lr,tol", [
    (ScheduleFreeAdamW, 8000, 0.1, 0.05),
])
def test_quadratic_convergence(opt_cls, steps, lr, tol, no_decay_or_clip):
    assert abs(quadratic_min(opt_cls, steps, lr) - 3.0) < tol


@pytest.mark.parametrize("opt_cls", [ScheduleFreeAdamW])
def test_decay_shrinks_parameters_without_gradient(opt_cls, monkeypatch):
    monkeypatch.setattr(optim, "WEIGHT_DECAY", 0.1)
    p = Tensor(np.full((2, 2), 4.0), requires_grad=True)
    opt = opt_cls([("p", p)], lr=1e-2)
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


def test_nonfinite_parameter_is_named():
    # the finiteness check runs over the flat y, but the error still names
    # the one parameter (not the first) whose segment went non-finite
    params = _named_params(SHAPES, np.float32)
    opt = ScheduleFreeAdamW(params)
    opt.state_arrays()["z.b"][2] = np.inf   # a view: this writes the optimizer's z
    for _, p in params:
        p.grad = np.ones_like(p.data)
    with pytest.raises(NumericError, match="parameter b became non-finite"):
        opt.step()


def test_steps_keep_the_parameter_dtype(monkeypatch):
    # step sizes are Python floats: a numpy float64 scalar would promote
    # float32 parameters and moments to float64 (NumPy 2 promotion rules)
    monkeypatch.setattr(optim, "CLIP_NORM", 1.0)
    p = Tensor(np.full((2, 3), 5.0, dtype=np.float32), requires_grad=True)
    opt = ScheduleFreeAdamW([("p", p)])
    for _ in range(3):
        opt.train_mode()
        p.grad = np.full((2, 3), 4.0, dtype=np.float32)   # norm 9.8: clipped
        assert opt.step()
    opt.eval_mode()
    assert p.data.dtype == np.float32
    assert {a.dtype for k, a in opt.state_arrays().items() if "." in k} == {np.dtype(np.float32)}


def test_resume_from_float64_state_keeps_float32():
    # a checkpoint whose optimizer state was promoted to float64 (as older
    # runs wrote it) resumes in the parameters' float32
    p = Tensor(np.full((2, 3), 5.0, dtype=np.float32), requires_grad=True)
    opt = ScheduleFreeAdamW([("p", p)])
    state = {k: (a.astype(np.float64) if "." in k else a)
             for k, a in opt.state_arrays().items()}
    opt.load_state(state)
    assert p.data.dtype == np.float32
    p.grad = np.ones((2, 3), dtype=np.float32)
    assert opt.step()
    opt.eval_mode()
    assert p.data.dtype == np.float32
    assert {a.dtype for k, a in opt.state_arrays().items() if "." in k} == {np.dtype(np.float32)}


def test_schedule_free_eval_uses_average(no_decay_or_clip):
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = ScheduleFreeAdamW([("p", p)], lr=0.1)
    for _ in range(10):
        opt.train_mode()
        p.grad = np.array([1.0])
        opt.step()
    y = p.data.copy()
    opt.eval_mode()
    x = p.data.copy()
    assert not np.array_equal(x, y)
    np.testing.assert_allclose(x, opt.state_arrays()["x.p"])


@pytest.mark.parametrize("opt_cls,shapes", [(ScheduleFreeAdamW, {"p": (3,)}),
                                            (ScheduleFreeAdamW, SHAPES)],
                         ids=["schedule_free", "schedule_free-weight-bias-scalar"])
def test_state_resume_is_bitwise(opt_cls, shapes):
    def grads(rng):
        return [rng.normal(size=shape) for shape in shapes.values()]

    def run(total, restore_at=None):
        rng = np.random.default_rng(0)
        params = _named_params(shapes, np.float64)
        opt = opt_cls(params, lr=1e-2)
        snap = None
        for step in range(total):
            if restore_at is not None and step == restore_at:
                snap = ([p.data.copy() for _, p in params],
                        {k: v.copy() for k, v in opt.state_arrays().items()})
            opt.train_mode()
            for (_, p), g in zip(params, grads(rng)):
                p.grad = g
            opt.step()
        return [p.data.copy() for _, p in params], snap

    final_direct, (params_mid, state_mid) = run(12, restore_at=6)
    # replay: fresh optimizer, fast-forward the gradient stream, load state
    rng = np.random.default_rng(0)
    for _ in range(6):
        grads(rng)
    params = [(name, Tensor(data.copy(), requires_grad=True))
              for name, data in zip(shapes, params_mid)]
    opt = opt_cls(params, lr=1e-2)
    opt.load_state(state_mid)
    for _ in range(6):
        opt.train_mode()
        for (_, p), g in zip(params, grads(rng)):
            p.grad = g
        opt.step()
    for (_, p), want in zip(params, final_direct):
        np.testing.assert_array_equal(p.data, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_step_matches_the_per_parameter_oracle(dtype):
    # the flat optimizer and the per-parameter reference, driven side by side
    # through clipped and unclipped steps, a missing gradient, a rejected NaN
    # gradient, mode switches and a state round trip, agree bit for bit after
    # every call: parameters, every state array and the rejection count
    flat_params, ref_params = (_named_params(SHAPES, dtype) for _ in range(2))
    flat = ScheduleFreeAdamW(flat_params, lr=0.05, warmup_steps=3)
    ref = optim_oracle.ScheduleFreeAdamW(ref_params, lr=0.05, warmup_steps=3)
    rng = np.random.default_rng(6)

    def call(method, *args):
        got, want = getattr(flat, method)(*args), getattr(ref, method)(*args)
        assert got == want, method
        for (name, p), (_, q) in zip(flat_params, ref_params):
            assert p.data.dtype == q.data.dtype and p.data.tobytes() == q.data.tobytes(), \
                (method, name)
        got, want = flat.state_arrays(), ref.state_arrays()
        assert list(got) == list(want)
        for key, a in want.items():
            assert got[key].dtype == a.dtype and got[key].tobytes() == a.tobytes(), (method, key)
        assert flat.rejected == ref.rejected
        return got

    def step(scale, nan=False, missing=()):
        for (name, p), (_, q) in zip(flat_params, ref_params):
            g = (rng.normal(size=SHAPES[name]) * scale).astype(dtype)
            if nan and name == "b":
                g[1] = np.nan
            p.grad = q.grad = None if name in missing else g
        # the norm is summed in float64 per parameter, in parameter order
        norm = math.sqrt(sum(float((q.grad.astype(np.float64) ** 2).sum())
                             for _, q in ref_params if q.grad is not None))
        state = call("step")
        assert flat.grad_norm == norm or nan
        return state

    step(0.1)                        # global norm about 0.4: not clipped
    for _ in range(6):               # about 120: clipped to CLIP_NORM, so the
        step(30.0)                   # clip factor's last bit shows in z
        assert flat.grad_norm > optim.CLIP_NORM
    step(3.0)                        # just above the bound: clipped
    assert optim.CLIP_NORM < flat.grad_norm < 2 * optim.CLIP_NORM
    step(0.1, missing=("s",))
    step(1.0, nan=True)
    assert flat.rejected == 1
    call("eval_mode")
    call("train_mode")
    call("eval_mode")
    saved = {k: a.copy() for k, a in step(30.0).items()}   # steps from the average
    step(0.1)
    step(1.0)
    call("load_state", saved)
    step(30.0)
    step(0.1)
    assert flat.t == ref.t == 12


def test_parameters_of_mixed_dtypes_are_refused():
    # one flat buffer has one dtype: concatenating would turn the float32
    # parameters into float64 views
    params = _named_params({"w": (2, 2)}, np.float32) + _named_params({"b": (2,)}, np.float64)
    with pytest.raises(ConfigError, match="b is float64"):
        ScheduleFreeAdamW(params)
