"""Reverse-mode gradients of every engine op (and of the composed oracle's
matmul and softmax) against central finite differences, the bookkeeping
contracts (broadcasting, no_grad, shape errors, a sweep consumes its graph),
and the numpy special functions against scipy."""

import math
import subprocess
import sys
import weakref

import numpy as np
import pytest
from scipy import special

import layers_oracle as oracle
from helpers import gradcheck

from mixedflow.errors import DimensionError, NumericError
from mixedflow.nn import EncoderBlock, Tensor, cat, no_grad
from mixedflow.nn.tensor import _digamma, _erf, _gammaln, assert_finite

RNG = np.random.default_rng(20240811)


def _gradcheck(build, shapes, low=-2.0, high=2.0):
    """gradcheck on inputs drawn from RNG, uniform on (low, high), one per shape."""
    gradcheck(build, [RNG.uniform(low, high, size=s) for s in shapes], tol=1e-3, h=1e-4)


def test_add_mul_broadcast_grads():
    _gradcheck(lambda a, b: ((a + b) * a).sum(), [(3, 4), (4,)])
    _gradcheck(lambda a, b: (a * b).sum(), [(2, 3, 4), (3, 1)])


def test_sub_div_pow_grads():
    _gradcheck(lambda a, b: (a / b).sum(), [(3, 4), (4,)], low=0.5, high=2.0)
    _gradcheck(lambda a: ((a - 1.5) ** 3).sum(), [(5,)])


def test_matmul_grads():
    # the package has no matmul; the composed oracle's node is the one
    _gradcheck(lambda a, b: oracle.matmul(a, b).sum(), [(3, 4), (4, 2)])
    _gradcheck(lambda a, b: oracle.matmul(a, b).sum(), [(2, 3, 4), (2, 4, 2)])  # batched


@pytest.mark.parametrize("op,low,high", [
    ("exp", -1.0, 1.0),
    ("log1p", -0.5, 3.0),
    ("tanh", -2.0, 2.0),
    ("gammaln", 0.5, 6.0),
    ("relu", -2.0, 2.0),
    ("gelu", -2.0, 2.0),
])
def test_elementwise_grads(op, low, high):
    _gradcheck(lambda a: getattr(a, op)().sum(), [(4, 3)], low=low, high=high)


def test_reduction_and_shaping_grads():
    _gradcheck(lambda a: a.sum(axis=1).sum(), [(3, 4)])
    _gradcheck(lambda a: (a.mean(axis=0, keepdims=True) * a).sum(), [(3, 4)])
    _gradcheck(lambda a: a.reshape(2, 6).sum(axis=0).sum(), [(3, 4)])
    _gradcheck(lambda a: (a[1:, ::2] * 2.0).sum(), [(4, 6)])


def test_softmax_grad_and_rows_sum_to_one():
    # the composed oracle's softmax, built from the tape's exp, sum and divide
    x = Tensor(RNG.normal(size=(5, 7)), requires_grad=True)
    s = oracle.softmax(x, axis=-1)
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)
    _gradcheck(lambda a: (oracle.softmax(a, axis=-1) * a).sum(), [(4, 5)])


def test_cat_grads():
    _gradcheck(lambda a, b: cat([a, b], axis=1).sum(axis=0)[1:].sum(), [(2, 3), (2, 4)])


def test_grad_accumulates_over_reuse():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    y = (x * x + x).sum()
    y.backward()
    np.testing.assert_allclose(x.grad, 2.0 * x.data + 1.0)


def test_no_grad_blocks_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * 2.0).sum()
    assert not y.requires_grad


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(DimensionError):
        (x * 2.0).backward()


# -- a sweep consumes its graph ------------------------------------------------


def _block_loss(seed=3):
    """A scalar loss through a training-mode encoder block (the fused layer
    nodes linear, masked attention, residual_norm and feed_forward, with
    dropout) and a few tape ops, with the block and its input leaf."""
    rng = np.random.default_rng(seed)
    block = EncoderBlock(8, 2, rng, dropout_rate=0.5)
    block.set_training(True)
    x = Tensor(rng.normal(size=(2, 5, 8)).astype(np.float32), requires_grad=True)
    mask = np.ones((2, 5), dtype=bool)
    mask[1, 3:] = False
    h = block(x, mask, np.random.default_rng(seed + 1))
    loss = (cat([h.exp().mean(axis=1), h[:, 0].tanh()], axis=-1) ** 2).sum()
    return loss, block, x


def _interior_nodes(root: Tensor) -> list[Tensor]:
    """Every node of root's graph that has a closure."""
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            nodes.append(node)
        stack.extend(node._parents)
    return nodes


def test_backward_consumes_every_interior_node():
    loss, block, x = _block_loss()
    nodes = _interior_nodes(loss)
    # the block is 6 nodes (q, k, v, attention, residual_norm, feed_forward)
    # and the loss 8 more; each sublayer ends in a fused node
    assert len(nodes) == 14
    fused = [n._backward.__qualname__.split(".")[0] for n in nodes]
    assert sorted(f for f in fused if f in ("residual_norm", "feed_forward")) == [
        "feed_forward", "residual_norm"]
    loss.backward()
    for node in nodes:
        assert node.grad is None and node._parents == ()
        with pytest.raises(NumericError, match="consumed"):
            node._backward(np.ones_like(node.data))
    assert x.grad is not None and x.grad.shape == x.shape
    for name, p in block.named_parameters():
        assert p.grad is not None and p.grad.shape == p.shape, name


def test_swept_graph_is_freed():
    # the arrays each node holds and saved die with the sweep: nothing but
    # the caller's loss keeps the graph alive
    loss, _, _ = _block_loss()
    refs = [weakref.ref(node.data) for node in _interior_nodes(loss) if node is not loss]
    assert refs
    loss.backward()
    assert [r for r in refs if r() is not None] == []


def test_second_sweep_through_a_consumed_graph_raises():
    loss, _, _ = _block_loss()
    loss.backward()
    with pytest.raises(NumericError, match="consumed"):
        loss.backward()
    a = Tensor(np.array([0.5, 1.5]), requires_grad=True)
    h = (a * 2.0).exp()
    h.sum().backward()
    with pytest.raises(NumericError, match="consumed"):
        (h * 3.0).sum().backward()   # a second loss sharing the consumed h
    a.zero_grad()
    (a * 2.0).exp().sum().backward()   # a new graph over the same leaf sweeps
    np.testing.assert_allclose(a.grad, 2.0 * np.exp(2.0 * a.data), rtol=1e-15)


def test_assert_finite():
    assert_finite(np.ones(3), "values")
    with pytest.raises(NumericError, match="bad place"):
        assert_finite(np.array([1.0, np.inf]), "bad place")


# -- special functions (scipy is the float64 oracle) --------------------------

SMALL = np.geomspace(1e-38, 1.0, 20_001)
ERF_GRID = np.concatenate([np.linspace(-12.0, 12.0, 480_001), SMALL, -SMALL])


def test_erf_float32_within_5e7_of_exact():
    x = ERF_GRID.astype(np.float32)
    got = _erf(x)
    assert got.dtype == np.float32
    exact = special.erf(x.astype(np.float64))
    err = np.abs(got - exact)
    assert err.max() <= 5e-7
    nonzero = exact != 0.0
    assert (err[nonzero] / np.abs(exact[nonzero])).max() <= 1e-5
    assert not got[~nonzero].any()


def test_gelu_float32_within_5e7_of_exact():
    x = ERF_GRID.astype(np.float32)
    got = Tensor(x).gelu().data
    assert got.dtype == np.float32
    x64 = x.astype(np.float64)
    exact = 0.5 * x64 * (1.0 + special.erf(x64 / math.sqrt(2.0)))
    assert (np.abs(got - exact) / np.maximum(1.0, np.abs(x64))).max() <= 5e-7


def test_erf_float64_within_1e15():
    got = _erf(ERF_GRID)
    assert got.dtype == np.float64
    assert np.abs(got - special.erf(ERF_GRID)).max() <= 1e-15


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_erf_nan_and_infinities(dtype):
    got = _erf(np.array([np.nan, np.inf, -np.inf, 0.0], dtype=dtype))
    assert np.isnan(got[0])
    np.testing.assert_array_equal(got[1:], [1.0, -1.0, 0.0])


# Relative error is asked everywhere except where the function crosses zero
# (lgamma at 1 and 2, digamma at 1.4616...): there no double method keeps a
# relative bound, and there the absolute error is asked instead.
GAMMA_GRID = np.concatenate([np.geomspace(0.05, 1e4, 50_001), np.linspace(0.05, 20.0, 50_001)])


@pytest.mark.parametrize("ours, exact", [(_gammaln, special.gammaln),
                                          (_digamma, special.digamma)],
                         ids=["gammaln", "digamma"])
def test_gammaln_and_digamma_within_1e12(ours, exact):
    got, ref = ours(GAMMA_GRID), exact(GAMMA_GRID)
    err = np.abs(got - ref)
    away = np.abs(ref) >= 1e-3
    assert (err[away] / np.abs(ref[away])).max() <= 1e-12
    assert err[~away].max() <= 1e-14
    small = ours(np.array([0.5, 3.0, np.nan], dtype=np.float32))
    assert small.dtype == np.float32 and np.isnan(small[-1])
    np.testing.assert_allclose(small[:2], exact([0.5, 3.0]), rtol=1e-6)


def test_importing_the_package_leaves_scipy_out():
    code = ("import sys, mixedflow.cli, mixedflow.train, mixedflow.pipeline; "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False"
