"""Fused tape nodes (linear, layer_norm, masked_attention): float64
finite-difference gradients of each node, and agreement with the composed
oracle in layers_oracle.py for encoder blocks (outputs and gradients, in
training mode with dropout) and summary networks (eval mode), on ragged
desk-shaped and full paper-shaped inputs."""

import contextlib

import numpy as np
import pytest

import layers_oracle as oracle
from helpers import fd_grad, rel_err

from mixedflow import simulate as sim
from mixedflow.model import ModelConfig, PosteriorModel, make_batch
from mixedflow.nn import EncoderBlock, Tensor, no_grad
from mixedflow.nn.layers import layer_norm, linear, masked_attention
from mixedflow.seeding import substream
from mixedflow.summary import SummaryConfig, SummaryNetwork

RNG = np.random.default_rng(20251018)

# key masks: all valid, padded, a single valid key, and all masked
MASK = np.array([[True] * 5,
                 [True, True, True, False, False],
                 [False, False, True, False, False],
                 [False] * 5])


def _gradcheck(build, arrays, tol=1e-6, h=1e-5):
    """build(*tensors) -> scalar Tensor; reverse mode against central
    differences for every input, in float64."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    build(*tensors).backward()
    for i, (a, t) in enumerate(zip(arrays, tensors)):
        def f(x, i=i):
            args = [Tensor(arr) for arr in arrays]
            args[i] = Tensor(x)
            return build(*args).item()

        err = rel_err(t.grad, fd_grad(f, a.copy(), h=h))
        assert err < tol, f"input {i}: relative error {err:.2e}"


class TestNodeGradients:
    def test_linear(self):
        r = RNG.normal(size=(2, 3, 5))
        _gradcheck(lambda x, w, b: (linear(x, w, b) * Tensor(r)).sum(),
                   [RNG.normal(size=(2, 3, 4)), RNG.normal(size=(4, 5)), RNG.normal(size=5)])

    def test_layer_norm(self):
        r = RNG.normal(size=(3, 4, 6))
        _gradcheck(lambda x, g, b: (layer_norm(x, g, b, 1e-5) * Tensor(r)).sum(),
                   [RNG.normal(size=(3, 4, 6)) * 2 + 1, RNG.normal(size=6), RNG.normal(size=6)])

    def test_masked_attention(self):
        # the all-masked row's scores sit at -1e30, where a finite step on q
        # or k is absorbed; its output is zeroed in use, so its adjoint is
        # zero here too (its forward is checked below)
        r = RNG.normal(size=(4, 5, 8)) * MASK.any(axis=1)[:, None, None]
        _gradcheck(lambda q, k, v: (masked_attention(q, k, v, MASK, heads=2) * Tensor(r)).sum(),
                   [RNG.normal(size=(4, 5, 8)) for _ in range(3)])

    def test_attention_masks_keys_and_all_masked_row_is_uniform(self):
        q, k, v = (RNG.normal(size=(4, 5, 8)) for _ in range(3))
        out = masked_attention(Tensor(q), Tensor(k), Tensor(v), MASK, heads=2).data
        np.testing.assert_allclose(out[2], np.broadcast_to(v[2, 2], (5, 8)), atol=1e-12)
        np.testing.assert_allclose(out[3], np.broadcast_to(v[3].mean(axis=0), (5, 8)), atol=1e-12)
        v2 = v.copy()
        v2[~MASK] = 1e3
        out2 = masked_attention(Tensor(q), Tensor(k), Tensor(v2), MASK, heads=2).data
        np.testing.assert_allclose(out2[:3], out[:3], atol=1e-12)


def _ragged_rows(b, n, rng):
    """Desk-like row masks: sizes uniform on 1..n, one row full."""
    sizes = rng.integers(1, n + 1, size=b)
    sizes[0] = n
    return np.arange(n)[None, :] < sizes[:, None]


def _block_run(blk, x, mask, composed):
    """Training-mode output and gradients (input and parameters) of a
    weighted-sum loss, fused or through the composed oracle."""
    blk.zero_grad()
    xt = Tensor(x, requires_grad=True)
    r = np.random.default_rng(5).normal(size=x.shape).astype(x.dtype)
    with oracle.composed_layers() if composed else contextlib.nullcontext():
        out = blk(xt, mask, np.random.default_rng(7))
        (out * Tensor(r)).sum().backward()
    return out.data, xt.grad, {name: p.grad.copy() for name, p in blk.named_parameters()}


@pytest.mark.parametrize("shape", ["desk", "paper"])
def test_encoder_block_matches_composed_oracle_in_training(shape):
    rng = np.random.default_rng(3)
    width, heads, b, n = (64, 4, 40, 70) if shape == "desk" else (128, 8, 30, 70)
    mask = _ragged_rows(b, n, rng) if shape == "desk" else np.ones((b, n), dtype=bool)
    blk = EncoderBlock(width, heads, rng, dropout_rate=0.1).set_training(True)
    x = (rng.normal(size=(b, n, width)) * mask[..., None]).astype(np.float32)
    out, gx, grads = _block_run(blk, x, mask, composed=False)
    out_o, gx_o, grads_o = _block_run(blk, x, mask, composed=True)
    np.testing.assert_allclose(out, out_o, rtol=1e-4, atol=1e-5)
    assert rel_err(gx, gx_o) < 1e-5
    # the key-projection bias cancels in the softmax: its gradient is pure
    # roundoff on both sides, so errors are measured on the block's scale
    scale = max(np.abs(g).max() for g in grads_o.values())
    for name, want in grads_o.items():
        err = np.abs(grads[name] - want).max() / max(np.abs(want).max(), 0.1 * scale)
        assert err < 1e-5, (name, err)


def _summaries(net, batch, composed):
    with no_grad(), oracle.composed_layers() if composed else contextlib.nullcontext():
        s_local, s_global = net(batch.X, batch.Z, batch.y, batch.mask, batch.group_mask)
    return s_local.data, s_global.data


@pytest.mark.parametrize("shape", ["desk", "paper"])
def test_summary_network_matches_composed_oracle(shape):
    if shape == "desk":
        cfg = ModelConfig(d=2, q=1, width=64, summary_blocks=2, heads=4)
        sets = [sim.simulate_dataset(2, 1, substream(11, "desk", i),
                                     sim.SimConfig(m_range=(5, 30), n_range=(5, 70), toy=True))
                for i in range(4)]
    else:
        cfg = ModelConfig(d=5, q=1)
        sets = [sim.simulate_dataset(5, 1, substream(11, "paper", 0),
                                     sim.SimConfig(m_range=(30, 30), n_range=(70, 70)))]
    net = SummaryNetwork(cfg.d, SummaryConfig(cfg.width, cfg.summary_blocks, cfg.heads),
                         np.random.default_rng(13)).set_training(False)
    batch = make_batch(sets, cfg)
    for got, want in zip(_summaries(net, batch, False), _summaries(net, batch, True)):
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)


def test_parameter_names_and_shapes_unchanged():
    blk = EncoderBlock(8, 2, np.random.default_rng(0))
    w = (8, 8)
    assert [(n, p.shape) for n, p in blk.named_parameters()] == [
        ("attn.wq.w", w), ("attn.wq.b", (8,)), ("attn.wk.w", w), ("attn.wk.b", (8,)),
        ("attn.wv.w", w), ("attn.wv.b", (8,)), ("attn.wo.w", w), ("attn.wo.b", (8,)),
        ("norm1.gamma", (8,)), ("norm1.beta", (8,)),
        ("ff.up.w", w), ("ff.up.b", (8,)), ("ff.down.w", w), ("ff.down.b", (8,)),
        ("norm2.gamma", (8,)), ("norm2.beta", (8,))]
    model = PosteriorModel(ModelConfig(d=5, q=1), np.random.default_rng(0))
    assert len(list(model.named_parameters())) == 216
    assert model.num_parameters() == 1210684
