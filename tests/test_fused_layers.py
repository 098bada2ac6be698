"""Fused tape nodes (linear, layer_norm, masked_attention, residual_norm,
feed_forward, masked_mean): float64 finite-difference gradients of each
node and of the oracle's own nodes, residual_norm, feed_forward and
masked_mean against the chains of nodes they replace (bit for bit),
masked_attention against the stored-scores node it replaces (bit for bit),
a bound on what a training-mode encoder block holds on the tape, and
agreement with the composed oracle in layers_oracle.py for encoder blocks
(outputs and gradients, in training mode with dropout) and summary networks
(eval mode), on ragged desk-shaped and full paper-shaped inputs."""

import contextlib
import gc
import tracemalloc

import numpy as np
import pytest

import layers_oracle as oracle
from helpers import gradcheck, rel_err

from mixedflow import simulate as sim
from mixedflow.model import ModelConfig, PosteriorModel, make_batch
from mixedflow.nn import EncoderBlock, Tensor, no_grad
from mixedflow.nn.layers import (LAYER_NORM_EPS, _zero_rows, dropout, feed_forward, layer_norm,
                                 linear, masked_attention, masked_mean, residual_norm)
from mixedflow.seeding import substream
from mixedflow.summary import SummaryNetwork

RNG = np.random.default_rng(20251018)

# key masks: all valid, padded, a single valid key, and all masked
MASK = np.array([[True] * 5,
                 [True, True, True, False, False],
                 [False, False, True, False, False],
                 [False] * 5])


class TestNodeGradients:
    def test_linear(self):
        r = RNG.normal(size=(2, 3, 5))
        gradcheck(lambda x, w, b: (linear(x, w, b) * Tensor(r)).sum(),
                  [RNG.normal(size=(2, 3, 4)), RNG.normal(size=(4, 5)), RNG.normal(size=5)])

    def test_linear_with_a_broadcast_part(self):
        # a flow conditioner's first layer: the passive half per draw
        # (2, 3, 4) and the condition per row (2, 1, 5), broadcast over the
        # draws; the forward is the linear map of the concatenated input
        x, c = RNG.normal(size=(2, 3, 4)), RNG.normal(size=(2, 1, 5))
        w, b = RNG.normal(size=(9, 6)), RNG.normal(size=6)
        joined = np.concatenate([x, np.broadcast_to(c, (2, 3, 5))], axis=-1)
        np.testing.assert_allclose(linear((Tensor(x), Tensor(c)), Tensor(w), Tensor(b)).data,
                                   joined @ w + b, atol=1e-12)
        r = RNG.normal(size=(2, 3, 6))
        gradcheck(lambda x, c, w, b: (linear((x, c), w, b) * Tensor(r)).sum(), [x, c, w, b])

    def test_layer_norm(self):
        r = RNG.normal(size=(3, 4, 6))
        gradcheck(lambda x, g, b: (layer_norm(x, g, b, 1e-5) * Tensor(r)).sum(),
                  [RNG.normal(size=(3, 4, 6)) * 2 + 1, RNG.normal(size=6), RNG.normal(size=6)])

    def test_masked_attention(self):
        # the all-masked row's scores sit at -1e30, where a finite step on q
        # or k is absorbed; its output is zeroed in use, so its adjoint is
        # zero here too (its forward is checked below)
        r = RNG.normal(size=(4, 5, 8)) * MASK.any(axis=1)[:, None, None]
        gradcheck(lambda q, k, v: (masked_attention(q, k, v, MASK, heads=2) * Tensor(r)).sum(),
                  [RNG.normal(size=(4, 5, 8)) for _ in range(3)])

    def test_masked_attention_of_width_one(self):
        # one head of width 1: the transposed queries are then contiguous at
        # any n, and the forward must still leave q's data for the backward
        r = RNG.normal(size=(4, 5, 1)) * MASK.any(axis=1)[:, None, None]
        gradcheck(lambda q, k, v: (masked_attention(q, k, v, MASK, heads=1) * Tensor(r)).sum(),
                  [RNG.normal(size=(4, 5, 1)) for _ in range(3)])

    @pytest.mark.parametrize("rate", [0.0, 0.4], ids=["no-dropout", "dropout"])
    @pytest.mark.parametrize("zero_inner", [True, False], ids=["attention", "feedforward"])
    def test_residual_norm(self, zero_inner, rate):
        # padded rows (MASK's rows 1-3, one of them empty); each call draws
        # the same dropout mask from a fresh generator
        r = RNG.normal(size=(4, 5, 6))
        seed = int(RNG.integers(1 << 30))

        def build(x, a, w, b, g, be):
            out = residual_norm(x, a, w, b, g, be, MASK, rate, np.random.default_rng(seed),
                                zero_inner=zero_inner)
            return (out * Tensor(r)).sum()

        gradcheck(build, [RNG.normal(size=(4, 5, 6)), RNG.normal(size=(4, 5, 7)),
                          RNG.normal(size=(7, 6)), RNG.normal(size=6),
                          RNG.normal(size=6), RNG.normal(size=6)])

    def test_attention_masks_keys_and_all_masked_row_is_uniform(self):
        q, k, v = (RNG.normal(size=(4, 5, 8)) for _ in range(3))
        out = masked_attention(Tensor(q), Tensor(k), Tensor(v), MASK, heads=2).data
        np.testing.assert_allclose(out[2], np.broadcast_to(v[2, 2], (5, 8)), atol=1e-12)
        np.testing.assert_allclose(out[3], np.broadcast_to(v[3].mean(axis=0), (5, 8)), atol=1e-12)
        v2 = v.copy()
        v2[~MASK] = 1e3
        out2 = masked_attention(Tensor(q), Tensor(k), Tensor(v2), MASK, heads=2).data
        np.testing.assert_allclose(out2[:3], out[:3], atol=1e-12)


def test_oracle_nodes():
    # matmul, transpose and softmax, which only the composed oracle runs
    r = RNG.normal(size=(3, 2, 4))
    gradcheck(lambda a, b: (oracle.matmul(a, b) * Tensor(r)).sum(),
              [RNG.normal(size=(3, 2, 5)), RNG.normal(size=(3, 5, 4))])
    gradcheck(lambda a: (oracle.transpose(a, (1, 0, 2)) * Tensor(r)).sum(),
              [RNG.normal(size=(2, 3, 4))])
    s = oracle.softmax(Tensor(RNG.normal(size=(5, 7))), axis=-1)
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)
    gradcheck(lambda a: (oracle.softmax(a, axis=-1) * a).sum(), [RNG.normal(size=(4, 5))])


def test_attention_is_stable_at_large_logits():
    # float32 scores near +-1e3, where an unshifted exp overflows; a row with
    # every key masked and rows with a single valid key; against the
    # composed oracle in float64, then a gradcheck on the same mask
    rng = np.random.default_rng(17)
    mask = np.array([[True] * 6, [False] * 6, [False, False, True, False, False, False],
                     [True, False, False, False, False, False]])
    q, k = (rng.normal(0.0, 30.0, size=(4, 6, 8)).astype(np.float32) for _ in range(2))
    v = rng.normal(size=(4, 6, 8)).astype(np.float32)
    scores = np.einsum("bqhd,bkhd->bhqk", q.reshape(4, 6, 2, 4), k.reshape(4, 6, 2, 4)) / 2
    assert np.abs(scores).max() > 1e3 and np.median(np.abs(scores)) > 100
    got = masked_attention(Tensor(q), Tensor(k), Tensor(v), mask, heads=2).data
    want = oracle.attention_node(*(Tensor(a.astype(np.float64)) for a in (q, k, v)),
                                 mask, heads=2).data
    assert np.isfinite(got).all()
    assert rel_err(got, want) < 1e-5
    np.testing.assert_array_equal(got[2], np.broadcast_to(v[2, 2], (6, 8)))
    r = rng.normal(size=(4, 6, 8)) * mask.any(axis=1)[:, None, None]
    gradcheck(lambda q, k, v: (masked_attention(q, k, v, mask, heads=2) * Tensor(r)).sum(),
              [rng.normal(size=(4, 6, 8)) for _ in range(3)])


@pytest.mark.parametrize("rate", [0.0, 0.3], ids=["no-dropout", "dropout"])
@pytest.mark.parametrize("zero_inner", [True, False], ids=["attention", "feedforward"])
def test_residual_norm_matches_the_node_chain_bit_for_bit(zero_inner, rate):
    # float32, padded rows: the fused node against the separate nodes it
    # replaces, with the same dropout draw; outputs and every adjoint equal
    rng = np.random.default_rng(23)
    mask = _ragged_rows(6, 9, rng)
    arrays = [rng.normal(size=s).astype(np.float32)
              for s in [(6, 9, 16), (6, 9, 24), (24, 16), (16,), (16,), (16,)]]
    r = Tensor(rng.normal(size=(6, 9, 16)).astype(np.float32))

    def run(fused):
        x, a, w, b, g, be = (Tensor(v, requires_grad=True) for v in arrays)
        drop = np.random.default_rng(9)
        if fused:
            out = residual_norm(x, a, w, b, g, be, mask, rate, drop, zero_inner=zero_inner)
        else:
            y = linear(a, w, b)
            y = dropout(_zero_rows(y, mask) if zero_inner else y, rate, drop)
            out = _zero_rows(layer_norm(x + y, g, be, LAYER_NORM_EPS), mask)
        (out * r).sum().backward()
        return [out.data] + [t.grad for t in (x, a, w, b, g, be)]

    for got, want in zip(run(True), run(False)):
        np.testing.assert_array_equal(got, want)


def _adjoint(shape, layout, rng):
    """A float32 adjoint in C or transposed (F) memory layout."""
    r = rng.normal(size=shape).astype(np.float32)
    return np.asfortranarray(r) if layout == "F" else r


def _assert_same_arrays(got, want):
    # equal bits, and equal memory layout: the layout of an adjoint decides
    # how the reductions that later read it sum
    for a, c in zip(got, want):
        np.testing.assert_array_equal(a, c)
        assert a.strides == c.strides


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("rate", [0.0, 0.3], ids=["no-dropout", "dropout"])
@pytest.mark.parametrize("lead", [(6, 9), (9,)], ids=["batch", "2-d"])
def test_feed_forward_matches_the_node_chain_bit_for_bit(lead, rate, layout):
    # float32, masked rows: the fused sublayer against residual_norm on the
    # up projection's gelu, with the same dropout draw; outputs and the
    # adjoints of x, both projections and the norm equal
    rng = np.random.default_rng(29)
    mask = _ragged_rows(6, 9, rng) if len(lead) == 2 else np.arange(9) < 6
    arrays = [rng.normal(size=s).astype(np.float32)
              for s in [lead + (16,), (16, 24), (24,), (24, 16), (16,), (16,), (16,)]]
    adjoint = _adjoint(lead + (16,), layout, rng)

    def run(fused):
        x, w1, b1, w2, b2, g, be = (Tensor(v, requires_grad=True) for v in arrays)
        drop = np.random.default_rng(9)
        if fused:
            out = feed_forward(x, w1, b1, w2, b2, g, be, mask, rate, drop)
        else:
            out = residual_norm(x, linear(x, w1, b1).gelu(), w2, b2, g, be, mask, rate, drop)
        out.backward(adjoint)
        return [out.data] + [t.grad for t in (x, w1, b1, w2, b2, g, be)]

    _assert_same_arrays(run(True), run(False))


@pytest.mark.parametrize("layout", ["C", "F"])
def test_masked_mean_matches_the_node_chain_bit_for_bit(layout):
    rng = np.random.default_rng(37)
    mask = _ragged_rows(6, 9, rng)
    mask[3] = False   # an empty row: zeros, with count 1
    data = rng.normal(size=(6, 9, 16)).astype(np.float32)
    adjoint = _adjoint((6, 16), layout, rng)

    def run(fused):
        x = Tensor(data, requires_grad=True)
        if fused:
            out = masked_mean(x, mask, axis=1)
        else:
            m = mask[..., None].astype(np.float32)
            out = (x * Tensor(m)).sum(axis=1) * Tensor(1.0 / np.maximum(m.sum(axis=1), 1.0))
        out.backward(adjoint)
        return [out.data, x.grad]

    _assert_same_arrays(run(True), run(False))


@pytest.mark.parametrize("b, n, width, heads", [(6, 9, 16, 4), (6, 9, 16, 1), (5, 1, 16, 4)],
                         ids=["ragged", "heads=1", "n=1"])
def test_rebuilt_scores_match_the_stored_scores_node_bit_for_bit(b, n, width, heads):
    # float32 ragged key masks with one row of no valid key: outputs and the
    # q, k and v adjoints equal the node that saved its exp scores, and the
    # backward leaves q, k and v as the forward left them (at n = 1 the
    # forward writes its output into q's buffer, on both sides)
    rng = np.random.default_rng(41)
    mask = _ragged_rows(b, n, rng)
    mask[-1] = False
    arrays = [rng.normal(size=(b, n, width)).astype(np.float32) for _ in range(3)]
    adjoint = rng.normal(size=(b, n, width)).astype(np.float32)

    def run(node):
        q, k, v = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        out = node(q, k, v, mask, heads)
        left = [t.data.copy() for t in (q, k, v)]
        out.backward(adjoint)
        for t, before in zip((q, k, v), left):
            np.testing.assert_array_equal(t.data, before)
        return [out.data] + [t.grad for t in (q, k, v)]

    _assert_same_arrays(run(masked_attention), run(oracle.stored_scores_attention))


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


def test_training_block_holds_only_the_listed_arrays():
    # after a training-mode forward with dropout on padded rows, the block's
    # graph may hold no more than the outputs and saved arrays that the
    # nn/layers.py docstring lists for its six nodes, plus 4 KiB per node
    # for Python objects (tensors, closures, array headers): no exp scores
    # and no gelu output, which backward rebuilds
    b, n, width, heads, f32 = 4, 32, 64, 4, 4
    rng = np.random.default_rng(31)
    blk = EncoderBlock(width, heads, rng, dropout_rate=0.1).set_training(True)
    mask = _ragged_rows(b, n, rng)
    x = Tensor((rng.normal(size=(b, n, width)) * mask[..., None]).astype(np.float32),
               requires_grad=True)
    blk(x, mask, np.random.default_rng(1))   # warm numpy's caches; the graph dies here
    act = b * n * width * f32                # one (b, n, width) float32 array
    rows = b * n * f32                       # one float32 value per row
    tail = 2 * act + 2 * rows + b * n * width     # output, x_hat, 1/sigma, rows, keep mask
    listed = (3 * act                             # q, k, v
              + act + b * heads * n * f32         # attention: output, 1/(key sum)
              + tail                              # residual_norm
              + act + tail)                       # feed_forward: up projection, the tail
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        h = blk(x, mask, np.random.default_rng(2))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert h.requires_grad
    assert held <= listed + 6 * 4096, (held, listed)


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
    net = SummaryNetwork(cfg.d, cfg.width, cfg.summary_blocks, cfg.heads, cfg.dropout,
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
    assert sum(p.data.size for p in model.parameters()) == 1210684
