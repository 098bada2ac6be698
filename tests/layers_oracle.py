"""Composed reference implementation of the fused layer nodes, and an
unpadded per-group reference for the local summaries.

Linear, LayerNorm, multi-head attention and the encoder block as they were
built from generic tape ops (matmul, bias add, mean, sqrt, softmax, mask
multiplies) before those ops became single fused nodes. It is slower and
kept only as the oracle the fused code must reproduce: `composed_layers()`
swaps these bodies in for the fused ones, so any module built on the
layers (encoder stacks, the summary network) runs both ways with the same
parameters.

`per_group_local` encodes each real group of a batch on its own, from its
real rows only: no padding, no size buckets, no gathering. It is what
`SummaryNetwork.summarize_local` must compute.
"""

import contextlib
import math

import numpy as np

from mixedflow.nn import layers
from mixedflow.nn.tensor import Tensor, assert_finite, cat


def linear(self, x):
    if x.ndim <= 2:
        return x @ self.w + self.b
    lead = x.shape[:-1]
    out = x.reshape(-1, self.n_in) @ self.w + self.b
    return out.reshape(*lead, self.n_out)


def layer_norm(self, x):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return self.gamma * (centered / (var + self.eps).sqrt()) + self.beta


def attention(self, x, mask):
    squeeze = x.ndim == 2
    if squeeze:
        x = x.reshape((1,) + x.shape)
        mask = np.asarray(mask)[None, :]
    b, n, _ = x.shape
    mask = np.asarray(mask, dtype=bool)

    def split(t):
        return t.reshape(b, n, self.heads, self.head_dim).transpose((0, 2, 1, 3))

    q, k, v = split(self.wq(x)), split(self.wk(x)), split(self.wv(x))
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(self.head_dim))
    bias = np.where(mask[:, None, None, :], 0.0, -1e30).astype(x.dtype)
    weights = (scores + Tensor(bias)).softmax(axis=-1)
    out = (weights @ v).transpose((0, 2, 1, 3)).reshape(b, n, self.width)
    out = self.wo(out) * Tensor(mask[:, :, None].astype(x.dtype))
    return out.reshape(out.shape[1:]) if squeeze else out


def encoder_block(self, x, mask, rng=None):
    if not self.training:
        rng = None
    mask = np.asarray(mask, dtype=bool)
    keep = Tensor(np.expand_dims(mask, -1).astype(x.dtype))
    h = self.norm1(x + layers.dropout(self.attn(x, mask), self.dropout_rate, rng)) * keep
    h = self.norm2(h + layers.dropout(self.ff(h), self.dropout_rate, rng)) * keep
    assert_finite(h, f"{self.name} output")
    return h


@contextlib.contextmanager
def composed_layers():
    """Run every Linear, LayerNorm, MultiheadAttention and EncoderBlock
    through the composed bodies above inside the block."""
    swaps = {layers.Linear: linear, layers.LayerNorm: layer_norm,
             layers.MultiheadAttention: attention, layers.EncoderBlock: encoder_block}
    saved = {cls: cls.__call__ for cls in swaps}
    try:
        for cls, body in swaps.items():
            cls.__call__ = body
        yield
    finally:
        for cls, body in saved.items():
            cls.__call__ = body


def per_group_local(net, X, Z, y, mask, group_mask, rng=None):
    """Local summaries (B, m, width) of `net`, one real group at a time;
    phantom groups give zero rows."""
    b, m, _ = mask.shape
    parts, where = [], []
    for i, j in zip(*np.nonzero(group_mask)):
        keep = np.asarray(mask[i, j], dtype=bool)
        full = np.ones((1, int(keep.sum())), dtype=bool)
        emb = net.embed_rows(X[i, j][keep][None], Z[i, j][keep][None], y[i, j][keep][None], full)
        parts.append(net.local_encoder(emb, full, rng).mean(axis=1))
        where.append(i * m + j)
    return cat(parts, axis=0).scatter_rows(np.array(where), b * m).reshape(b, m, -1)
