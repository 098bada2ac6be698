"""Composed reference implementation of the fused layer nodes, and an
unpadded per-group reference for the local summaries.

Linear, LayerNorm, multi-head attention and the encoder block as they were
built from generic tape ops (matmul, bias add, mean, square root, softmax, mask
multiplies) before those ops became single fused nodes. It is slower and
kept only as the oracle the fused code must reproduce: `composed_layers()`
swaps these bodies in for the fused ones, so any module built on the
layers (encoder stacks, the summary network) runs both ways with the same
parameters.

No package layer runs matmul, transpose or softmax, so this module owns
them: matmul and transpose as nodes on `Tensor._make`, softmax composed
from the tape's exp, sum and divide.

`stored_scores_attention` is the fused attention node as it was before its
backward rebuilt the exp scores: it saves them. The fused node must match
it bit for bit.

`per_group_local` encodes each real group of a batch on its own, from its
real rows only: no padding, no size buckets, no gathering. It is what
`SummaryNetwork.summarize_local` must compute.
"""

import contextlib
import math

import numpy as np

from mixedflow.nn import layers
from mixedflow.nn.tensor import Tensor, assert_finite, cat


def matmul(a, b):
    """a @ b for stacks of matrices with the same leading shape."""
    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.swapaxes(-1, -2), owned=True)
        if b.requires_grad:
            b._accumulate(a.data.swapaxes(-1, -2) @ g, owned=True)

    return Tensor._make(a.data @ b.data, (a, b), backward)


def transpose(x, axes):
    inverse = np.argsort(axes)

    def backward(g):
        x._accumulate(g.transpose(inverse), owned=True)

    return Tensor._make(x.data.transpose(axes), (x,), backward)


def softmax(x, axis=-1):
    """Softmax along `axis` from exp, sum and divide; the maximum it is
    shifted by is a constant, as softmax is shift-invariant."""
    e = (x - Tensor(x.data.max(axis=axis, keepdims=True))).exp()
    return e / e.sum(axis=axis, keepdims=True)


def linear(self, x):
    n_in, n_out = self.w.shape
    out = matmul(x.reshape(-1, n_in), self.w) + self.b
    return out.reshape(*x.shape[:-1], n_out)


def layer_norm(self, x):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return self.gamma * (centered / (var + layers.LAYER_NORM_EPS) ** 0.5) + self.beta


def attention_node(q, k, v, mask, heads):
    """softmax(q k' / sqrt(head_dim) + key mask) v per head over (b, n,
    width) tensors, query-major, with the generic softmax."""
    b, n, width = q.shape
    dh = width // heads

    def split(t):
        return transpose(t.reshape(b, n, heads, dh), (0, 2, 1, 3))

    scores = matmul(split(q), transpose(split(k), (0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
    bias = np.where(mask[:, None, None, :], 0.0, -1e30).astype(q.dtype)
    weights = softmax(scores + Tensor(bias), axis=-1)
    return transpose(matmul(weights, split(v)), (0, 2, 1, 3)).reshape(b, n, width)


def stored_scores_attention(q, k, v, mask, heads):
    """The fused masked_attention node that keeps its exp scores for the
    backward, float32 operations and all."""
    b, n, width = q.data.shape
    dh = width // heads
    scale = 1.0 / math.sqrt(dh)

    def split(a):
        return a.reshape(b, n, heads, dh).transpose((0, 2, 1, 3))

    def transposed(a):
        return np.ascontiguousarray(split(a).swapaxes(-1, -2))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    qt = transposed(q.data)
    qt *= scale
    e = kh @ qt
    if not mask.all():
        e += np.where(mask, 0.0, -1e30).astype(e.dtype)[:, None, :, None]
    e -= e.max(axis=-2, keepdims=True)
    np.exp(e, out=e)
    inv_sum = np.ones(n, dtype=e.dtype) @ e
    np.reciprocal(inv_sum, out=inv_sum)
    out = qt.reshape(b, n, width)
    np.matmul(e.swapaxes(-1, -2), vh, out=split(out))
    out.reshape(b, n, heads, dh)[...] *= inv_sum.transpose((0, 2, 1))[..., None]

    def merged(a, c):
        res = np.empty((b, n, width), dtype=e.dtype)
        np.matmul(a, c, out=split(res))
        return res

    def backward(g):
        gh = split(g)
        if v.requires_grad:
            v._accumulate(merged(e, gh * inv_sum[..., None]), owned=True)
        if q.requires_grad or k.requires_grad:
            ds = vh @ transposed(g)
            ds -= np.einsum("bhnd,bhnd->bhn", gh, split(out))[..., None, :]
            ds *= e
            ds *= (inv_sum * scale)[..., None, :]
            if q.requires_grad:
                q._accumulate(merged(ds.swapaxes(-1, -2), kh), owned=True)
            if k.requires_grad:
                k._accumulate(merged(ds, qh), owned=True)

    return Tensor._make(out, (q, k, v), backward)


def attention(self, x, mask):
    squeeze = x.ndim == 2
    if squeeze:
        x = x.reshape((1,) + x.shape)
        mask = np.asarray(mask)[None, :]
    mask = np.asarray(mask, dtype=bool)
    out = attention_node(self.wq(x), self.wk(x), self.wv(x), mask, self.heads)
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
