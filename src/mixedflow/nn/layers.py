"""Network building blocks: linear maps, layer norm, masked multi-head
attention and transformer encoder blocks.

All blocks run on the tape in tensor.py. Masks are plain numpy bool arrays;
masked rows are excluded from attention and zeroed at block boundaries so
padding can never leak into a summary statistic (with no masked row, the
mask multiplies and the attention mask add are skipped).

Three ops are fused into single tape nodes with hand-written backward
passes, so an encoder block is a short chain of nodes instead of dozens of
small elementwise ones. Each saves for its backward only what is listed:

- `linear`: x @ W + b as one flat gemm plus the bias; the backward
  reuses the inputs it was given (g @ W', x' @ g, g summed).
- `layer_norm`: normalization over the last axis; saves the normalized
  input x_hat and 1/sigma per row.
- `masked_attention`: per head, scaled scores, the key mask, a softmax done
  in place on the node's own score buffer and the weighted sum of values;
  saves the probabilities (its output and the q, k, v inputs are held
  anyway).

Training and inference run the same nodes; under `no_grad` the backward
closures, and with them the saved arrays, are dropped at once.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, DimensionError
from .tensor import Tensor, assert_finite

__all__ = [
    "Module",
    "Linear",
    "LayerNorm",
    "FeedForward",
    "MultiheadAttention",
    "EncoderBlock",
    "EncoderStack",
    "dropout",
    "masked_mean",
    "linear",
    "layer_norm",
    "masked_attention",
]


class Module:
    """Minimal parameter container with train/eval mode propagation."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._children: dict[str, "Module"] = {}
        self.training = False

    def register(self, name: str, value):
        if isinstance(value, Module):
            self._children[name] = value
        elif isinstance(value, Tensor):
            self._params[name] = value
        else:
            raise ConfigError(f"cannot register {type(value)!r} as {name}")
        return value

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            yield (prefix + name, p)
        for name, child in self._children.items():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def set_training(self, flag: bool):
        self.training = flag
        for child in self._children.values():
            child.set_training(flag)
        return self

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())


def _param(rng: np.random.Generator, shape, scale: float, dtype) -> Tensor:
    data = rng.uniform(-scale, scale, size=shape).astype(dtype)
    return Tensor(data, requires_grad=True)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis of x, as one node: a single flat gemm
    for any number of leading axes, plus the bias."""
    n_in, n_out = w.data.shape
    lead = x.data.shape[:-1]
    x2, wd = x.data.reshape(-1, n_in), w.data
    out = x2 @ wd + b.data

    def backward(g):
        g2 = g.reshape(-1, n_out)
        if x.requires_grad:
            x._accumulate((g2 @ wd.T).reshape(lead + (n_in,)), owned=True)
        if w.requires_grad:
            w._accumulate(x2.T @ g2, owned=True)
        if b.requires_grad:
            b._accumulate(g2.sum(axis=0), owned=True)

    return Tensor._make(out.reshape(lead + (n_out,)), (x, w, b), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """gamma * (x - mean) / sqrt(var + eps) + beta over the last axis, as
    one node that saves x_hat and 1/sigma."""
    width = x.data.shape[-1]
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    rstd = np.einsum("...i,...i->...", xhat, xhat)[..., None]
    rstd *= 1.0 / width
    rstd += eps
    np.sqrt(rstd, out=rstd)
    np.reciprocal(rstd, out=rstd)
    xhat *= rstd
    gd = gamma.data
    out = xhat * gd
    out += beta.data

    def backward(g):
        if x.requires_grad:
            # dx = (gx - mean(gx) - x_hat * mean(gx * x_hat)) / sigma, gx = g * gamma
            gx = g * gd
            c = np.einsum("...i,...i->...", gx, xhat)[..., None]
            c *= 1.0 / width
            gx -= gx.mean(axis=-1, keepdims=True)
            gx -= xhat * c
            gx *= rstd
            x._accumulate(gx, owned=True)
        g2 = g.reshape(-1, width)
        if gamma.requires_grad:
            gamma._accumulate(np.einsum("ni,ni->i", g2, xhat.reshape(-1, width)), owned=True)
        if beta.requires_grad:
            beta._accumulate(g2.sum(axis=0), owned=True)

    return Tensor._make(out, (x, gamma, beta), backward)


def masked_attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray, heads: int) -> Tensor:
    """softmax(q k' / sqrt(head_dim) + key mask) v for each head, as one
    node over (b, n, width) inputs; the output is in the same layout.

    Keys where mask (b, n) is false get a -1e30 score (the add is skipped
    when every key is valid), so a row with no valid key softmaxes to
    uniform. The softmax runs in place on the node's own score buffer,
    whose probabilities are all that backward keeps.
    """
    b, n, width = q.data.shape
    dh = width // heads
    scale = 1.0 / math.sqrt(dh)

    def split(a: np.ndarray) -> np.ndarray:
        # (b, n, width) -> (b, heads, n, head_dim) view
        return a.reshape(b, n, heads, dh).transpose((0, 2, 1, 3))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    p = qh @ kh.swapaxes(-1, -2)
    p *= scale
    if not mask.all():
        p += np.where(mask, 0.0, -1e30).astype(p.dtype)[:, None, None, :]
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def merged(a: np.ndarray, c: np.ndarray) -> np.ndarray:
        # a @ c per head, written straight into a fresh (b, n, width) array
        out = np.empty((b, n, width), dtype=p.dtype)
        np.matmul(a, c, out=split(out))
        return out

    out = merged(p, vh)

    def backward(g):
        gh = split(g)
        if v.requires_grad:
            v._accumulate(merged(p.swapaxes(-1, -2), gh), owned=True)
        if q.requires_grad or k.requires_grad:
            # score adjoint p * (dp - rowsum(p * dp)) with dp = g v'; the
            # row sum equals g . out row by row
            ds = gh @ vh.swapaxes(-1, -2)
            ds -= np.einsum("bhnd,bhnd->bhn", gh, split(out))[..., None]
            ds *= p
            ds *= scale
            if q.requires_grad:
                q._accumulate(merged(ds, kh), owned=True)
            if k.requires_grad:
                k._accumulate(merged(ds.swapaxes(-1, -2), qh), owned=True)

    return Tensor._make(out, (q, k, v), backward)


def _zero_rows(x: Tensor, mask: np.ndarray) -> Tensor:
    """x with the rows where mask is false zeroed; x itself when none is."""
    return x if mask.all() else x * Tensor(mask[..., None].astype(x.dtype))


class Linear(Module):
    """y = x @ W + b with exact reverse-mode gradients."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator,
                 dtype=np.float32, zero_init: bool = False):
        super().__init__()
        self.n_in, self.n_out = n_in, n_out
        scale = 0.0 if zero_init else math.sqrt(6.0 / (n_in + n_out))
        self.w = self.register("w", _param(rng, (n_in, n_out), scale, dtype))
        self.b = self.register("b", Tensor(np.zeros(n_out, dtype=dtype), requires_grad=True))

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.n_in:
            raise DimensionError(f"linear expects last dim {self.n_in}, got {x.shape}")
        return linear(x, self.w, self.b)


class LayerNorm(Module):
    def __init__(self, width: int, dtype=np.float32, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = self.register("gamma", Tensor(np.ones(width, dtype=dtype), requires_grad=True))
        self.beta = self.register("beta", Tensor(np.zeros(width, dtype=dtype), requires_grad=True))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta, self.eps)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when rng is None (evaluation mode)."""
    if rng is None or rate <= 0.0:
        return x
    keep = (rng.random(x.shape, dtype=x.dtype) >= rate).astype(x.dtype) / (1.0 - rate)
    return x * Tensor(keep)


def masked_mean(x: Tensor, mask: np.ndarray, axis: int) -> Tensor:
    """Mean over `axis` counting only positions where mask is true.

    mask broadcasts against x up to the feature dimension. Rows with an
    empty mask yield zeros (caller decides whether that is an error).
    """
    m = np.asarray(mask, dtype=x.dtype)
    while m.ndim < x.ndim:
        m = m[..., None]
    total = (x * Tensor(m)).sum(axis=axis)
    count = np.maximum(m.sum(axis=axis), 1.0)
    return total * Tensor(1.0 / count)


class MultiheadAttention(Module):
    """Self-attention over the second-to-last axis with a validity mask.

    Rows where mask is false neither attend nor are attended to, and their
    output rows are zeroed.
    """

    def __init__(self, width: int, heads: int, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        if width % heads != 0:
            raise ConfigError(f"width {width} not divisible by heads {heads}")
        self.width, self.heads = width, heads
        self.head_dim = width // heads
        self.wq = self.register("wq", Linear(width, width, rng, dtype))
        self.wk = self.register("wk", Linear(width, width, rng, dtype))
        self.wv = self.register("wv", Linear(width, width, rng, dtype))
        self.wo = self.register("wo", Linear(width, width, rng, dtype))

    def __call__(self, x: Tensor, mask: np.ndarray) -> Tensor:
        if x.shape[-1] != self.width:
            raise DimensionError(f"attention expects width {self.width}, got {x.shape}")
        squeeze = x.ndim == 2
        if squeeze:
            x = x.reshape((1,) + x.shape)
            mask = np.asarray(mask)[None, :]
        mask = np.asarray(mask, dtype=bool)
        out = self.wo(masked_attention(self.wq(x), self.wk(x), self.wv(x), mask, self.heads))
        out = _zero_rows(out, mask)
        return out.reshape(out.shape[1:]) if squeeze else out


class FeedForward(Module):
    def __init__(self, width: int, hidden: int, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.up = self.register("up", Linear(width, hidden, rng, dtype))
        self.down = self.register("down", Linear(hidden, width, rng, dtype))

    def __call__(self, x: Tensor) -> Tensor:
        return self.down(self.up(x).gelu())


class EncoderBlock(Module):
    """Post-norm transformer encoder block: attention and feedforward
    sublayers with residuals, layer norm, dropout and gelu."""

    def __init__(self, width: int, heads: int, rng: np.random.Generator,
                 dropout_rate: float = 0.01, dtype=np.float32, name: str = "encoder"):
        super().__init__()
        self.name = name
        self.dropout_rate = dropout_rate
        self.attn = self.register("attn", MultiheadAttention(width, heads, rng, dtype))
        self.norm1 = self.register("norm1", LayerNorm(width, dtype))
        self.ff = self.register("ff", FeedForward(width, width, rng, dtype))
        self.norm2 = self.register("norm2", LayerNorm(width, dtype))

    def __call__(self, x: Tensor, mask: np.ndarray, rng: np.random.Generator | None = None) -> Tensor:
        if not self.training:
            rng = None
        mask = np.asarray(mask, dtype=bool)
        h = _zero_rows(self.norm1(x + dropout(self.attn(x, mask), self.dropout_rate, rng)), mask)
        h = _zero_rows(self.norm2(h + dropout(self.ff(h), self.dropout_rate, rng)), mask)
        assert_finite(h, f"{self.name} output")
        return h


class EncoderStack(Module):
    def __init__(self, width: int, blocks: int, heads: int, rng: np.random.Generator,
                 dropout_rate: float = 0.01, dtype=np.float32, name: str = "encoder"):
        super().__init__()
        self.blocks = []
        for i in range(blocks):
            blk = EncoderBlock(width, heads, rng, dropout_rate, dtype, name=f"{name}[{i}]")
            self.register(f"block{i}", blk)
            self.blocks.append(blk)

    def __call__(self, x: Tensor, mask: np.ndarray, rng: np.random.Generator | None = None) -> Tensor:
        for blk in self.blocks:
            x = blk(x, mask, rng)
        return x
