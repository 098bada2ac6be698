"""Network building blocks: linear maps, layer norm, masked multi-head
attention and transformer encoder blocks.

All blocks run on the tape in tensor.py. Masks are plain numpy bool arrays;
masked rows are excluded from attention and zeroed at block boundaries so
padding can never leak into a summary statistic (with no masked row, the
mask multiplies and the attention mask add are skipped).

Six ops are fused into single tape nodes with hand-written backward
passes, so an encoder block is a short chain of nodes instead of dozens of
small elementwise ones. Each saves for its backward only what is listed:

- `linear`: x @ W + b as one flat gemm per input part with the bias added
  in place; the parts meet their own rows of W, and a part may broadcast
  over the first one's leading axes, so a condition shared by many rows
  is projected once. The backward reuses the inputs it was given (g @ W',
  x' @ g, g summed), a broadcast part's adjoint summed over its broadcast
  axes first.
- `layer_norm`: normalization over the last axis; saves the normalized
  input x_hat and 1/sigma per row.
- `masked_attention`: per head, key-major scores with the key mask, shifted
  and exponentiated in place on the node's own buffer, the weighted sum of
  values, then one normalization of the output; saves 1/(key sum) per
  query (its output and the q, k, v inputs are held anyway), and backward
  rebuilds the exp scores with the forward's float32 operations.
- `residual_norm`: the end of the attention sublayer, zero_rows(layer_norm(x
  + dropout(zero_rows?(a @ W + b)))), with its dropout mask drawn inside;
  saves x_hat, 1/sigma per row, the row mask as a float column (only when
  a row is masked) and dropout's keep mask as a bool array (only when
  dropout is on). The projection, its masked and dropped copies, the
  residual sum and the unmasked norm output are never kept.
- `feed_forward`: the feed-forward sublayer, residual_norm's tail on
  gelu(x @ W1 + b1) @ W2 + b2; saves what residual_norm saves and the up
  projection, from which backward rebuilds gelu and its slope (one erf).
- `masked_mean`: a mean over the valid rows; saves the mask and the counts.

So a training-mode `EncoderBlock` holds six nodes until the backward
sweep: the q, k and v projections, `masked_attention`, `residual_norm` and
`feed_forward`, each with its output and the arrays above.

Training and inference run the same nodes; under `no_grad` the backward
closures, and with them the saved arrays, are dropped at once.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, DimensionError
from .tensor import Tensor, _erf, _unbroadcast, assert_finite

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
    "residual_norm",
    "feed_forward",
]

LAYER_NORM_EPS = 1e-5  # added to each row's variance in LayerNorm


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


def _param(rng: np.random.Generator | None, shape, scale: float, dtype) -> Tensor:
    """Uniform on (-scale, scale); zeros, drawing nothing, without a generator."""
    data = np.zeros(shape, dtype) if rng is None else rng.uniform(-scale, scale, size=shape)
    return Tensor(data.astype(dtype, copy=False), requires_grad=True)


def _parts(x, w: Tensor) -> list[tuple[Tensor, int, int]]:
    """(part, its first and last-plus-one row of w) for each non-empty part
    of x, a tensor or a sequence of parts whose widths add up to the rows
    of w."""
    terms, lo = [], 0
    for p in (x,) if isinstance(x, Tensor) else x:
        hi = lo + p.data.shape[-1]
        if hi > lo:
            terms.append((p, lo, hi))
        lo = hi
    if lo != w.data.shape[0]:
        raise DimensionError(f"linear expects last dim {w.data.shape[0]}, got {lo}")
    return terms


def _project(terms, w: Tensor, b: Tensor) -> np.ndarray:
    """The forward of `linear`: one flat gemm per part, the bias joining the
    last part's product, x_0 w_0 + (x_1 w_1 + (... + b))."""
    n_out = w.data.shape[1]
    out = None
    for p, lo, hi in reversed(terms):
        y = (p.data.reshape(-1, hi - lo) @ w.data[lo:hi]).reshape(p.data.shape[:-1] + (n_out,))
        y += b.data if out is None else out
        out = y
    return out


def _project_backward(g: np.ndarray, terms, w: Tensor, b: Tensor):
    """Scatter the adjoint g of `_project` to the parts, w and b."""
    wd = w.data
    n_out = wd.shape[1]
    g_w = np.empty_like(wd) if w.requires_grad else None
    for p, lo, hi in terms:
        gp = _unbroadcast(g, p.data.shape[:-1] + (n_out,))[0].reshape(-1, n_out)
        if p.requires_grad:
            p._accumulate((gp @ wd[lo:hi].T).reshape(p.data.shape), owned=True)
        if g_w is not None:
            np.matmul(p.data.reshape(-1, hi - lo).T, gp, out=g_w[lo:hi])
    if g_w is not None:
        w._accumulate(g_w, owned=True)
    if b.requires_grad:
        b._accumulate(g.reshape(-1, n_out).sum(axis=0), owned=True)


def linear(x, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis, as one node. x is a tensor or a
    sequence of parts whose widths add up to the rows of w; part i meets
    its own block of rows, and later parts may broadcast over the leading
    axes of the first, so a (g, 1, n) condition beside (g, k, n') draws is
    projected once per row, not once per draw. A zero-width part adds
    nothing."""
    terms = _parts(x, w)
    return Tensor._make(_project(terms, w, b), (*(p for p, _, _ in terms), w, b),
                        lambda g: _project_backward(g, terms, w, b))


def _normalize(xhat: np.ndarray, gd: np.ndarray, bd: np.ndarray, eps: float):
    """The forward of `layer_norm` on an array the caller gives up, which is
    normalized in place into x_hat: the output, x_hat and 1/sigma (with a
    kept last axis)."""
    xhat -= xhat.mean(axis=-1, keepdims=True)
    rstd = np.einsum("...i,...i->...", xhat, xhat)[..., None]
    rstd *= 1.0 / xhat.shape[-1]
    rstd += eps
    np.sqrt(rstd, out=rstd)
    np.reciprocal(rstd, out=rstd)
    xhat *= rstd
    out = xhat * gd
    out += bd
    return out, xhat, rstd


def _normalize_backward(g: np.ndarray, xhat: np.ndarray, rstd: np.ndarray,
                        gamma: Tensor, beta: Tensor) -> np.ndarray:
    """Accumulate the adjoints of gamma and beta from g; return the input's."""
    width = xhat.shape[-1]
    # dx = (gx - mean(gx) - x_hat * mean(gx * x_hat)) / sigma, gx = g * gamma
    gx = g * gamma.data
    c = np.einsum("...i,...i->...", gx, xhat)[..., None]
    c *= 1.0 / width
    gx -= gx.mean(axis=-1, keepdims=True)
    gx -= xhat * c
    gx *= rstd
    g2 = g.reshape(-1, width)
    if gamma.requires_grad:
        gamma._accumulate(np.einsum("ni,ni->i", g2, xhat.reshape(-1, width)), owned=True)
    if beta.requires_grad:
        beta._accumulate(g2.sum(axis=0), owned=True)
    return gx


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """gamma * (x - mean) / sqrt(var + eps) + beta over the last axis, as
    one node that saves x_hat and 1/sigma."""
    out, xhat, rstd = _normalize(x.data.copy(), gamma.data, beta.data, eps)

    def backward(g):
        gx = _normalize_backward(g, xhat, rstd, gamma, beta)
        if x.requires_grad:
            x._accumulate(gx, owned=True)

    return Tensor._make(out, (x, gamma, beta), backward)


def _sublayer_tail(y: np.ndarray, x: Tensor, gamma: Tensor, beta: Tensor, mask: np.ndarray,
                   rate: float, rng: np.random.Generator | None, zero_inner: bool):
    """zero_rows(layer_norm(x + dropout(zero_rows?(y)))) on a projection y it
    takes over: the output, and the backward from its adjoint to those of y
    and of x (the residual), which accumulates gamma's and beta's."""
    if y.shape != x.data.shape:
        raise DimensionError(f"residual of shape {x.data.shape} meets {y.shape}")
    rows = None if mask.all() else mask[..., None].astype(y.dtype)
    if zero_inner and rows is not None:
        y *= rows
    kept = _dropout_keep(y.shape, y.dtype, rate, rng)
    if kept is not None:
        y *= _keep_scale(kept, rate, y.dtype)
    y += x.data
    out, xhat, rstd = _normalize(y, gamma.data, beta.data, LAYER_NORM_EPS)
    if rows is not None:
        out *= rows

    def backward(g):
        if rows is not None:
            g = g * rows
        gs = _normalize_backward(g, xhat, rstd, gamma, beta)
        gy = gs if kept is None else gs * _keep_scale(kept, rate, gs.dtype)
        if zero_inner and rows is not None:
            gy = gy * rows
        return gy, gs

    return out, backward


def residual_norm(x: Tensor, a: Tensor, w: Tensor, b: Tensor, gamma: Tensor, beta: Tensor,
                  mask: np.ndarray, rate: float, rng: np.random.Generator | None,
                  zero_inner: bool = False) -> Tensor:
    """The end of a post-norm sublayer as one node:
    zero_rows(layer_norm(x + dropout(zero_rows?(a @ w + b)))), where x is
    the sublayer's input, a its activation before the output projection
    and mask (x's leading shape) its valid rows. zero_inner zeroes the
    invalid rows of the projection too (the attention sublayer does). The
    dropout mask is drawn here, as `dropout` draws it (identity when rng is
    None). The float32 operations and their order are those of the chain
    of separate nodes, so outputs and adjoints match it bit for bit."""
    terms = _parts(a, w)
    out, tail = _sublayer_tail(_project(terms, w, b), x, gamma, beta, mask, rate, rng,
                               zero_inner)

    def backward(g):
        gy, gs = tail(g)
        _project_backward(gy, terms, w, b)
        if x.requires_grad:
            x._accumulate(gs, owned=True)

    return Tensor._make(out, (x, a, w, b, gamma, beta), backward)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, gamma: Tensor,
                 beta: Tensor, mask: np.ndarray, rate: float,
                 rng: np.random.Generator | None) -> Tensor:
    """A feed-forward sublayer as one node, `residual_norm(x, gelu(x @ w1 +
    b1), w2, b2, ...)`, that saves u = x @ w1 + b1 and rebuilds gelu(u) and
    its slope from one erf. The float32 operations, and the order in which
    x gets its two adjoints (the residual's first), are the node chain's, so
    outputs and adjoints match it bit for bit."""
    up = _parts(x, w1)
    u = _project(up, w1, b1)
    # gelu(u) as Tensor.gelu has it, gone once projected: u takes its place
    y = _project(_parts(Tensor(0.5 * u * (1.0 + _erf(u / math.sqrt(2.0)))), w2), w2, b2)
    out, tail = _sublayer_tail(y, x, gamma, beta, mask, rate, rng, False)

    def backward(g):
        gy, gs = tail(g)
        cdf = 1.0 + _erf(u / math.sqrt(2.0))
        act = Tensor(0.5 * u * cdf)
        act.requires_grad = True   # collects the down projection's input adjoint
        _project_backward(gy, ((act, 0, u.shape[-1]),), w2, b2)
        if x.requires_grad:
            x._accumulate(gs, owned=True)
        pdf = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        _project_backward(act.grad * (0.5 * cdf + u * pdf), up, w1, b1)

    return Tensor._make(out, (x, w1, b1, w2, b2, gamma, beta), backward)


def masked_attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray, heads: int) -> Tensor:
    """softmax(q k' / sqrt(head_dim) + key mask) v for each head, as one
    node over (b, n, width) inputs; the output is in the same layout.

    The scores are built key-major, k (q / sqrt(head_dim))' of shape
    (b, heads, n_keys, n_queries), so the max, the shift and the exp run
    row-wise over the queries and the key sums are one BLAS call. Keys
    where mask (b, n) is false get a -1e30 score (the add is skipped when
    every key is valid), so a row with no valid key softmaxes to uniform.
    The output is normalized after the value product. Backward keeps only
    1/(key sum), rebuilds the exp scores with the forward's own operations
    and folds 1/(key sum) into its smaller factors, so the probabilities
    are never formed.
    """
    b, n, width = q.data.shape
    dh = width // heads
    scale = 1.0 / math.sqrt(dh)

    def split(a: np.ndarray) -> np.ndarray:
        # (b, n, width) -> (b, heads, n, head_dim) view
        return a.reshape(b, n, heads, dh).transpose((0, 2, 1, 3))

    def transposed(a: np.ndarray, copy=None) -> np.ndarray:
        # (b, n, width) -> a contiguous (b, heads, head_dim, n) array; as the
        # second matmul operand it is about twice as fast as a transposed view
        return np.array(split(a).swapaxes(-1, -2), order="C", copy=copy)

    def exp_scores(qt: np.ndarray) -> np.ndarray:
        # the shifted exp scores from the scaled queries qt, key-major
        e = kh @ qt
        if not mask.all():
            e += np.where(mask, 0.0, -1e30).astype(e.dtype)[:, None, :, None]
        e -= e.max(axis=-2, keepdims=True)
        return np.exp(e, out=e)

    kh, vh = split(k.data), split(v.data)
    # At n = 1 the transposed view is contiguous, so qt is q's own buffer,
    # scaled in place, and the output is written into it. A single key's exp
    # score is 1, so the backward rebuilds it still, but its k adjoint (zero
    # up to roundoff) reads the overwritten q; copying would move its bits.
    qt = transposed(q.data, copy=None if n == 1 else True)
    qt *= scale
    e = exp_scores(qt)
    inv_sum = np.ones(n, dtype=e.dtype) @ e
    np.reciprocal(inv_sum, out=inv_sum)
    out = qt.reshape(b, n, width)  # the scaled queries' buffer, free once e is built
    np.matmul(e.swapaxes(-1, -2), vh, out=split(out))
    out.reshape(b, n, heads, dh)[...] *= inv_sum.transpose((0, 2, 1))[..., None]

    def merged(a: np.ndarray, c: np.ndarray) -> np.ndarray:
        # a @ c per head, written straight into a fresh (b, n, width) array
        res = np.empty((b, n, width), dtype=out.dtype)
        np.matmul(a, c, out=split(res))
        return res

    def backward(g):
        # rebuilt on a copy of the queries, so q's data is never written
        qt = transposed(q.data, copy=True)
        qt *= scale
        e = exp_scores(qt)
        gh = split(g)
        if v.requires_grad:
            # pT g, the 1/(key sum) of pT = e / (key sum) folded into g
            v._accumulate(merged(e, gh * inv_sum[..., None]), owned=True)
        if q.requires_grad or k.requires_grad:
            # transposed score adjoint pT * (v g' - (g . out)), the row sum
            # of p * dp being g . out query by query
            ds = vh @ transposed(g)
            ds -= np.einsum("bhnd,bhnd->bhn", gh, split(out))[..., None, :]
            ds *= e
            ds *= (inv_sum * scale)[..., None, :]
            if q.requires_grad:
                q._accumulate(merged(ds.swapaxes(-1, -2), kh), owned=True)
            if k.requires_grad:
                k._accumulate(merged(ds, split(q.data)), owned=True)

    return Tensor._make(out, (q, k, v), backward)


def _zero_rows(x: Tensor, mask: np.ndarray) -> Tensor:
    """x with the rows where mask is false zeroed; x itself when none is."""
    return x if mask.all() else x * Tensor(mask[..., None].astype(x.dtype))


class Linear(Module):
    """y = x @ W + b with exact reverse-mode gradients."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator,
                 dtype=np.float32, zero_init: bool = False):
        super().__init__()
        scale = 0.0 if zero_init else math.sqrt(6.0 / (n_in + n_out))
        self.w = self.register("w", _param(rng, (n_in, n_out), scale, dtype))
        self.b = self.register("b", Tensor(np.zeros(n_out, dtype=dtype), requires_grad=True))

    def __call__(self, x) -> Tensor:
        """x is a tensor or a sequence of parts, as for `linear`."""
        return linear(x, self.w, self.b)


class LayerNorm(Module):
    def __init__(self, width: int, dtype=np.float32):
        super().__init__()
        self.gamma = self.register("gamma", Tensor(np.ones(width, dtype=dtype), requires_grad=True))
        self.beta = self.register("beta", Tensor(np.zeros(width, dtype=dtype), requires_grad=True))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta, LAYER_NORM_EPS)


def _dropout_keep(shape, dtype, rate: float, rng: np.random.Generator | None):
    """The entries inverted dropout keeps, a bool array drawn as
    rng.random(shape, dtype) >= rate; None (nothing drawn) when rng is None
    (evaluation mode) or rate <= 0."""
    if rng is None or rate <= 0.0:
        return None
    return rng.random(shape, dtype=dtype) >= rate


def _keep_scale(kept: np.ndarray, rate: float, dtype) -> np.ndarray:
    """The inverted-dropout multiplier of the kept entries: kept / (1 - rate)."""
    return kept.astype(dtype) / (1.0 - rate)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when rng is None (evaluation mode)."""
    kept = _dropout_keep(x.shape, x.dtype, rate, rng)
    return x if kept is None else x * Tensor(_keep_scale(kept, rate, x.dtype))


def masked_mean(x: Tensor, mask: np.ndarray, axis: int) -> Tensor:
    """Mean over `axis` counting only positions where mask is true, as one
    node with the float32 operations of (x * mask).sum(axis) * (1 / count).

    mask broadcasts against x up to the feature dimension. Rows with an
    empty mask yield zeros (caller decides whether that is an error).
    """
    m = np.asarray(mask, dtype=x.dtype)
    while m.ndim < x.ndim:
        m = m[..., None]
    inv_count = 1.0 / np.maximum(m.sum(axis=axis), 1.0)

    def backward(g):
        g = np.expand_dims(g * inv_count, axis)
        x._accumulate(np.array(np.broadcast_to(g, x.data.shape), dtype=x.dtype) * m, owned=True)

    return Tensor._make((x.data * m).sum(axis=axis) * inv_count, (x,), backward)


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
        self.wq = self.register("wq", Linear(width, width, rng, dtype))
        self.wk = self.register("wk", Linear(width, width, rng, dtype))
        self.wv = self.register("wv", Linear(width, width, rng, dtype))
        self.wo = self.register("wo", Linear(width, width, rng, dtype))

    def attend(self, x: Tensor, mask: np.ndarray) -> Tensor:
        """The heads' output before the output projection wo, in x's shape
        ((b, n, width) or (n, width))."""
        if x.shape[-1] != self.width:
            raise DimensionError(f"attention expects width {self.width}, got {x.shape}")
        if x.ndim == 2:
            return self.attend(x.reshape((1,) + x.shape), np.asarray(mask)[None, :]).reshape(x.shape)
        return masked_attention(self.wq(x), self.wk(x), self.wv(x),
                                np.asarray(mask, dtype=bool), self.heads)

    def __call__(self, x: Tensor, mask: np.ndarray) -> Tensor:
        return _zero_rows(self.wo(self.attend(x, mask)), np.asarray(mask, dtype=bool))


class FeedForward(Module):
    def __init__(self, width: int, hidden: int, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.up = self.register("up", Linear(width, hidden, rng, dtype))
        self.down = self.register("down", Linear(hidden, width, rng, dtype))

    def __call__(self, x: Tensor) -> Tensor:
        return self.down(self.up(x).gelu())


class EncoderBlock(Module):
    """Post-norm transformer encoder block: attention and feedforward
    sublayers with residuals, layer norm, dropout and gelu. The attention
    sublayer is the heads, then one `residual_norm` node for the output
    projection, dropout, residual, layer norm and row mask; the feedforward
    sublayer is one `feed_forward` node."""

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
        mask, rate = np.asarray(mask, dtype=bool), self.dropout_rate
        wo, up, down = self.attn.wo, self.ff.up, self.ff.down
        h = residual_norm(x, self.attn.attend(x, mask), wo.w, wo.b, self.norm1.gamma,
                          self.norm1.beta, mask, rate, rng, zero_inner=True)
        h = feed_forward(h, up.w, up.b, down.w, down.b, self.norm2.gamma, self.norm2.beta,
                         mask, rate, rng)
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
