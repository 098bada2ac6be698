"""Dense arrays with reverse-mode gradients.

A small tape: every differentiable op builds a result Tensor holding a
closure that scatters the incoming adjoint back to its parents. The op set
is fixed to what the layers in this package need; there is no graph
compiler and no in-place mutation of tracked values. Under `no_grad`,
`Tensor._make` keeps no closure, so nothing is saved for a backward pass.

The ops here are the generic ones. The hot layer ops (linear maps, layer
norm and masked attention) are fused single nodes in layers.py, each with a
hand-written backward that saves no more than the forward already holds
(the inputs, plus x_hat and 1/sigma for layer norm and the attention
probabilities for attention). `softmax` stays as the generic fused
primitive.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
from scipy import special as _sp

from ..errors import DimensionError, NumericError

__all__ = ["Tensor", "as_tensor", "cat", "no_grad"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block (pure inference)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> tuple[np.ndarray, bool]:
    """Sum an adjoint back down to `shape` after numpy broadcasting.

    The second element reports whether the result is a fresh array the
    caller may donate to an accumulation buffer.
    """
    if grad.shape == shape:
        return grad, False
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape), True


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    # -- plumbing ----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray, owned: bool = False):
        """Add an adjoint. owned=True promises g is a fresh array (or a
        writable view whose buffer no later accumulation can touch), which
        lets the first accumulation take it without copying."""
        if self.grad is None:
            if owned and g.dtype == self.data.dtype and g.shape == self.data.shape \
                    and g.flags.writeable:
                self.grad = g
            else:
                self.grad = np.array(np.broadcast_to(g, self.data.shape), dtype=self.data.dtype)
        else:
            self.grad += g

    @staticmethod
    def _make(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def backward(self, grad: np.ndarray | None = None):
        """Reverse-mode sweep from this tensor; accumulates into .grad fields."""
        if not self.requires_grad:
            raise NumericError("backward() called on a tensor that is not on the tape")
        if grad is None:
            if self.data.size != 1:
                raise DimensionError("backward() without an adjoint requires a scalar output")
            grad = np.ones_like(self.data)
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other, self.dtype)
        out_data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(*_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(*_unbroadcast(g, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            self._accumulate(-g, owned=True)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-as_tensor(other, self.dtype))

    def __rsub__(self, other):
        return as_tensor(other, self.dtype) + (-self)

    def __mul__(self, other):
        other = as_tensor(other, self.dtype)
        out_data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape)[0], owned=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape)[0], owned=True)

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other, self.dtype)
        out_data = self.data / other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.data.shape)[0], owned=True)
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data * other.data), other.data.shape)[0],
                    owned=True)

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other):
        return as_tensor(other, self.dtype) / self

    def __pow__(self, exponent: float):
        if not np.isscalar(exponent):
            raise DimensionError("power supports scalar exponents only")
        out_data = self.data ** exponent

        def backward(g):
            self._accumulate(g * exponent * self.data ** (exponent - 1), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other):
        other = as_tensor(other, self.dtype)
        a, b = self.data, other.data
        if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
            raise DimensionError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
        out_data = a @ b

        def backward(g):
            if self.requires_grad:
                if b.ndim == 1:
                    ga = np.multiply.outer(g, b) if g.ndim else g * b
                else:
                    ga = g @ b.swapaxes(-1, -2)
                self._accumulate(_unbroadcast(ga, a.shape)[0], owned=True)
            if other.requires_grad:
                if a.ndim == 1:
                    gb = np.multiply.outer(a, g) if g.ndim else a * g
                else:
                    gb = a.swapaxes(-1, -2) @ g
                other._accumulate(_unbroadcast(gb, b.shape)[0], owned=True)

        return Tensor._make(out_data, (self, other), backward)

    # -- elementwise -------------------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def backward(g):
            self._accumulate(g * out_data, owned=True)

        return Tensor._make(out_data, (self,), backward)

    def log(self):
        def backward(g):
            self._accumulate(g / self.data, owned=True)

        return Tensor._make(np.log(self.data), (self,), backward)

    def log1p(self):
        def backward(g):
            self._accumulate(g / (1.0 + self.data), owned=True)

        return Tensor._make(np.log1p(self.data), (self,), backward)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(g):
            self._accumulate(g * 0.5 / out_data, owned=True)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(g):
            self._accumulate(g * (1.0 - out_data * out_data), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def erf(self):
        out_data = _sp.erf(self.data)
        c = 2.0 / math.sqrt(math.pi)

        def backward(g):
            self._accumulate(g * c * np.exp(-self.data * self.data), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def gammaln(self):
        def backward(g):
            self._accumulate(g * _sp.digamma(self.data), owned=True)

        return Tensor._make(_sp.gammaln(self.data), (self,), backward)

    def relu(self):
        keep = self.data > 0

        def backward(g):
            self._accumulate(g * keep, owned=True)

        return Tensor._make(self.data * keep, (self,), backward)

    def gelu(self):
        """Exact erf-based gelu."""
        x = self.data
        inner = _sp.erf(x / math.sqrt(2.0))
        out_data = 0.5 * x * (1.0 + inner)

        def backward(g):
            pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
            self._accumulate(g * (0.5 * (1.0 + inner) + x * pdf), owned=True)

        return Tensor._make(out_data, (self,), backward)

    # -- reductions / shaping ------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        count = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.data.shape

        def backward(g):
            # a reshaped view of the child's adjoint is safe to donate: the
            # child has already consumed its adjoint by the time any later
            # accumulation writes through this view
            self._accumulate(g.reshape(orig), owned=True)

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, axes: tuple[int, ...]):
        inverse = np.argsort(axes)

        def backward(g):
            self._accumulate(g.transpose(inverse), owned=True)

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    def swapaxes(self, a: int, b: int):
        def backward(g):
            self._accumulate(g.swapaxes(a, b), owned=True)

        return Tensor._make(self.data.swapaxes(a, b), (self,), backward)

    def __getitem__(self, idx):
        out_data = self.data[idx]
        parts = idx if isinstance(idx, tuple) else (idx,)
        basic = all(isinstance(p, (slice, int, type(Ellipsis), type(None))) for p in parts)

        def backward(g):
            full = np.zeros_like(self.data)
            if basic:
                # basic indexing cannot alias, so in-place add is exact
                full[idx] += g
            else:
                np.add.at(full, idx, g)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    def softmax(self, axis: int = -1):
        """Numerically stable softmax as a fused primitive."""
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out_data = e / e.sum(axis=axis, keepdims=True)

        def backward(g):
            inner = (g * out_data).sum(axis=axis, keepdims=True)
            self._accumulate(out_data * (g - inner))

        return Tensor._make(out_data, (self,), backward)

    def scatter_rows(self, idx: np.ndarray, total: int):
        """Place these rows at unique indices inside `total` zero rows."""
        idx = np.asarray(idx, dtype=np.intp)
        out_data = np.zeros((total,) + self.data.shape[1:], dtype=self.data.dtype)
        out_data[idx] = self.data

        def backward(g):
            self._accumulate(g[idx])

        return Tensor._make(out_data, (self,), backward)


def as_tensor(value, dtype=None) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def cat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along `axis`, splitting the adjoint back on the way down."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

    return Tensor._make(out_data, tuple(tensors), backward)


def assert_finite(x, what: str):
    """Raise NumericError naming `what` if any entry is non-finite."""
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    if not np.all(np.isfinite(data)):
        raise NumericError(f"non-finite values in {what}")
