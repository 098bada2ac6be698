"""Dense arrays with reverse-mode gradients.

A small tape: every differentiable op builds a result Tensor holding a
closure that scatters the incoming adjoint back to its parents. There is
no graph compiler and no in-place mutation of tracked values. Under
`no_grad`, `Tensor._make` keeps no closure, so nothing is saved for a
backward pass. `backward()` consumes the graph it sweeps: each interior
node drops its adjoint, its closure (with the arrays the closure saved)
and its parents once its closure has run, so only the leaves keep their
`.grad`. A second sweep through a consumed node raises NumericError.

The op set is what the layers, flows and losses of this package run, plus
`**` for the gradient checks: arithmetic, a few elementwise maps, sum and
mean, reshape, indexing, row scatter and `cat`. The layer ops (linear maps, layer norm, masked
attention, the end of an encoder sublayer, the feed-forward sublayer and the
masked mean) are fused single nodes in layers.py, each with a hand-written
backward that saves only what its docstring there lists. A new op comes in
with its first caller.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

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


# erf for float32: the Eigen/XLA rational form x·P(x²)/Q(x²) on x clamped to
# [-4, 4], where float32 erf is already ±1; within 5e-7 of the exact value.
_ERF32_P = np.array([-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
                     -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
                     -1.60960333262415e-02], dtype=np.float32)
_ERF32_Q = np.array([-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
                     -7.37332916720468e-03, -1.42647390514189e-02], dtype=np.float32)

# Stirling series of digamma: psi(x) ~ ln x - 1/(2x) - t·S(t), t = 1/x².
_DIGAMMA_S = [-691 / 32760, 1 / 132, -1 / 240, 1 / 252, -1 / 120, 1 / 12]


def _horner(coefs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The polynomial in t with coefs (highest power first), in one buffer."""
    out = coefs[0] * t
    for c in coefs[1:-1]:
        out += c
        out *= t
    out += coefs[-1]
    return out


_ERF64 = np.frompyfunc(math.erf, 1, 1)


def _erf(x: np.ndarray) -> np.ndarray:
    """erf elementwise in the dtype of x; NaN passes through. float64 (the
    gradient checks and oracles) is a Python loop over libm's erf."""
    if x.dtype == np.float32:
        x = np.clip(x, -4.0, 4.0, dtype=np.float32)
        t = x * x
        out = _horner(_ERF32_P, t)
        out /= _horner(_ERF32_Q, t)
        out *= x
        return out
    return np.asarray(_ERF64(x), dtype=np.float64)


def _lgamma(v: float) -> float:
    try:
        return math.lgamma(v)
    except ValueError:   # a pole: 0, -1, -2, ...
        return math.inf


_LGAMMA = np.frompyfunc(_lgamma, 1, 1)


def _gammaln(x: np.ndarray) -> np.ndarray:
    """log|Gamma(x)| elementwise in the dtype of x. A Python loop: the
    Student-t base calls it on vectors of a few entries."""
    return np.asarray(_LGAMMA(x), dtype=x.dtype)


def _digamma(x: np.ndarray) -> np.ndarray:
    """psi(x) elementwise for x > 0 (NaN elsewhere), in the dtype of x: the
    recurrence psi(x) = psi(x + 1) - 1/x up to x >= 10, then the Stirling
    series."""
    z = np.array(x, dtype=np.float64)
    z[z <= 0] = np.nan
    out = np.zeros_like(z)
    for _ in range(10):
        low = z < 10.0
        out[low] -= 1.0 / z[low]
        z[low] += 1.0
    t = 1.0 / (z * z)
    out += np.log(z) - 0.5 / z - t * np.polyval(_DIGAMMA_S, t)
    return out.astype(x.dtype, copy=False)


def _spent(g):
    raise NumericError("backward() through a graph an earlier backward() consumed")


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
        """Reverse-mode sweep from this tensor; accumulates into the leaves'
        .grad fields and consumes every interior node it passes."""
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
        while order:   # popped, so a node's arrays go as soon as its children are swept
            node = order.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _spent, ()

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

    def __pow__(self, exponent: float):
        if not np.isscalar(exponent):
            raise DimensionError("power supports scalar exponents only")
        out_data = self.data ** exponent

        def backward(g):
            self._accumulate(g * exponent * self.data ** (exponent - 1), owned=True)

        return Tensor._make(out_data, (self,), backward)

    # -- elementwise -------------------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def backward(g):
            self._accumulate(g * out_data, owned=True)

        return Tensor._make(out_data, (self,), backward)

    def log1p(self):
        def backward(g):
            self._accumulate(g / (1.0 + self.data), owned=True)

        return Tensor._make(np.log1p(self.data), (self,), backward)

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(g):
            self._accumulate(g * (1.0 - out_data * out_data), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def gammaln(self):
        def backward(g):
            self._accumulate(g * _digamma(self.data), owned=True)

        return Tensor._make(_gammaln(self.data), (self,), backward)

    def relu(self):
        out_data = np.maximum(self.data, 0)

        def backward(g):
            self._accumulate(g * (out_data > 0), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def gelu(self):
        """The erf gelu of Hendrycks & Gimpel (2016); float32 within 5e-7·max(1, |x|)."""
        x = self.data
        out_data = 0.5 * x * (1.0 + _erf(x / math.sqrt(2.0)))

        def backward(g):   # erf recomputed from x, so the node keeps x alone
            pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
            self._accumulate(g * (0.5 * (1.0 + _erf(x / math.sqrt(2.0))) + x * pdf), owned=True)

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
        count = self.data.size if axis is None else self.data.shape[axis]
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
