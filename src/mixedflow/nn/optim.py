"""Optimizer.

ScheduleFreeAdamW keeps two iterates per parameter (a fast iterate z and a
running average x) and evaluates gradients at an interpolation y between
them, which removes the need for a learning-rate schedule. Weight decay is
decoupled from the gradient moments. Each of y, z, x and the second
moment v is one flat array over all parameters, so a step is a few
whole-array ufuncs, and the parameters are views of y: rebinding a
parameter's `.data` after the optimizer is built detaches it.

Steps with non-finite gradients are rejected (counted, parameters left
untouched) rather than poisoning the weights.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, NumericError
from .checkpoint import check_arrays
from .tensor import Tensor

__all__ = ["ScheduleFreeAdamW"]

BETA1, BETA2 = 0.9, 0.999   # interpolation / averaging weight and second-moment decay
EPS = 1e-8                  # added to the root second moment
WEIGHT_DECAY = 1e-2         # decoupled, on matrix-shaped weights only
CLIP_NORM = 10.0            # global gradient norm cap (math.inf: no clipping)


class ScheduleFreeAdamW:
    """Schedule-free variant: gradient at y = BETA1*x + (1-BETA1)*z,
    fast iterate z gets the Adam-style step, x is the weighted average of
    the z trajectory and is what evaluation should use."""

    def __init__(self, named_params: list[tuple[str, Tensor]], lr: float = 1e-3,
                 warmup_steps: int = 0):
        if not named_params:
            raise ConfigError("optimizer needs at least one parameter")
        self.names, self.params = [n for n, _ in named_params], [p for _, p in named_params]
        dtype = self.params[0].data.dtype
        for name, p in named_params:
            if p.data.dtype != dtype:
                raise ConfigError(f"optimizer parameters must share one dtype: {name} is "
                                  f"{p.data.dtype}, {self.names[0]} is {dtype}")
        self.lr, self.warmup_steps = float(lr), int(warmup_steps)
        self.t, self.rejected, self.weight_sum = 0, 0, 0.0
        self.grad_norm = math.nan   # global gradient norm of the last applied step, unclipped
        self._shapes = [p.data.shape for p in self.params]
        self._offsets = np.cumsum([p.data.size for p in self.params])[:-1]
        self.y = np.concatenate([p.data.reshape(-1) for p in self.params])
        for p, view in zip(self.params, self._views(self.y)):
            p.data = view
        # decay only matrix-shaped weights; biases, norm scales and
        # distribution parameters stay unregularized
        self.decay = np.concatenate([np.full(p.data.size, p.data.ndim >= 2) for p in self.params])
        self.z, self.x, self.v = self.y.copy(), self.y.copy(), np.zeros_like(self.y)
        self._in_train_mode = True  # params start at y == x == z

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Each parameter's segment of a flat state, in its shape."""
        return [s.reshape(shape) for s, shape in zip(np.split(flat, self._offsets), self._shapes)]

    def train_mode(self):
        """Write the gradient-evaluation point y into the parameters."""
        np.add(BETA1 * self.x, (1.0 - BETA1) * self.z, out=self.y)
        self._in_train_mode = True

    def eval_mode(self):
        """Write the averaged iterate x into the parameters."""
        np.copyto(self.y, self.x)
        self._in_train_mode = False

    def step(self) -> bool:
        if not self._in_train_mode:
            self.train_mode()
        g = np.concatenate([p.grad.reshape(-1) if p.grad is not None else
                            np.zeros(p.data.size, p.data.dtype) for p in self.params])
        if not np.isfinite(g).all():
            self.rejected += 1
            return False
        # summed per parameter in float64, in parameter order: the clip
        # factor, and with it every bit of the step, depends on that order
        self.grad_norm = math.sqrt(sum(float((s.astype(np.float64) ** 2).sum())
                                       for s in self._views(g)))
        if self.grad_norm > CLIP_NORM:
            g *= CLIP_NORM / self.grad_norm
        self.t += 1
        warm = min(1.0, self.t / self.warmup_steps) if self.warmup_steps > 0 else 1.0
        # second-moment bias correction folded into the step size
        lr_t = self.lr * warm * math.sqrt(1.0 - BETA2 ** self.t)
        np.add(BETA2 * self.v, (1.0 - BETA2) * g * g, out=self.v)
        self.z -= lr_t * g / (np.sqrt(self.v) + EPS)
        if WEIGHT_DECAY > 0.0:
            np.subtract(self.z, lr_t * WEIGHT_DECAY * self.y, out=self.z, where=self.decay)
        self.weight_sum += lr_t ** 2
        c = lr_t ** 2 / self.weight_sum
        np.add((1.0 - c) * self.x, c * self.z, out=self.x)
        self.train_mode()
        if not np.isfinite(self.y).all():
            name = next(n for n, s in zip(self.names, self._views(self.y))
                        if not np.isfinite(s).all())
            raise NumericError(f"parameter {name} became non-finite after optimizer step")
        return True

    def state_arrays(self) -> dict[str, np.ndarray]:
        """t, weight_sum, then z, x and v of each parameter (views, in its shape)."""
        out = {"t": np.array([self.t], dtype=np.int64),
               "weight_sum": np.array([self.weight_sum], dtype=np.float64)}
        for name, z, x, v in zip(self.names, *map(self._views, (self.z, self.x, self.v))):
            out[f"z.{name}"], out[f"x.{name}"], out[f"v.{name}"] = z, x, v
        return out

    def load_state(self, arrays: dict[str, np.ndarray]):
        """Restore from exactly the arrays state_arrays() gives, shapes included."""
        state = self.state_arrays()
        check_arrays("optimizer state", arrays, {name: a.shape for name, a in state.items()})
        self.t, self.weight_sum = int(arrays["t"][0]), float(arrays["weight_sum"][0])
        for name, view in list(state.items())[2:]:   # cast to the parameters' dtype
            np.copyto(view, arrays[name])
        self.train_mode()
