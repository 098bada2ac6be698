"""Optimizer.

ScheduleFreeAdamW keeps two iterates per parameter (a fast iterate z and a
running average x) and evaluates gradients at an interpolation y between
them, which removes the need for a learning-rate schedule. Weight decay is
decoupled from the gradient moments.

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
        self.named_params = list(named_params)
        self.lr = float(lr)
        self.t = 0
        self.rejected = 0
        # decay only matrix-shaped weights; biases, norm scales and
        # distribution parameters stay unregularized
        self.decay_mask = {name: p.data.ndim >= 2 for name, p in self.named_params}
        self.warmup_steps = int(warmup_steps)
        self.z = [p.data.copy() for _, p in self.named_params]
        self.x = [p.data.copy() for _, p in self.named_params]
        self.v = [np.zeros_like(p.data) for _, p in self.named_params]
        self.weight_sum = 0.0
        self._in_train_mode = True  # params start at y == x == z

    def _gather_grads(self):
        grads = []
        for name, p in self.named_params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                self.rejected += 1
                return None
            grads.append(g)
        total = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads))
        if total > CLIP_NORM:
            grads = [g * (CLIP_NORM / total) for g in grads]
        return grads

    def train_mode(self):
        """Write the gradient-evaluation point y into the parameters."""
        for (name, p), z, x in zip(self.named_params, self.z, self.x):
            p.data = BETA1 * x + (1.0 - BETA1) * z
        self._in_train_mode = True

    def eval_mode(self):
        """Write the averaged iterate x into the parameters."""
        for (name, p), x in zip(self.named_params, self.x):
            p.data = x.copy()
        self._in_train_mode = False

    def step(self) -> bool:
        if not self._in_train_mode:
            self.train_mode()
        grads = self._gather_grads()
        if grads is None:
            return False
        self.t += 1
        warm = min(1.0, self.t / self.warmup_steps) if self.warmup_steps > 0 else 1.0
        # second-moment bias correction folded into the step size
        lr_t = self.lr * warm * math.sqrt(1.0 - BETA2 ** self.t)
        for i, ((name, p), g) in enumerate(zip(self.named_params, grads)):
            y = p.data
            self.v[i] = BETA2 * self.v[i] + (1.0 - BETA2) * g * g
            denom = np.sqrt(self.v[i]) + EPS
            self.z[i] -= lr_t * g / denom
            if WEIGHT_DECAY > 0.0 and self.decay_mask[name]:
                self.z[i] -= lr_t * WEIGHT_DECAY * y
        weight = lr_t ** 2
        self.weight_sum += weight
        c = weight / self.weight_sum
        for i, (name, p) in enumerate(self.named_params):
            self.x[i] = (1.0 - c) * self.x[i] + c * self.z[i]
            p.data = BETA1 * self.x[i] + (1.0 - BETA1) * self.z[i]
        for name, p in self.named_params:
            if not np.all(np.isfinite(p.data)):
                raise NumericError(f"parameter {name} became non-finite after optimizer step")
        return True

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {"t": np.array([self.t], dtype=np.int64),
               "weight_sum": np.array([self.weight_sum], dtype=np.float64)}
        for i, (name, _) in enumerate(self.named_params):
            out[f"z.{name}"] = self.z[i]
            out[f"x.{name}"] = self.x[i]
            out[f"v.{name}"] = self.v[i]
        return out

    def load_state(self, arrays: dict[str, np.ndarray]):
        """Restore from exactly the arrays state_arrays() gives, shapes included."""
        check_arrays("optimizer state", arrays,
                     {name: a.shape for name, a in self.state_arrays().items()})
        self.t = int(arrays["t"][0])
        self.weight_sum = float(arrays["weight_sum"][0])
        for i, (name, p) in enumerate(self.named_params):   # copies in p's dtype
            self.z[i] = arrays[f"z.{name}"].astype(p.data.dtype)
            self.x[i] = arrays[f"x.{name}"].astype(p.data.dtype)
            self.v[i] = arrays[f"v.{name}"].astype(p.data.dtype)
        self.train_mode()
