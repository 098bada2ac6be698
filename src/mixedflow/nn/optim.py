"""Optimizer.

ScheduleFreeAdamW keeps two iterates per parameter (a fast iterate z and a
running average x) and evaluates gradients at an interpolation y between
them, which removes the need for a learning-rate schedule. Weight decay is
decoupled from the gradient moments.

Steps with non-finite gradients are rejected (counted, parameters left
untouched) rather than poisoning the weights.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, NumericError
from .checkpoint import check_arrays
from .tensor import Tensor

__all__ = ["ScheduleFreeAdamW"]


class ScheduleFreeAdamW:
    """Schedule-free variant: gradient at y = beta1*x + (1-beta1)*z,
    fast iterate z gets the Adam-style step, x is the weighted average of
    the z trajectory and is what evaluation should use."""

    def __init__(self, named_params: list[tuple[str, Tensor]], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 1e-2, warmup_steps: int = 0,
                 clip_norm: float | None = 10.0):
        if not named_params:
            raise ConfigError("optimizer needs at least one parameter")
        self.named_params = list(named_params)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.clip_norm = clip_norm
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
        if self.clip_norm is not None:
            total = np.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads))
            if total > self.clip_norm:
                scale = self.clip_norm / total
                grads = [g * scale for g in grads]
        return grads

    def train_mode(self):
        """Write the gradient-evaluation point y into the parameters."""
        for (name, p), z, x in zip(self.named_params, self.z, self.x):
            p.data = self.beta1 * x + (1.0 - self.beta1) * z
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
        lr_t = self.lr * warm * np.sqrt(1.0 - self.beta2 ** self.t)
        for i, ((name, p), g) in enumerate(zip(self.named_params, grads)):
            y = p.data
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            denom = np.sqrt(self.v[i]) + self.eps
            self.z[i] -= lr_t * g / denom
            if self.weight_decay > 0.0 and self.decay_mask[name]:
                self.z[i] -= lr_t * self.weight_decay * y
        weight = lr_t ** 2
        self.weight_sum += weight
        c = weight / self.weight_sum
        for i, (name, p) in enumerate(self.named_params):
            self.x[i] = (1.0 - c) * self.x[i] + c * self.z[i]
            p.data = self.beta1 * self.x[i] + (1.0 - self.beta1) * self.z[i]
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
        for i, (name, _) in enumerate(self.named_params):
            self.z[i] = arrays[f"z.{name}"].copy()
            self.x[i] = arrays[f"x.{name}"].copy()
            self.v[i] = arrays[f"v.{name}"].copy()
        self.train_mode()
