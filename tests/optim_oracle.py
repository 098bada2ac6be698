"""Per-parameter reference for the schedule-free AdamW optimizer.

`ScheduleFreeAdamW` as it was written when z, x and v were lists of
per-parameter arrays and each step looped over them in Python. It is kept
only as the oracle that the flat-buffer optimizer in `mixedflow.nn.optim`
must reproduce bit for bit: parameters, state arrays and rejections. The
module constants (`BETA1`, `CLIP_NORM`, ...) are read from
`mixedflow.nn.optim` at call time, so a test that patches them patches
both optimizers.
"""

import math

import numpy as np

from mixedflow.errors import NumericError
from mixedflow.nn import optim


class ScheduleFreeAdamW:
    def __init__(self, named_params, lr=1e-3, warmup_steps=0):
        self.named_params = list(named_params)
        self.lr = float(lr)
        self.t = 0
        self.rejected = 0
        self.decay_mask = {name: p.data.ndim >= 2 for name, p in self.named_params}
        self.warmup_steps = int(warmup_steps)
        self.z = [p.data.copy() for _, p in self.named_params]
        self.x = [p.data.copy() for _, p in self.named_params]
        self.v = [np.zeros_like(p.data) for _, p in self.named_params]
        self.weight_sum = 0.0
        self._in_train_mode = True

    def _gather_grads(self):
        grads = []
        for name, p in self.named_params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                self.rejected += 1
                return None
            grads.append(g)
        total = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads))
        if total > optim.CLIP_NORM:
            grads = [g * (optim.CLIP_NORM / total) for g in grads]
        return grads

    def train_mode(self):
        for (name, p), z, x in zip(self.named_params, self.z, self.x):
            p.data = optim.BETA1 * x + (1.0 - optim.BETA1) * z
        self._in_train_mode = True

    def eval_mode(self):
        for (name, p), x in zip(self.named_params, self.x):
            p.data = x.copy()
        self._in_train_mode = False

    def step(self):
        if not self._in_train_mode:
            self.train_mode()
        grads = self._gather_grads()
        if grads is None:
            return False
        self.t += 1
        warm = min(1.0, self.t / self.warmup_steps) if self.warmup_steps > 0 else 1.0
        lr_t = self.lr * warm * math.sqrt(1.0 - optim.BETA2 ** self.t)
        for i, ((name, p), g) in enumerate(zip(self.named_params, grads)):
            y = p.data
            self.v[i] = optim.BETA2 * self.v[i] + (1.0 - optim.BETA2) * g * g
            denom = np.sqrt(self.v[i]) + optim.EPS
            self.z[i] -= lr_t * g / denom
            if optim.WEIGHT_DECAY > 0.0 and self.decay_mask[name]:
                self.z[i] -= lr_t * optim.WEIGHT_DECAY * y
        weight = lr_t ** 2
        self.weight_sum += weight
        c = weight / self.weight_sum
        for i, (name, p) in enumerate(self.named_params):
            self.x[i] = (1.0 - c) * self.x[i] + c * self.z[i]
            p.data = optim.BETA1 * self.x[i] + (1.0 - optim.BETA1) * self.z[i]
        for name, p in self.named_params:
            if not np.all(np.isfinite(p.data)):
                raise NumericError(f"parameter {name} became non-finite after optimizer step")
        return True

    def state_arrays(self):
        out = {"t": np.array([self.t], dtype=np.int64),
               "weight_sum": np.array([self.weight_sum], dtype=np.float64)}
        for i, (name, _) in enumerate(self.named_params):
            out[f"z.{name}"] = self.z[i]
            out[f"x.{name}"] = self.x[i]
            out[f"v.{name}"] = self.v[i]
        return out

    def load_state(self, arrays):
        self.t = int(arrays["t"][0])
        self.weight_sum = float(arrays["weight_sum"][0])
        for i, (name, p) in enumerate(self.named_params):
            self.z[i] = arrays[f"z.{name}"].astype(p.data.dtype)
            self.x[i] = arrays[f"x.{name}"].astype(p.data.dtype)
            self.v[i] = arrays[f"v.{name}"].astype(p.data.dtype)
        self.train_mode()
