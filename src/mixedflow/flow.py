"""Conditional affine coupling flow with a learnable location-scale
Student-t base.

The flow maps an unconstrained parameter vector to base space (forward)
and back (inverse), with the exact log-Jacobian accumulated as the sum of
log-scales. Each block shifts and scales one half of the dimensions with
a conditioner network fed by the other half plus the condition vector; the
halves alternate across blocks. One-dimensional flows degenerate to
condition-only transforms of their single coordinate, which keeps every
block invertible and still conditioning-aware.

Sampling is one inverse pass of (g, k, dim) base draws, for k draws per
condition row (`sample`, g = 1) or per group (`sample_grouped`). The
condition is projected once per condition row, the passive half once per
draw; a one-dimensional flow has no passive half, so its conditioners run
once per condition row.

Conditioner scale heads are squashed to the band (-SCALE_BOUND,
SCALE_BOUND) on the log scale and zero-initialized, so an untrained flow is
exactly the identity map.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericError
from .nn.layers import Linear, Module, dropout
from .nn.tensor import Tensor, assert_finite, cat

__all__ = ["CouplingFlow", "StudentTBase"]

SCALE_BOUND = 3.0   # bound on each block's log-scale
INIT_DF = 30.0      # initial base degrees of freedom: close to a Gaussian


class StudentTBase(Module):
    """Independent location-scale Student-t in each dimension; scale and
    degrees of freedom live on the log scale so they stay positive; df
    starts at INIT_DF."""

    def __init__(self, dim: int, dtype=np.float32):
        super().__init__()
        self.dim = dim
        self.loc = self.register("loc", Tensor(np.zeros(dim, dtype=dtype), requires_grad=True))
        self.log_scale = self.register("log_scale", Tensor(np.zeros(dim, dtype=dtype), requires_grad=True))
        self.log_df = self.register("log_df", Tensor(
            np.full(dim, math.log(INIT_DF), dtype=dtype), requires_grad=True))

    def log_prob(self, z: Tensor) -> Tensor:
        """Summed per-dimension log density, shape (batch,)."""
        df = self.log_df.exp()
        scale = self.log_scale.exp()
        u = (z - self.loc) / scale
        half = (df + 1.0) * 0.5
        logp = (half.gammaln() - (df * 0.5).gammaln()
                - 0.5 * (self.log_df + math.log(math.pi))
                - self.log_scale
                - half * (u * u / df).log1p())
        return logp.sum(axis=-1)

    def sample(self, k: int, rng: np.random.Generator) -> np.ndarray:
        df = np.exp(self.log_df.data.astype(np.float64))
        scale = np.exp(self.log_scale.data.astype(np.float64))
        draws = rng.standard_t(df, size=(k, self.dim))
        return self.loc.data + scale * draws


class _Conditioner(Module):
    """Three hidden feedforward layers with relu, skip connections and
    dropout, plus zero-initialized shift and bounded-scale heads. The
    first layer takes the passive half and the condition as two parts of
    one `linear`, so a condition shared by many draws is projected once."""

    def __init__(self, n_in: int, n_out: int, hidden: int, rng: np.random.Generator,
                 dropout_rate: float, dtype=np.float32):
        super().__init__()
        self.dropout_rate = dropout_rate
        self.l1 = self.register("l1", Linear(n_in, hidden, rng, dtype))
        self.l2 = self.register("l2", Linear(hidden, hidden, rng, dtype))
        self.l3 = self.register("l3", Linear(hidden, hidden, rng, dtype))
        self.shift = self.register("shift", Linear(hidden, n_out, rng, dtype, zero_init=True))
        self.scale = self.register("scale", Linear(hidden, n_out, rng, dtype, zero_init=True))

    def __call__(self, passive: Tensor, cond: Tensor,
                 rng: np.random.Generator | None = None) -> tuple[Tensor, Tensor]:
        if not self.training:
            rng = None
        h = dropout(self.l1((passive, cond)).relu(), self.dropout_rate, rng)
        h = dropout(self.l2(h).relu(), self.dropout_rate, rng) + h
        h = dropout(self.l3(h).relu(), self.dropout_rate, rng) + h
        t = self.shift(h)
        s = (self.scale(h) * (1.0 / SCALE_BOUND)).tanh() * SCALE_BOUND
        return s, t


class CouplingFlow(Module):
    def __init__(self, dim: int, cond_dim: int, rng: np.random.Generator,
                 blocks: int = 4, hidden: int = 128, dropout_rate: float = 0.01,
                 dtype=np.float32, name: str = "flow"):
        super().__init__()
        if dim < 1:
            raise ConfigError("flow dimension must be at least 1")
        self.dim = dim
        self.cond_dim = cond_dim
        self.name = name
        self.base = self.register("base", StudentTBase(dim, dtype))
        # split point: the extra dimension of an odd split goes first
        self.n_first = (dim + 1) // 2
        self._plans: list[tuple[slice, slice]] = []
        self.conditioners: list[_Conditioner] = []
        for i in range(blocks):
            if dim == 1:
                passive, active = slice(0, 0), slice(0, 1)
            elif i % 2 == 0:
                passive, active = slice(0, self.n_first), slice(self.n_first, dim)
            else:
                passive, active = slice(self.n_first, dim), slice(0, self.n_first)
            n_passive = passive.stop - passive.start
            n_active = active.stop - active.start
            cond_net = _Conditioner(n_passive + cond_dim, n_active, hidden, rng,
                                    dropout_rate, dtype)
            self.register(f"block{i}", cond_net)
            self.conditioners.append(cond_net)
            self._plans.append((passive, active))

    def forward(self, theta: Tensor, cond: Tensor,
                rng: np.random.Generator | None = None) -> tuple[Tensor, Tensor]:
        """Map parameters to base space; returns (z, logdet) with logdet
        the sum of log-scales over blocks, shape (batch,)."""
        z = theta
        logdet = None
        for i, (psl, asl) in enumerate(self._plans):
            passive, active = z[..., psl], z[..., asl]
            s, t = self.conditioners[i](passive, cond, rng)
            new_active = active * s.exp() + t
            z = cat([passive, new_active] if psl.start == 0 else [new_active, passive], axis=-1)
            contrib = s.sum(axis=-1)
            logdet = contrib if logdet is None else logdet + contrib
            if not np.all(np.isfinite(z.data)):
                raise NumericError(f"non-finite output in {self.name} block {i}")
        return z, logdet

    def inverse(self, z: Tensor, cond: Tensor) -> tuple[Tensor, Tensor]:
        """Map base-space points back to parameters; logdet is the log
        Jacobian determinant of this inverse map."""
        theta = z
        logdet = None
        for i in reversed(range(len(self._plans))):
            psl, asl = self._plans[i]
            passive, active = theta[..., psl], theta[..., asl]
            s, t = self.conditioners[i](passive, cond)
            new_active = (active - t) * (-s).exp()
            theta = cat([passive, new_active] if psl.start == 0 else [new_active, passive], axis=-1)
            contrib = (-s).sum(axis=-1)
            logdet = contrib if logdet is None else logdet + contrib
            if not np.all(np.isfinite(theta.data)):
                raise NumericError(f"non-finite output in {self.name} block {i} (inverse)")
        return theta, logdet

    def log_prob(self, theta: Tensor, cond: Tensor,
                 rng: np.random.Generator | None = None) -> Tensor:
        """Exact log density of unconstrained theta given cond, (batch,)."""
        z, logdet = self.forward(theta, cond, rng)
        return self.base.log_prob(z) + logdet

    def sample(self, cond: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """k draws per condition row. cond may be one row (shared) or
        (k, cond_dim); returns (draws (k, dim), log density (k,))."""
        cond = np.asarray(cond, dtype=self.base.loc.data.dtype)
        if cond.ndim == 1:
            cond = cond[None]
        elif cond.shape[0] != k:
            raise ConfigError(f"need one condition row per draw, got {cond.shape[0]} for k={k}")
        theta, log_q = self._sample(cond[None], k, rng)
        return theta[0], log_q[0]

    def sample_grouped(self, cond: np.ndarray, k: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """k draws for each of g condition rows: (draws (g, k, dim),
        log density (g, k))."""
        cond = np.atleast_2d(np.asarray(cond, dtype=self.base.loc.data.dtype))
        return self._sample(cond[:, None, :], k, rng)

    def _sample(self, cond: np.ndarray, k: int,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """The inverse pass of (g, k, dim) base draws under cond (g, 1 or k,
        cond_dim), which broadcasts over the draws."""
        g = cond.shape[0]
        z = Tensor(self.base.sample(g * k, rng).reshape(g, k, self.dim).astype(cond.dtype))
        theta, logdet_inv = self.inverse(z, Tensor(cond))
        log_q = self.base.log_prob(z).data - logdet_inv.data
        assert_finite(theta, f"{self.name} samples")
        return theta.data, log_q
