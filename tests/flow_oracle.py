"""The flow samplers as they were before both became entry points over one
inverse pass: `sample` ran `CouplingFlow.inverse` on k flat rows, and
`sample_grouped` either repeated each condition row k times through
`sample` or, for one-dimensional flows, ran the inverse couplings again in
numpy on one condition row per group. Kept as the oracle that the package's
samplers must reproduce byte for byte.

A shared condition row stays one (1, cond_dim) row that the inverse pass
broadcasts over the k draws, as the package's conditioners project a
condition once per condition row: a one-row projection and the same row
repeated k times differ in the last bit (gemv against gemm).
"""

import numpy as np

from mixedflow.errors import ConfigError, NumericError
from mixedflow.nn.tensor import Tensor, assert_finite


def sample(flow, cond, k, rng):
    dt = flow.base.loc.data.dtype
    cond = np.asarray(cond, dtype=dt)
    if cond.ndim == 1:
        cond = cond[None]
    elif cond.shape[0] != k:
        raise ConfigError(f"need one condition row per draw, got {cond.shape[0]} for k={k}")
    z = Tensor(flow.base.sample(k, rng).astype(dt))
    theta, logdet_inv = flow.inverse(z, Tensor(cond))
    log_q = flow.base.log_prob(z).data - logdet_inv.data
    assert_finite(theta, f"{flow.name} samples")
    return theta.data, log_q


def sample_grouped(flow, cond, k, rng):
    dt = flow.base.loc.data.dtype
    cond = np.atleast_2d(np.asarray(cond, dtype=dt))
    g = cond.shape[0]
    if flow.dim != 1:
        flat, log_q = sample(flow, np.repeat(cond, k, axis=0), g * k, rng)
        return flat.reshape(g, k, flow.dim), log_q.reshape(g, k)
    z = flow.base.sample(g * k, rng).reshape(g, k).astype(dt)
    theta = z.copy()
    logdet_inv = np.zeros((g, 1), dtype=dt)
    cond_t, passive = Tensor(cond), Tensor(np.zeros((g, 0), dtype=dt))
    for i in reversed(range(len(flow._plans))):
        s, t = flow.conditioners[i](passive, cond_t)
        theta = (theta - t.data) * np.exp(-s.data)
        logdet_inv = logdet_inv - s.data
        if not np.all(np.isfinite(theta)):
            raise NumericError(f"non-finite output in {flow.name} block {i} (inverse)")
    log_q = flow.base.log_prob(Tensor(z.reshape(g * k, 1))).data.reshape(g, k) - logdet_inv
    return theta[..., None], log_q
