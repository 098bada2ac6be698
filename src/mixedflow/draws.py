"""Posterior draw containers and weighted-quantile interval machinery.

Draws live in standardized space (where the networks operate) together
with the standardization record needed to map anything back to the data
scale. Weights, when present, are self-normalized so they average to one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .standardize import (StandardizationRecord, unstandardize_global_draws,
                          unstandardize_local_draws)

__all__ = ["PosteriorDraws", "weighted_quantile", "global_param_names"]


def global_param_names(d: int, q: int, infer_noise: bool = True) -> list[str]:
    names = [f"beta[{j}]" for j in range(d)]
    names += [f"sigma[{j}]" for j in range(q)]
    if infer_noise:
        names.append("sigma_eps")
    return names


def weighted_quantile(values: np.ndarray, probs, weights: np.ndarray | None = None) -> np.ndarray:
    """Inclusive cumulative-weight interpolation quantiles.

    With unit weights this matches linear-interpolation empirical
    quantiles; all mass on one draw collapses every quantile onto it.
    """
    values = np.asarray(values, dtype=np.float64)
    probs = np.atleast_1d(np.asarray(probs, dtype=np.float64))
    if values.ndim != 1:
        raise DimensionError("weighted_quantile expects a 1-d value array")
    if weights is None:
        weights = np.ones_like(values)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != values.shape:
        raise DimensionError("weights must match values")
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ConfigError("weights must be nonnegative with positive total")
    # zero-weight draws carry no mass and must not anchor interpolation
    keep = weights > 0
    values, weights = values[keep], weights[keep]
    order = np.argsort(values)
    v = values[order]
    w = weights[order]
    cum = np.cumsum(w) - 0.5 * w
    cum /= w.sum()
    return np.interp(probs, cum, v, left=v[0], right=v[-1])


@dataclass
class PosteriorDraws:
    """k joint draws per parameter block, in standardized constrained
    space, with flow densities and optional self-normalized importance
    weights."""

    global_std: np.ndarray            # (k, d + q [+1])
    log_q_global: np.ndarray          # (k,)
    d: int
    q: int
    infer_noise: bool
    rec: StandardizationRecord
    local_std: np.ndarray | None = None     # (k, m, q)
    log_q_local: np.ndarray | None = None   # (k, m)
    weights: np.ndarray | None = None        # (k,), mean 1
    local_weights: np.ndarray | None = None  # (k, m), mean 1 per group
    dataset_id: str = ""

    @property
    def k(self) -> int:
        return self.global_std.shape[0]

    @property
    def m(self) -> int:
        return 0 if self.local_std is None else self.local_std.shape[1]

    @property
    def p_global(self) -> int:
        return self.d + self.q + (1 if self.infer_noise else 0)

    def param_names(self) -> list[str]:
        return global_param_names(self.d, self.q, self.infer_noise)

    # -- data-scale views ---------------------------------------------------

    def global_data(self) -> np.ndarray:
        return unstandardize_global_draws(self.global_std, self.d, self.q,
                                          self.rec, self.infer_noise)

    def local_data(self) -> np.ndarray:
        if self.local_std is None:
            raise ConfigError("no local draws present")
        return unstandardize_local_draws(self.local_std, self.q, self.rec)

    # -- weighted statistics --------------------------------------------------

    def global_mean(self, data_scale: bool = True) -> np.ndarray:
        w = self.weights if self.weights is not None else np.ones(self.k)
        draws = self.global_data() if data_scale else self.global_std
        return (draws * w[:, None]).sum(axis=0) / w.sum()

    def local_mean(self, data_scale: bool = True) -> np.ndarray:
        if self.local_std is None:
            raise ConfigError("no local draws present")
        w = self.local_weights if self.local_weights is not None else np.ones((self.k, self.m))
        draws = self.local_data() if data_scale else self.local_std
        return np.einsum("kmq,km->mq", draws, w) / w.sum(axis=0)[:, None]

    def interval_borders(self, alphas) -> tuple[np.ndarray, np.ndarray | None]:
        """Equal-tailed (1 - alpha) interval borders in standardized space
        for every alpha at once: global (A, p_global, 2) and local
        (A, m, q, 2), or None without local draws. Each component is
        sorted once and all its borders come from one interpolation, with
        the same numbers as a weighted_quantile call per alpha."""
        alphas = np.asarray(alphas, dtype=np.float64)
        probs = np.concatenate([alphas / 2, 1 - alphas / 2])
        n_a = alphas.size

        def borders(values, weights):
            qs = weighted_quantile(values, probs, weights)
            return np.stack([qs[:n_a], qs[n_a:]], axis=-1)        # (A, 2)

        out_global = np.stack([borders(self.global_std[:, j], self.weights)
                               for j in range(self.global_std.shape[1])], axis=1)
        if self.local_std is None:
            return out_global, None
        lw = self.local_weights
        out_local = np.array([[borders(self.local_std[:, i, j], None if lw is None else lw[:, i])
                               for j in range(self.q)] for i in range(self.m)])
        return out_global, out_local.reshape(self.m, self.q, n_a, 2).transpose(2, 0, 1, 3)
