"""Posterior draw containers and weighted-quantile interval machinery.

Draws live in standardized space (where the networks operate) together
with the standardization record needed to map anything back to the data
scale. Weights, when present, are self-normalized so they average to one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .simulate import GlobalParams
from .standardize import (StandardizationRecord, unstandardize_global_draws,
                          unstandardize_local_draws)

__all__ = ["PosteriorDraws", "weighted_quantile"]


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

    @property
    def layout(self) -> list[tuple[str, str]]:
        """(name, role) of each global component (`GlobalParams.layout`)."""
        return GlobalParams.layout(self.d, self.q, self.infer_noise)

    def param_names(self) -> list[str]:
        return [name for name, _ in self.layout]

    def by_role(self, g: np.ndarray, local: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Split a global array (..., p_global) into its "fixed" and
        "variance" components (a role without components is left out)
        and, with random effects, add a local array (..., m, q) as
        "random", flattened to (..., m * q)."""
        roles = [role for _, role in self.layout]
        out = {r: g[..., np.array(roles) == r] for r in dict.fromkeys(roles)}
        if self.q and local is not None:
            out["random"] = local.reshape(*local.shape[:-2], -1)
        return out

    # -- weighted statistics on the data scale --------------------------------

    def global_mean(self) -> np.ndarray:
        w = self.weights if self.weights is not None else np.ones(self.k)
        draws = unstandardize_global_draws(self.global_std, self.d, self.q, self.rec,
                                           self.infer_noise)
        return (draws * w[:, None]).sum(axis=0) / w.sum()

    def local_mean(self) -> np.ndarray:
        if self.local_std is None:
            raise ConfigError("no local draws present")
        w = self.local_weights if self.local_weights is not None else np.ones((self.k, self.m))
        draws = unstandardize_local_draws(self.local_std, self.q, self.rec)
        return np.einsum("kmq,km->mq", draws, w) / w.sum(axis=0)[:, None]

    def interval_borders(self, alphas) -> tuple[np.ndarray, np.ndarray | None]:
        """Equal-tailed (1 - alpha) interval borders in standardized space
        for every alpha at once: global (A, p_global, 2) and local
        (A, m, q, 2), or None without local draws. Each block of components
        is sorted by one argsort and every border comes from one
        interpolation per component, with the numbers of a weighted_quantile
        call per component and alpha."""
        alphas = np.asarray(alphas, dtype=np.float64)
        probs = np.concatenate([alphas / 2, 1 - alphas / 2])
        n_a = alphas.size

        def borders(values, weights):  # n rows of k draws → (A, n, 2)
            qs = _row_quantiles(values, probs, weights)
            return np.stack([qs[:, :n_a], qs[:, n_a:]], axis=-1).transpose(1, 0, 2)

        w, lw = self.weights, self.local_weights
        out_global = borders(self.global_std.T,
                             None if w is None else np.broadcast_to(w, self.global_std.T.shape))
        if self.local_std is None:
            return out_global, None
        # a group's weights serve each of its q components
        out_local = borders(self.local_std.reshape(self.k, -1).T,
                            None if lw is None else np.repeat(lw.T, self.q, axis=0))
        return out_global, out_local.reshape(n_a, self.m, self.q, 2)


def _row_quantiles(values: np.ndarray, probs: np.ndarray,
                   weights: np.ndarray | None) -> np.ndarray:
    """weighted_quantile(values[j], probs, weights[j]) for each row j of
    values (n, k), with weights (n, k) or None: (n, P). One argsort orders
    every row, and each row's cumulative sum and total run on contiguous
    rows as in weighted_quantile, so the numbers are bitwise the same. A row
    with a weight that is not positive goes through weighted_quantile."""
    rows = np.ascontiguousarray(values, dtype=np.float64)
    k, out = rows.shape[1], np.empty((rows.shape[0], probs.size))
    fast = np.arange(rows.shape[0])
    if weights is not None:
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        positive = np.all(weights > 0, axis=1)
        for j in np.flatnonzero(~positive):
            out[j] = weighted_quantile(rows[j], probs, weights[j])
        if not positive.all():
            fast = fast[positive]
            rows, weights = rows[fast], weights[fast]
    order = np.argsort(rows, axis=1)
    order += np.arange(0, order.size, k)[:, None]   # row j's positions, flat
    v = rows.take(order)
    if weights is None:   # unit weights: the running sums count, the total is k
        cum = np.broadcast_to((np.arange(1.0, k + 1) - 0.5) / k, v.shape)
    else:
        w = weights.take(order)
        cum = np.cumsum(w, axis=1) - 0.5 * w
        cum /= w.sum(axis=1, keepdims=True)
    for j, c, r in zip(fast, cum, v):
        out[j] = np.interp(probs, c, r, left=r[0], right=r[-1])
    return out
