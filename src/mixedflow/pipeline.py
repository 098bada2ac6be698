"""End-to-end inference for one dataset: summarize, draw, optionally
reweight by importance sampling, attach (optionally conformal-adjusted)
credible intervals, and map everything back to the data scale.

Interval borders move to the data scale through each component's monotone
unstandardization map; the components whose inverse mixes in other
parameters (intercepts, and the random-intercept std dev when random
slopes exist) use the posterior means of those parameters as plug-ins.
"""

from __future__ import annotations

import numpy as np

from .draws import PosteriorDraws
from .errors import ConfigError
from .model import PosteriorModel
from .refine import (ALPHA_GRID, ConformalTable, alternating_refine,
                     apply_calibration)
from .simulate import HierDataset, PriorSpec
from .standardize import (standardize_data, standardize_prior,
                          standardized_beta_prior)

__all__ = ["infer_one", "refine_draws", "intervals_to_data_scale"]


def infer_one(model: PosteriorModel, ds: HierDataset, k: int,
              rng: np.random.Generator, refine: str = "none",
              table: ConformalTable | None = None,
              prior: PriorSpec | None = None,
              alphas: tuple[float, ...] = ALPHA_GRID,
              is_rounds: int = 3, likelihood: str = "conditional"
              ) -> tuple[PosteriorDraws, dict]:
    """Returns (draws, intervals) where intervals maps each alpha to the
    border table in standardized and data-scale units."""
    if refine not in ("none", "is", "conformal", "both"):
        raise ConfigError(f"unknown refinement mode {refine!r}")
    if refine in ("conformal", "both") and table is None:
        raise ConfigError("conformal refinement needs a calibration table")
    prior_raw = prior
    if prior_raw is None:
        if ds.truth is None:
            raise ConfigError("no prior given and the dataset has no recorded one")
        prior_raw = ds.truth.prior

    draws = model.posterior(ds, k, rng, prior=prior_raw)

    if refine in ("is", "both"):
        draws = refine_draws(model, ds, draws, prior_raw, rounds=is_rounds,
                             likelihood=likelihood)

    use_table = table if refine in ("conformal", "both") else None
    intervals = {}
    for alpha, std in apply_calibration(draws, use_table, alphas).items():
        intervals[alpha] = {
            "alpha": alpha,
            "global_std": std["global"],
            "local_std": std["local"],
            **intervals_to_data_scale(draws, std),
        }
    return draws, intervals


def refine_draws(model: PosteriorModel, ds: HierDataset, draws: PosteriorDraws,
                 prior: PriorSpec, rounds: int = 3,
                 likelihood: str = "conditional") -> PosteriorDraws:
    """Importance-reweight the model's draws for `ds` under the data-scale
    `prior`, in the space the draws live in: the refinement set-up shared
    by inference and calibration. Standardizing models use the exact joint
    prior of the standardized fixed effects, the others the independent
    normal one; models with known noise fix it at the prior's noise scale."""
    ds_s, prior_std, beta_mean_cov = ds, prior, None
    if model.cfg.standardize:
        ds_s, rec = standardize_data(ds)
        prior_std = standardize_prior(prior, rec)
        beta_mean_cov = standardized_beta_prior(prior, rec)
    known = None if model.cfg.infer_noise else prior_std.tau_eps
    return alternating_refine(ds_s, prior_std, draws, rounds=rounds,
                              likelihood=likelihood, known_sigma_eps=known,
                              beta_mean_cov=beta_mean_cov)


def intervals_to_data_scale(draws: PosteriorDraws, std_intervals: dict) -> dict:
    """Map standardized interval borders to the data scale component by
    component (plug-in posterior means where the inverse mixes
    components)."""
    rec = draws.rec
    d, q = draws.d, draws.q
    g_mean = draws.global_mean(data_scale=True)
    beta_hat = g_mean[:d]
    sigma_hat = g_mean[d:d + q]

    def map_global(j, lo, hi):
        if j == 0:
            shift = rec.mu_y - (beta_hat[1:] @ rec.mu_x[1:] if d > 1 else 0.0)
            return lo * rec.sigma_y + shift, hi * rec.sigma_y + shift
        if j < d:
            s = rec.sigma_y / rec.sigma_x[j]
            return lo * s, hi * s
        if j == d and q >= 1:
            rest = float(np.sum(rec.mu_x[1:q] ** 2 * sigma_hat[1:] ** 2)) if q > 1 else 0.0
            f = lambda b: float(np.sqrt(max((max(b, 0.0) * rec.sigma_y) ** 2 - rest, 0.0)))
            return f(lo), f(hi)
        if j < d + q:
            s = rec.sigma_y / rec.sigma_x[j - d]
            return lo * s, hi * s
        return lo * rec.sigma_y, hi * rec.sigma_y  # noise std dev

    out_global = [tuple(map_global(j, lo, hi))
                  for j, (lo, hi) in enumerate(std_intervals["global"])]
    out_local = None
    if std_intervals["local"] is not None:
        a_mean = draws.local_mean(data_scale=True)
        out_local = []
        for i, per_group in enumerate(std_intervals["local"]):
            row = []
            for j, (lo, hi) in enumerate(per_group):
                if j == 0:
                    shift = -(a_mean[i, 1:] @ rec.mu_x[1:q] if q > 1 else 0.0)
                    row.append((lo * rec.sigma_y + shift, hi * rec.sigma_y + shift))
                else:
                    s = rec.sigma_y / rec.sigma_x[j]
                    row.append((lo * s, hi * s))
            out_local.append(row)
    return {"global": out_global, "local": out_local}
