"""End-to-end inference for one dataset: summarize, draw, optionally
reweight by importance sampling, attach (optionally conformal-adjusted)
credible intervals, and map everything back to the data scale.

There is one inference path: `infer_one`, `mixedflow evaluate` and
`refine.calibrate` all draw through `posterior_draws`, the only code that
runs the posterior and importance sampling (IS) and checks the refinement
mode, so a conformal table is fit on the draws it is applied to.

Interval borders stay (alpha, component, 2) arrays until `infer_one`
returns them as a dict per alpha with the keys "global_std", "global",
"local_std" and "local": one [lo, hi] pair per global component, and per
group and random effect for the local ones (None without random effects),
in standardized and in data-scale units. The draw record
(`io.draws_to_record`) stores that dict as it is.

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

__all__ = ["REFINE_MODES", "infer_one", "posterior_draws", "intervals_to_data_scale"]

REFINE_MODES = ("none", "is", "conformal", "both")


def infer_one(model: PosteriorModel, ds: HierDataset, k: int,
              rng: np.random.Generator, refine: str = "none",
              table: ConformalTable | None = None,
              prior: PriorSpec | None = None,
              alphas: tuple[float, ...] = ALPHA_GRID,
              is_rounds: int = 3, likelihood: str = "conditional"
              ) -> tuple[PosteriorDraws, dict]:
    """Returns (draws, intervals) where intervals maps each alpha to the
    border table in standardized and data-scale units (format in the
    module docstring)."""
    conformal = refine in ("conformal", "both")
    if conformal and table is None:
        raise ConfigError("conformal refinement needs a calibration table")
    draws = posterior_draws(model, ds, k, rng, refine, prior, is_rounds, likelihood)
    std = apply_calibration(draws, table if conformal else None, alphas)
    data = intervals_to_data_scale(draws, std)

    def rows(borders, a):
        return None if borders is None else borders[a].tolist()

    return draws, {alpha: {"global_std": rows(std[0], a), "global": rows(data[0], a),
                           "local_std": rows(std[1], a), "local": rows(data[1], a)}
                   for a, alpha in enumerate(alphas)}


def posterior_draws(model: PosteriorModel, ds: HierDataset, k: int,
                    rng: np.random.Generator, refine: str = "none",
                    prior: PriorSpec | None = None, is_rounds: int = 3,
                    likelihood: str = "conditional") -> PosteriorDraws:
    """The model's k draws for `ds`, importance-reweighted for the "is" and
    "both" modes under the data-scale `prior` (the dataset's recorded one
    when None). IS works in the space the draws live in: standardizing
    models use the exact joint prior of the standardized fixed effects,
    the others the independent normal one; models with known noise fix it
    at the prior's noise scale."""
    if refine not in REFINE_MODES:
        raise ConfigError(f"unknown refinement mode {refine!r}")
    draws = model.posterior(ds, k, rng, prior=prior)
    if refine not in ("is", "both"):
        return draws
    prior = prior if prior is not None else ds.truth.prior
    ds_s, prior_std, beta_mean_cov = ds, prior, None
    if model.cfg.standardize:
        ds_s, rec = standardize_data(ds)
        prior_std = standardize_prior(prior, rec)
        beta_mean_cov = standardized_beta_prior(prior, rec)
    known = None if model.cfg.infer_noise else prior_std.tau_eps
    return alternating_refine(ds_s, prior_std, draws, rounds=is_rounds,
                              likelihood=likelihood, known_sigma_eps=known,
                              beta_mean_cov=beta_mean_cov)


def intervals_to_data_scale(draws: PosteriorDraws, borders
                            ) -> tuple[np.ndarray, np.ndarray | None]:
    """Map the standardized borders of `apply_calibration`, global
    (A, p_global, 2) and local (A, m, q, 2) or None, to the data scale
    for every alpha at once (plug-in posterior means where the inverse
    mixes components)."""
    b_global, b_local = borders
    rec, d, q = draws.rec, draws.d, draws.q
    g_mean = draws.global_mean(data_scale=True)
    slope = (rec.sigma_y / rec.sigma_x[1:])[:, None]

    out = np.empty_like(b_global)
    out[:, 0] = b_global[:, 0] * rec.sigma_y + (rec.mu_y - g_mean[1:d] @ rec.mu_x[1:])
    out[:, 1:d] = b_global[:, 1:d] * slope
    if q:
        rest = np.sum(rec.mu_x[1:q] ** 2 * g_mean[d + 1:d + q] ** 2)
        # float_power squares through pow() like Python's ** on one float;
        # x * x can differ from it in the last bit
        scaled = np.float_power(np.maximum(b_global[:, d], 0.0) * rec.sigma_y, 2)
        out[:, d] = np.sqrt(np.maximum(scaled - rest, 0.0))
        out[:, d + 1:d + q] = b_global[:, d + 1:d + q] * slope[:q - 1]
    out[:, d + q:] = b_global[:, d + q:] * rec.sigma_y  # noise std dev
    if b_local is None:
        return out, None

    a_mean = draws.local_mean(data_scale=True)
    out_local = b_local * np.concatenate([[rec.sigma_y], slope[:q - 1, 0]])[:, None]
    # one dot product per group: a matrix-vector product sums in another
    # order and moves the intercepts in the last bits for q >= 3
    out_local[..., 0, :] -= np.array([row @ rec.mu_x[1:q] for row in a_mean[:, 1:]])[:, None]
    return out, out_local
