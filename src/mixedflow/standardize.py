"""Z-standardization of observed data with matching analytic transforms of
the regression parameters.

Slope-related quantities rescale by sigma_x / sigma_y; intercepts absorb
the column means; the random-intercept std dev aggregates the covariance
of the mean-weighted random effects. Everything inverts exactly (the
random-intercept inverse uses the draw's own random-slope std devs), so
posterior draws can be mapped back to the data scale after sampling.

The constant intercept column is exempt from z-scoring. Zero-variance
columns get sigma = 1 and are flagged so downstream reports can mark the
matching slope unidentifiable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .simulate import GlobalParams, HierDataset, LocalParams, PriorSpec, Truth

__all__ = [
    "StandardizationRecord", "standardize_data", "standardize_params",
    "unstandardize_params", "standardize_prior", "standardized_beta_prior",
    "unstandardize_global_draws", "unstandardize_local_draws",
]


@dataclass
class StandardizationRecord:
    """Column means/stds of X (entry 0 is the intercept column, kept at
    mu=1, sigma=1) and the outcome moments, all over unmasked cells."""

    mu_x: np.ndarray
    sigma_x: np.ndarray
    mu_y: float
    sigma_y: float
    degenerate_x: np.ndarray
    degenerate_y: bool = False

    @property
    def d(self) -> int:
        return self.mu_x.shape[0]

    def to_json(self) -> dict:
        return {
            "mu_x": self.mu_x.tolist(),
            "sigma_x": self.sigma_x.tolist(),
            "mu_y": self.mu_y,
            "sigma_y": self.sigma_y,
            "degenerate_x": self.degenerate_x.astype(int).tolist(),
            "degenerate_y": bool(self.degenerate_y),
        }

    @classmethod
    def identity(cls, d: int) -> "StandardizationRecord":
        return cls(np.concatenate([[1.0], np.zeros(d - 1)]) if d else np.zeros(0),
                   np.ones(d), 0.0, 1.0, np.zeros(d, dtype=bool))


def standardize_data(ds: HierDataset, rec: StandardizationRecord | None = None
                     ) -> tuple[HierDataset, StandardizationRecord]:
    """Z-score the slope columns and the outcome with `rec`, or without it
    with the moments of `ds` over unmasked cells.

    Returns a new dataset (masks untouched, padding still zero) whose truth
    slot, when present, holds the correspondingly standardized parameters
    and noise, and the record. The identity record changes no bit of
    values whose squares are normal floats.
    """
    mask = ds.mask
    if rec is None:
        if int(mask.sum()) < 2:
            raise ConfigError("standardization needs at least two observations")
        rows = ds.X[mask]  # (n_total, d)
        mu_x = rows.mean(axis=0)
        sigma_x = rows.std(axis=0)
        degenerate = sigma_x < 1e-12
        sigma_x = np.where(degenerate, 1.0, sigma_x)
        # intercept column: exempt, recorded with its true mean 1
        mu_x[0], sigma_x[0] = 1.0, 1.0
        degenerate[0] = False
        yvals = ds.y[mask]
        mu_y = float(yvals.mean())
        sigma_y = float(yvals.std())
        degenerate_y = sigma_y < 1e-12
        if degenerate_y:
            sigma_y = 1.0
        rec = StandardizationRecord(mu_x, sigma_x, mu_y, sigma_y, degenerate, degenerate_y)

    X = ds.X.copy()
    for k in range(1, ds.d):
        X[:, :, k] = (ds.X[:, :, k] - rec.mu_x[k]) / rec.sigma_x[k] * mask
    y = (ds.y - rec.mu_y) / rec.sigma_y * mask

    truth = None
    if ds.truth is not None:
        gp_s, lp_s = standardize_params(ds.truth.global_params, ds.truth.local_params, rec)
        truth = Truth(standardize_prior(ds.truth.prior, rec), gp_s, lp_s,
                      ds.truth.noise / rec.sigma_y)
    return HierDataset(X=X, y=y, mask=mask, q=ds.q, truth=truth,
                       dataset_id=ds.dataset_id), rec


def standardize_params(gp: GlobalParams, lp: LocalParams,
                       rec: StandardizationRecord) -> tuple[GlobalParams, LocalParams]:
    """Map parameters into the space of the standardized data."""
    d = rec.d
    q = gp.sigma_alpha.shape[0]
    if gp.beta.shape[0] != d:
        raise DimensionError("record and parameters disagree on d")
    beta = np.empty(d)
    beta[1:] = gp.beta[1:] * rec.sigma_x[1:] / rec.sigma_y
    beta[0] = (gp.beta[0] + gp.beta[1:] @ rec.mu_x[1:] - rec.mu_y) / rec.sigma_y

    sigma_alpha = np.empty(q)
    alpha = np.empty_like(lp.alpha)
    if q >= 1:
        mu_z = rec.mu_x[:q].copy()  # mu_z[0] == 1 for the intercept column
        sigma_alpha[1:] = gp.sigma_alpha[1:] * rec.sigma_x[1:q] / rec.sigma_y
        sigma_alpha[0] = np.sqrt(np.sum(mu_z ** 2 * gp.sigma_alpha ** 2)) / rec.sigma_y
        alpha[:, 1:] = lp.alpha[:, 1:] * rec.sigma_x[1:q] / rec.sigma_y
        alpha[:, 0] = lp.alpha @ mu_z / rec.sigma_y
    sigma_eps = gp.sigma_eps / rec.sigma_y
    return GlobalParams(beta, sigma_alpha, sigma_eps), LocalParams(alpha)


def unstandardize_params(gp: GlobalParams, lp: LocalParams,
                         rec: StandardizationRecord) -> tuple[GlobalParams, LocalParams]:
    """Exact inverse of standardize_params: `unstandardize_global_draws`
    and `unstandardize_local_draws` applied to this one draw."""
    d, q = rec.d, gp.sigma_alpha.shape[0]
    g = unstandardize_global_draws(gp.vector(), d, q, rec)[0]
    return (GlobalParams(g[:d], g[d:d + q], g[d + q]),
            LocalParams(unstandardize_local_draws(lp.alpha, q, rec)))


def standardize_prior(prior: PriorSpec, rec: StandardizationRecord) -> PriorSpec:
    """Prior hyperparameters pushed into standardized space.

    Means and the random-effect and noise scales transform as the
    parameters themselves do (`standardize_params`); the intercept scale
    aggregates the independent slope-prior contributions in quadrature.
    """
    gp, _ = standardize_params(GlobalParams(prior.nu_beta, prior.tau_sigma, prior.tau_eps),
                               LocalParams(np.zeros((0, prior.q))), rec)
    tau_b = prior.tau_beta * rec.sigma_x / rec.sigma_y
    tau_b[0] = np.sqrt(prior.tau_beta[0] ** 2
                       + np.sum(rec.mu_x[1:] ** 2 * prior.tau_beta[1:] ** 2)) / rec.sigma_y
    return PriorSpec(gp.beta, tau_b, gp.sigma_alpha, gp.sigma_eps)


def standardized_beta_prior(prior: PriorSpec, rec: StandardizationRecord) -> tuple[np.ndarray, np.ndarray]:
    """Exact joint normal prior of the standardized fixed effects.

    The standardized vector is an affine image of independent normals, so
    the intercept entry is correlated with the slopes; returns (mean, cov).
    """
    d = prior.d
    A = np.zeros((d, d))
    A[0, 0] = 1.0 / rec.sigma_y
    if d > 1:
        A[0, 1:] = rec.mu_x[1:] / rec.sigma_y
        A[np.arange(1, d), np.arange(1, d)] = rec.sigma_x[1:] / rec.sigma_y
    c = np.zeros(d)
    c[0] = -rec.mu_y / rec.sigma_y
    mean = A @ prior.nu_beta + c
    cov = A @ np.diag(prior.tau_beta ** 2) @ A.T
    return mean, cov


def unstandardize_global_draws(draws: np.ndarray, d: int, q: int,
                               rec: StandardizationRecord,
                               has_noise: bool = True) -> np.ndarray:
    """Inverse transform for an array of global draws laid out as
    [beta (d), sigma_alpha (q), sigma_eps (1 if present)]."""
    draws = np.atleast_2d(np.asarray(draws, dtype=np.float64))
    out = np.empty_like(draws)
    beta = draws[:, :d]
    out[:, 1:d] = beta[:, 1:] * rec.sigma_y / rec.sigma_x[1:]
    out[:, 0] = beta[:, 0] * rec.sigma_y + rec.mu_y - out[:, 1:d] @ rec.mu_x[1:]
    if q >= 1:
        mu_z = rec.mu_x[:q]
        sig = draws[:, d:d + q]
        out[:, d + 1:d + q] = sig[:, 1:] * rec.sigma_y / rec.sigma_x[1:q]
        rest = out[:, d + 1:d + q] ** 2 @ (mu_z[1:] ** 2)
        out[:, d] = np.sqrt(np.maximum((sig[:, 0] * rec.sigma_y) ** 2 - rest, 0.0))
    if has_noise:
        out[:, d + q] = draws[:, d + q] * rec.sigma_y
    return out


def unstandardize_local_draws(draws: np.ndarray, q: int,
                              rec: StandardizationRecord) -> np.ndarray:
    """Inverse transform for local draws shaped (..., q)."""
    draws = np.asarray(draws, dtype=np.float64)
    out = np.empty_like(draws)
    if q >= 1:
        mu_z = rec.mu_x[:q]
        out[..., 1:] = draws[..., 1:] * rec.sigma_y / rec.sigma_x[1:q]
        out[..., 0] = draws[..., 0] * rec.sigma_y - out[..., 1:] @ mu_z[1:]
    return out
