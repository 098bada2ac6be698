"""Dense reference implementation of the importance-sampling likelihoods.

Residuals are formed observation by observation, the marginal likelihood
factors each group's n_i x n_i covariance, and the local step loops over
groups. It is slow and kept only as the oracle that the sufficient-
statistics code in `mixedflow.refine` must reproduce.
"""

import math

import numpy as np

from mixedflow.draws import PosteriorDraws
from mixedflow.refine import _log_prior_global, _split_global
from mixedflow.standardize import StandardizationRecord

LOG_2PI = math.log(2.0 * math.pi)


def gaussian_loglik(ds, beta, alpha, sigma_eps):
    """beta (k, d); alpha (k, m, q) or (m, q); sigma_eps (k,). Returns (k,)."""
    mean = np.einsum("mnd,kd->kmn", ds.X, beta)
    if ds.q:
        a = alpha if alpha.ndim == 3 else np.broadcast_to(alpha, (beta.shape[0],) + alpha.shape)
        mean = mean + np.einsum("mnq,kmq->kmn", ds.Z[:, :, :ds.q], a)
    resid = (ds.y[None] - mean) * ds.mask[None]
    ssq = (resid ** 2).sum(axis=(1, 2))
    n = float(ds.mask.sum())
    s2 = sigma_eps ** 2
    return -0.5 * (n * LOG_2PI + n * np.log(s2) + ssq / s2)


def log_prior_random(alpha, sigma_alpha):
    """alpha (m, q); sigma_alpha (k, q). Returns (k,)."""
    return (-0.5 * LOG_2PI - np.log(sigma_alpha)[:, :, None]
            - 0.5 * (alpha.T[None] / sigma_alpha[:, :, None]) ** 2).sum(axis=(1, 2))


def marginal_loglik(ds, beta, sigma_alpha, sigma_eps):
    """One draw: beta (d,), sigma_alpha (q,), sigma_eps scalar."""
    total = 0.0
    for i in range(ds.m):
        rows = ds.mask[i]
        X_i = ds.X[i][rows]
        n_i = X_i.shape[0]
        cov = sigma_eps ** 2 * np.eye(n_i)
        if ds.q:
            Zq = ds.Z[i][rows][:, :ds.q]
            cov = cov + (Zq * sigma_alpha ** 2) @ Zq.T
        chol = np.linalg.cholesky(cov)
        white = np.linalg.solve(chol, ds.y[i][rows] - X_i @ beta)
        total += -0.5 * (n_i * LOG_2PI + (white ** 2).sum()) - np.log(np.diag(chol)).sum()
    return total


def importance_weights(log_p, log_q, clip_percentile=98.0):
    log_w = np.asarray(log_p, dtype=np.float64) - np.asarray(log_q, dtype=np.float64)
    good = np.isfinite(log_w)
    if not good.any():
        return np.ones(log_w.shape[0])
    log_w = np.where(good, log_w, -np.inf)
    log_w = np.minimum(log_w, np.percentile(log_w[good], clip_percentile))
    w = np.exp(log_w - log_w.max())
    return w / w.mean()


def alternating_refine(ds, prior, draws, rounds=3, likelihood="conditional",
                       known_sigma_eps=None, beta_mean_cov=None):
    """Returns (global weights (k,), local weights (k, m) or None)."""
    k, d, q = draws.k, draws.d, draws.q
    beta, sigma_alpha, sigma_eps = _split_global(
        draws.global_std, d, q, draws.infer_noise, known_sigma_eps)
    w_global = np.ones(k)
    w_local = np.ones((k, ds.m)) if q else None
    for _ in range(max(rounds, 0)):
        if q:
            bar_beta = (beta * w_global[:, None]).sum(axis=0) / w_global.sum()
            bar_sig = (sigma_alpha * w_global[:, None]).sum(axis=0) / w_global.sum()
            bar_eps = float((sigma_eps * w_global).sum() / w_global.sum())
            mean_fixed = np.einsum("mnd,d->mn", ds.X, bar_beta)
            for i in range(ds.m):
                rows = ds.mask[i]
                Zq = ds.Z[i][rows][:, :q]
                a_i = draws.local_std[:, i, :]
                resid = (ds.y[i][rows] - mean_fixed[i][rows])[None] - a_i @ Zq.T
                n_i = float(rows.sum())
                ll = -0.5 * (n_i * LOG_2PI + n_i * np.log(bar_eps ** 2)
                             + (resid ** 2).sum(axis=1) / bar_eps ** 2)
                lp_a = (-0.5 * LOG_2PI - np.log(bar_sig) - 0.5 * (a_i / bar_sig) ** 2).sum(axis=1)
                w_local[:, i] = importance_weights(ll + lp_a, draws.log_q_local[:, i])
            alpha_bar = (np.einsum("kmq,km->mq", draws.local_std, w_local)
                         / w_local.sum(axis=0)[:, None])
        else:
            alpha_bar = np.zeros((ds.m, 0))
        if likelihood == "conditional":
            ll = gaussian_loglik(ds, beta, alpha_bar, sigma_eps)
            if q:
                ll = ll + log_prior_random(alpha_bar, sigma_alpha)
        else:
            ll = np.array([marginal_loglik(ds, beta[j], sigma_alpha[j], sigma_eps[j])
                           for j in range(k)])
        log_num = ll + _log_prior_global(beta, sigma_alpha, sigma_eps, prior,
                                         beta_mean_cov, include_noise=draws.infer_noise)
        w_global = importance_weights(log_num, draws.log_q_global)
    return w_global, w_local


def random_draws(ds, k, rng, spread=0.3):
    """Draws scattered around the dataset's truth, with arbitrary proposal
    densities; identity standardization record."""
    gp, lp = ds.truth.global_params, ds.truth.local_params
    d, q, m = ds.d, ds.q, ds.m
    beta = gp.beta + spread * gp.sigma_eps * rng.normal(size=(k, d)) * 3
    sig = np.abs(gp.sigma_alpha * np.exp(spread * rng.normal(size=(k, q))))
    eps = gp.sigma_eps * np.exp(spread * rng.normal(size=k))
    local = lp.alpha + spread * rng.normal(size=(k, m, q)) * np.maximum(gp.sigma_alpha, 1e-3)
    return PosteriorDraws(global_std=np.column_stack([beta, sig, eps]),
                          log_q_global=rng.normal(size=k), d=d, q=q, infer_noise=True,
                          rec=StandardizationRecord.identity(d),
                          local_std=local if q else None,
                          log_q_local=rng.normal(size=(k, m)) if q else None)
