"""Post-hoc posterior refinement.

Importance sampling: flow draws get self-normalized weights computed from
the (conditional, by default) likelihood times the prior over the flow's
own density. Because the global posterior conditions on the data only and
the local posterior conditions on the globals, the two levels are
reweighted alternately, local first, plugging posterior means of the other
level into the likelihood; three rounds, any number q of random effects.
Likelihoods come from per-group sufficient statistics (Gram blocks of
[X_i, Z_i, y_i], computed once per dataset), so a round costs
O(k m (d + q)^2) whatever the group sizes; the marginal likelihood solves
one q x q system per group (Woodbury, matrix determinant lemma).

Conformal calibration: on held-out calibration sets, the signed distance
from the true parameter to the nearest border of the proposed credible
interval is collected per parameter role; its conformal quantile is an
additive border adjustment (positive widens, negative narrows) that is
applied to every later interval at that level.

All densities here live in standardized space: the standardized data
follow the same mixed-effects story exactly, and the standardized prior is
the pushforward of the sampled one (exact for the fixed effects via the
full covariance; the random-intercept aggregation is exact for a single
random effect and a documented diagonal approximation otherwise).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .draws import PosteriorDraws
from .errors import ConfigError, DataFormatError
from .simulate import GlobalParams, HierDataset, LocalParams, PriorSpec

log = logging.getLogger(__name__)

__all__ = [
    "ALPHA_GRID", "ConformalTable", "importance_weights",
    "conditional_log_likelihood", "marginal_log_likelihood",
    "alternating_refine", "build_conformal_table", "calibrate",
    "conformal_scores", "apply_calibration", "component_roles",
    "log_half_normal",
]

ALPHA_GRID = (0.05, 0.1, 0.2, 0.32, 0.5)
ROLES = ("fixed", "variance", "random")

_LOG_2PI = math.log(2.0 * math.pi)


def component_roles(d: int, q: int, infer_noise: bool = True) -> list[str]:
    """Role of each global draw component: fixed effects then variances."""
    return ["fixed"] * d + ["variance"] * (q + (1 if infer_noise else 0))


# ---------------------------------------------------------------------------
# densities


def log_half_normal(x: np.ndarray, tau) -> np.ndarray:
    """Density of |N(0, tau^2)| at x >= 0."""
    x = np.asarray(x, dtype=np.float64)
    # a huge draw squares to inf, which gives the exact -inf density
    with np.errstate(over="ignore"):
        return np.where(x >= 0, math.log(2.0) + _normal_logpdf(1, x * x, tau), -np.inf)


def _normal_logpdf(n, ssq, sd):
    """Log density of n iid N(0, sd^2) values with sum of squares ssq; an
    extreme sd gives an infinite value, never an overflow error."""
    return -0.5 * (n * _LOG_2PI + ssq / sd / sd) - n * np.log(sd)


def _log_prior_random(alpha: np.ndarray, sigma_alpha: np.ndarray) -> np.ndarray:
    """Log density of random effects alpha (m, q) given std devs
    sigma_alpha (..., q), summed over groups and components."""
    return _normal_logpdf(alpha.shape[0], (alpha ** 2).sum(axis=0), sigma_alpha).sum(axis=-1)


class _GroupGrams:
    """Per-group sufficient statistics: with W_i = [X_i, Z_i] (observed
    rows) and r_i = y_i - X_i beta0 - Z_i alpha0_i at a reference point
    near the draws (which keeps cancellation small), G_i = W_i'W_i,
    c_i = W_i'r_i and s_i = r_i'r_i. Any e_i = r_i - W_i delta_i then has
    W_i'e_i = c_i - G_i delta_i and e_i'e_i = s_i - delta_i'(c_i + W_i'e_i)."""

    def __init__(self, ds: HierDataset, beta0: np.ndarray, alpha0: np.ndarray):
        Z = ds.Z[:, :, :ds.q]
        W = np.concatenate([ds.X, Z], axis=2) * ds.mask[:, :, None]
        r = (ds.y - ds.X @ beta0 - np.einsum("mnq,mq->mn", Z, alpha0)) * ds.mask
        self.d, self.beta0, self.alpha0 = ds.d, beta0, alpha0
        self.n = ds.group_sizes.astype(np.float64)
        self.G = np.einsum("mnp,mnr->mpr", W, W)
        self.c = np.einsum("mnp,mn->mp", W, r)
        self.s = np.einsum("mn,mn->m", r, r)

    def residuals(self, beta: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """e_i'e_i (k, m) and Z_i'e_i (k, m, q) for e_i = y_i - X_i beta -
        Z_i alpha_i; beta (k, d) or (d,), alpha (k, m, q) or (m, q)."""
        db = np.atleast_2d(beta - self.beta0).T                      # (d, k)
        da = alpha - self.alpha0
        da = np.moveaxis(da if da.ndim == 3 else da[None], 0, -1)    # (m, q, k)
        m, q, k = da.shape[0], da.shape[1], max(db.shape[1], da.shape[2])
        # draws last, so that each group is one small matrix product
        delta = np.concatenate([np.broadcast_to(db, (m, self.d, k)),
                                np.broadcast_to(da, (m, q, k))], axis=1)
        We = self.c[:, :, None] - self.G @ delta
        ee = self.s[:, None] - (delta * (self.c[:, :, None] + We)).sum(axis=1)
        return ee.T, np.moveaxis(We[:, self.d:], -1, 0)

    def marginal(self, beta: np.ndarray, sigma_alpha: np.ndarray,
                 sigma_eps: np.ndarray) -> np.ndarray:
        """Log-likelihood (k,) of y_i ~ N(X_i beta, sigma_eps^2 I + Z_i S^2 Z_i'),
        S = diag(sigma_alpha), through M_i = I + S Z_i'Z_i S / sigma_eps^2:
        positive definite for every draw and exactly I at S = 0."""
        ee, ze = self.residuals(beta, np.zeros_like(self.alpha0))
        sd = sigma_eps[:, None]
        ll = _normal_logpdf(self.n, ee, sd)
        q = ze.shape[2]
        s = sigma_alpha / sd                                       # S / sigma_eps
        M = np.eye(q) + s[:, None, :, None] * self.G[:, self.d:, self.d:] * s[:, None, None, :]
        ok = np.isfinite(M).all(axis=(2, 3))
        lam, V = np.linalg.eigh(np.where(ok[..., None, None], M, np.eye(q)))
        lam = np.maximum(lam, 1.0)  # I + PSD: eigenvalues below 1 are rounding
        b = (V.swapaxes(2, 3) @ (s[:, None, :] * ze / sd[:, :, None])[..., None])[..., 0]
        ll = ll + 0.5 * (b ** 2 / lam).sum(axis=2) - 0.5 * np.log(lam).sum(axis=2)
        return np.where(ok, ll, -np.inf).sum(axis=1)


def _gaussian_loglik(ds: HierDataset, beta: np.ndarray, alpha: np.ndarray,
                     sigma_eps: np.ndarray) -> np.ndarray:
    """Conditional data log-likelihood (k,) for beta (k, d), alpha (k, m, q)
    or (m, q) shared across draws, and sigma_eps (k,)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    grams = _GroupGrams(ds, beta.mean(axis=0), alpha.mean(axis=0) if alpha.ndim == 3 else alpha)
    ee, _ = grams.residuals(beta, alpha)
    return _normal_logpdf(grams.n.sum(), ee.sum(axis=1), sigma_eps)


def _split_global(draws: np.ndarray, d: int, q: int, infer_noise: bool,
                  known_sigma_eps: float | None = None):
    if not infer_noise and known_sigma_eps is None:
        raise ConfigError("draws carry no noise component and none was supplied")
    sigma_eps = draws[:, d + q] if infer_noise else np.full(draws.shape[0], float(known_sigma_eps))
    return draws[:, :d], draws[:, d:d + q], sigma_eps


def _log_prior_global(beta, sigma_alpha, sigma_eps, prior: PriorSpec,
                      beta_mean_cov=None, include_noise=True) -> np.ndarray:
    mean, cov = beta_mean_cov or (prior.nu_beta, np.diag(prior.tau_beta ** 2))
    chol = np.linalg.cholesky(cov)
    white = np.linalg.solve(chol, (beta - mean).T)
    lp = _normal_logpdf(beta.shape[1], (white ** 2).sum(axis=0), 1.0) - np.log(np.diag(chol)).sum()
    lp = lp + log_half_normal(sigma_alpha, prior.tau_sigma).sum(axis=1)
    if include_noise:
        lp = lp + log_half_normal(sigma_eps, prior.tau_eps)
    return lp


def _one_draw(gp: GlobalParams):
    return gp.beta[None], gp.sigma_alpha[None], np.array([gp.sigma_eps])


def conditional_log_likelihood(ds: HierDataset, gp: GlobalParams, lp: LocalParams,
                               prior: PriorSpec | None = None,
                               beta_mean_cov=None) -> float:
    """Gaussian log-likelihood of the outcomes given one parameter draw,
    conditional on the random effects; adds the joint log-prior terms
    (random effects given their std devs, plus the global priors) when a
    prior is supplied."""
    if gp.sigma_eps <= 0:
        raise ConfigError("noise std dev draw must be positive")
    if ds.q and np.any(gp.sigma_alpha <= 0) and prior is not None:
        raise ConfigError("random-effect std dev draws must be positive")
    beta, sigma_alpha, sigma_eps = _one_draw(gp)
    alpha = lp.alpha[None] if ds.q else np.zeros((1, ds.m, 0))
    ll = float(_gaussian_loglik(ds, beta, alpha, sigma_eps)[0])
    if prior is None:
        return ll
    return (ll + float(_log_prior_random(alpha[0], sigma_alpha)[0])
            + float(_log_prior_global(beta, sigma_alpha, sigma_eps, prior, beta_mean_cov)[0]))


def marginal_log_likelihood(ds: HierDataset, gp: GlobalParams,
                            prior: PriorSpec | None = None,
                            beta_mean_cov=None) -> float:
    """Log-likelihood with the random effects integrated out: per group,
    y_i ~ N(X_i beta, Z_i diag(sigma_alpha^2) Z_i' + sigma_eps^2 I). Adds
    the global log-priors when a prior is supplied."""
    draw = _one_draw(gp)
    total = float(_GroupGrams(ds, gp.beta, np.zeros((ds.m, ds.q))).marginal(*draw)[0])
    if prior is not None:
        total += float(_log_prior_global(*draw, prior, beta_mean_cov)[0])
    return total


# ---------------------------------------------------------------------------
# importance sampling


def importance_weights(log_p: np.ndarray, log_q: np.ndarray,
                       clip_percentile: float = 98.0) -> np.ndarray:
    """Self-normalized weights: log ratio, percentile clip, exponentiate
    after max subtraction, normalize to mean one. A (k, m) input is weighted
    column by column; a column with no finite ratio gets uniform weights."""
    log_w = np.asarray(log_p, dtype=np.float64) - np.asarray(log_q, dtype=np.float64)
    cols = log_w.reshape(log_w.shape[0], -1)
    good = np.isfinite(cols)
    dead = ~good.any(axis=0)
    for _ in range(int(dead.sum())):
        log.warning("all importance weights degenerate, falling back to uniform")
    cols = np.where(good, cols, np.nan)
    cols[:, dead] = 0.0
    cap = (np.percentile if good.all() else np.nanpercentile)(cols, clip_percentile, axis=0)
    # the clipped maximum is the cap itself; non-finite ratios get weight 0
    w = np.nan_to_num(np.exp(np.minimum(cols, cap) - cap))
    return (w / w.mean(axis=0)).reshape(log_w.shape)


def alternating_refine(ds: HierDataset, prior: PriorSpec, draws: PosteriorDraws,
                       rounds: int = 3, likelihood: str = "conditional",
                       known_sigma_eps: float | None = None,
                       beta_mean_cov=None) -> PosteriorDraws:
    """Alternating importance reweighting of local and global draws,
    starting with the locals; deterministic given the draws.

    `ds` and `prior` must live in the same (standardized) space as the
    draws. Pass beta_mean_cov = (mean, cov) for the exact pushforward
    fixed-effect prior; otherwise the independent-normal form of `prior`
    is used. The conditional likelihood plugs in posterior means of the
    other level; the marginal variant integrates the random effects out
    for the global level instead.
    """
    if likelihood not in ("conditional", "marginal"):
        raise ConfigError(f"unknown likelihood kind {likelihood!r}")
    k, d, q, m = draws.k, draws.d, draws.q, ds.m
    beta, sigma_alpha, sigma_eps = _split_global(
        draws.global_std, d, q, draws.infer_noise, known_sigma_eps)
    alpha = draws.local_std.astype(np.float64) if q else np.zeros((k, m, 0))
    grams = _GroupGrams(ds, beta.mean(axis=0), alpha.mean(axis=0))
    log_prior = _log_prior_global(beta, sigma_alpha, sigma_eps, prior,
                                  beta_mean_cov, include_noise=draws.infer_noise)

    w_global = np.ones(k)
    w_local = np.ones((k, m)) if q else None
    alpha_bar = np.zeros((m, q))
    for _ in range(max(rounds, 0)):
        if q:
            # local step: plug in the current global posterior means, over
            # the draws with weight only (a zero-weight infinite draw would
            # otherwise make a 0 * inf NaN plug-in)
            live = w_global > 0
            p = w_global[live] / w_global[live].sum()
            ee, _ = grams.residuals(p @ beta[live], alpha)
            log_p = (_normal_logpdf(grams.n, ee, p @ sigma_eps[live])
                     + _normal_logpdf(1, alpha ** 2, p @ sigma_alpha[live]).sum(axis=2))
            w_local = importance_weights(log_p, draws.log_q_local)
            alpha_bar = np.einsum("kmq,km->mq", alpha, w_local) / w_local.sum(axis=0)[:, None]

        # global step: plug in the local posterior means
        if likelihood == "conditional":
            ee, _ = grams.residuals(beta, alpha_bar)
            ll = (_normal_logpdf(grams.n.sum(), ee.sum(axis=1), sigma_eps)
                  + _log_prior_random(alpha_bar, sigma_alpha))
        else:
            ll = grams.marginal(beta, sigma_alpha, sigma_eps)
        w_global = importance_weights(ll + log_prior, draws.log_q_global)

    return replace(draws, weights=w_global, local_weights=w_local)


# ---------------------------------------------------------------------------
# conformal calibration


@dataclass
class ConformalTable:
    """Additive border adjustments (standardized units) per parameter role
    and per alpha."""

    alphas: tuple[float, ...]
    adjustments: dict[str, list[float]]
    checkpoint_id: str = ""
    n_calibration: int = 0
    low_confidence: bool = False
    # alphas already reported as taken from their nearest calibrated one
    _warned: set = field(default_factory=set, init=False, repr=False, compare=False)

    def adjustment(self, role: str, alpha: float) -> float:
        if role not in self.adjustments:
            raise ConfigError(f"no calibration for role {role!r}")
        alphas = np.asarray(self.alphas)
        exact = np.isclose(alphas, alpha)
        if exact.any():
            idx = int(np.argmax(exact))
        else:
            idx = int(np.argmin(np.abs(alphas - alpha)))
            if alpha not in self._warned:
                self._warned.add(alpha)
                log.warning("alpha %.3g not calibrated, using nearest %.3g",
                            alpha, self.alphas[idx])
        return self.adjustments[role][idx]

    def to_json(self) -> dict:
        return {"alphas": list(self.alphas),
                "adjustments": self.adjustments,
                "checkpoint_id": self.checkpoint_id,
                "n_calibration": self.n_calibration,
                "low_confidence": self.low_confidence}

    @classmethod
    def from_json(cls, obj: dict) -> "ConformalTable":
        table = cls(tuple(obj["alphas"]), {k: list(v) for k, v in obj["adjustments"].items()},
                    obj.get("checkpoint_id", ""), int(obj.get("n_calibration", 0)),
                    bool(obj.get("low_confidence", False)))
        if any(len(adj) != len(table.alphas) for adj in table.adjustments.values()):
            raise DataFormatError("conformal table needs one adjustment per alpha and role")
        return table


def conformal_scores(draws: PosteriorDraws, gp_true_std: GlobalParams,
                     lp_true_std: LocalParams, alphas) -> dict[str, np.ndarray]:
    """Signed distance from each true standardized parameter to the nearest
    border of its proposed (1 - alpha) interval, (len(alphas), count) per
    role: positive outside (needs widening), negative inside."""
    return _border_scores(draws, draws.interval_borders(alphas), gp_true_std, lp_true_std)


def _border_scores(draws: PosteriorDraws, borders, gp_true_std: GlobalParams,
                   lp_true_std: LocalParams) -> dict[str, np.ndarray]:
    """max(lo - t, t - hi) per role for the border arrays (global, local)
    of `interval_borders` or `apply_calibration`; at most 0 exactly when
    lo <= t <= hi (IEEE subtraction has the sign of the exact difference)."""
    roles = np.array(component_roles(draws.d, draws.q, draws.infer_noise))
    truth = np.concatenate([
        gp_true_std.beta,
        gp_true_std.sigma_alpha,
        [gp_true_std.sigma_eps] if draws.infer_noise else [],
    ])
    b_global, b_local = borders

    def outside(b, t):
        return np.maximum(b[..., 0] - t, t - b[..., 1])

    signed = outside(b_global, truth)
    out = {r: signed[:, roles == r] for r in ROLES if np.any(roles == r)}
    if draws.q and b_local is not None:
        m = min(draws.m, lp_true_std.alpha.shape[0])
        out["random"] = outside(b_local[:, :m], lp_true_std.alpha[:m]).reshape(len(signed), -1)
    return out


def build_conformal_table(score_lists: dict[str, list[list[float]]],
                          alphas: tuple[float, ...],
                          n_calibration: int,
                          checkpoint_id: str = "") -> ConformalTable:
    """score_lists: role -> per-alpha flat score list."""
    adjustments: dict[str, list[float]] = {}
    for role, per_alpha in score_lists.items():
        adjustments[role] = []
        for scores, alpha in zip(per_alpha, alphas):
            s = np.sort(np.asarray(scores, dtype=np.float64))
            if s.size == 0:
                adjustments[role].append(0.0)
                continue
            # conformal (n+1)-adjusted quantile, rounded up
            rank = math.ceil((s.size + 1) * (1.0 - alpha))
            rank = min(max(rank, 1), s.size)
            adjustments[role].append(float(s[rank - 1]))
    low = n_calibration < 100
    if low:
        log.warning("only %d calibration sets; conformal table marked low-confidence",
                    n_calibration)
    return ConformalTable(tuple(alphas), adjustments, checkpoint_id,
                          n_calibration, low)


def calibrate(model, datasets: list[HierDataset], k: int, seed: int,
              alphas: tuple[float, ...] = ALPHA_GRID, refine: str = "none",
              checkpoint_id: str = "") -> ConformalTable:
    """Run inference (`pipeline.posterior_draws`, refine "none" or "is")
    on every calibration dataset and build the adjustment table. Datasets
    must carry their generating truth and be disjoint from training data."""
    from .pipeline import posterior_draws
    from .seeding import substream
    from .standardize import standardize_params

    if refine not in ("none", "is"):
        raise ConfigError(f"calibration refines with 'none' or 'is', not {refine!r}")
    score_lists: dict[str, list[list[float]]] = {r: [[] for _ in alphas] for r in ROLES}
    for idx, ds in enumerate(datasets):
        if ds.truth is None:
            raise ConfigError("calibration datasets need recorded truth")
        draws = posterior_draws(model, ds, k, substream(seed, "calibrate", idx), refine)
        gp_s, lp_s = standardize_params(ds.truth.global_params, ds.truth.local_params,
                                        draws.rec)
        for role, vals in conformal_scores(draws, gp_s, lp_s, alphas).items():
            for a_idx, row in enumerate(vals):
                score_lists[role][a_idx].extend(row.tolist())
    score_lists = {r: v for r, v in score_lists.items() if any(len(x) for x in v)}
    return build_conformal_table(score_lists, alphas, len(datasets), checkpoint_id)


def apply_calibration(draws: PosteriorDraws, table: ConformalTable | None,
                      alphas) -> tuple[np.ndarray, np.ndarray | None]:
    """Interval borders in standardized units for every alpha, global
    (A, p_global, 2) and local (A, m, q, 2) or None without local draws,
    each widened or narrowed by the table entry of its role (no table
    means the raw weighted empirical quantile interval)."""
    roles = component_roles(draws.d, draws.q, draws.infer_noise)
    b_global, b_local = draws.interval_borders(alphas)

    def widen(role):  # (A, 2): the entry comes off the lower border, onto the upper
        adj = [table.adjustment(role, a) if table is not None else 0.0 for a in alphas]
        return np.multiply.outer(adj, [-1.0, 1.0])

    per_role = {r: widen(r) for r in dict.fromkeys(roles)}
    b_global = b_global + np.stack([per_role[r] for r in roles], axis=1)
    if not draws.q or b_local is None:
        return b_global, None
    return b_global, b_local + widen("random")[:, None, None]
