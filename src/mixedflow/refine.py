"""Post-hoc posterior refinement.

Importance sampling: flow draws get self-normalized weights computed from
the conditional likelihood times the prior over the flow's own density.
Because the global posterior conditions on the data only and the local
posterior conditions on the globals, the two levels are reweighted
alternately, local first, plugging posterior means of the other level into
the likelihood; IS_ROUNDS rounds, any number q of random effects.
Likelihoods come from per-group sufficient statistics (Gram blocks of
[X_i, Z_i, y_i], computed once per dataset). With the other level held at
its plug-in mean, each step's residual sums are a quadratic form in its own
draws: per group for the local draws, summed over groups for the global
ones, so a round costs O(k (d^2 + m q^2)) whatever the group sizes. A
joint draw of both levels costs O(k m (d + q)^2); the marginal likelihood
(`marginal_log_likelihood`) solves one q x q system per group (Woodbury,
matrix determinant lemma). The weight clip's percentile comes from one
partition of the draws, bit for bit `np.percentile`.

Conformal calibration: on held-out calibration sets, the signed distance
from the true parameter, standardized with the draws' record, to the
nearest border of the proposed credible interval (`border_scores`, which
also scores evaluation hits) is collected per parameter role; its
conformal quantile is an additive border adjustment (positive widens,
negative narrows) that `apply_calibration` applies to every later
interval at that level.

All densities here live in the draws' space, entered with the draws'
standardization record: the standardized data follow the same
mixed-effects story exactly, and the standardized prior is the
pushforward of the sampled one (exact for the fixed effects via the full
covariance; the random-intercept aggregation is exact for a single random
effect and a documented diagonal approximation otherwise).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .draws import PosteriorDraws
from .errors import ConfigError
from .simulate import GlobalParams, HierDataset, LocalParams, PriorSpec
from .standardize import standardize_params

log = logging.getLogger(__name__)

__all__ = [
    "ALPHA_GRID", "ConformalTable", "importance_weights",
    "conditional_log_likelihood", "marginal_log_likelihood",
    "alternating_refine", "build_conformal_table", "calibrate",
    "border_scores", "apply_calibration", "log_half_normal",
]

ALPHA_GRID = (0.05, 0.1, 0.2, 0.32, 0.5)
ROLES = ("fixed", "variance", "random")
IS_ROUNDS = 3             # alternating local/global reweighting rounds
CLIP_PERCENTILE = 98.0    # log-weights above this percentile are clipped to it

_LOG_2PI = math.log(2.0 * math.pi)


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
        W = np.concatenate([ds.X, ds.Z], axis=2) * ds.mask[:, :, None]
        r = (ds.y - ds.X @ beta0 - np.einsum("mnq,mq->mn", ds.Z, alpha0)) * ds.mask
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

    def local_sums(self, beta: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """e_i'e_i (k, m) for one beta (d,) shared by the draws alpha
        (k, m, q): A_i + a'(B_i + C_i a) with a = alpha_i - alpha0_i and
        per-group constants A_i, B_i and C_i = G_zz,i."""
        d, db = self.d, beta - self.beta0
        Gxx, Gxz, Gzz = self.G[:, :d, :d], self.G[:, :d, d:], self.G[:, d:, d:]
        A = self.s - np.einsum("mp,p->m", 2.0 * self.c[:, :d] - Gxx @ db, db)
        B = 2.0 * (db @ Gxz - self.c[:, d:])
        da = alpha - self.alpha0
        return A + (da * (B + np.einsum("mpr,kmr->kmp", Gzz, da))).sum(axis=2)

    def global_sums(self, beta: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """sum_i e_i'e_i (k,) for the draws beta (k, d) and one alpha (m, q)
        shared by them: S0 + L'b + b'(sum_i G_xx,i) b with b = beta - beta0."""
        d, da = self.d, alpha - self.alpha0
        Gxx, Gxz, Gzz = self.G[:, :d, :d], self.G[:, :d, d:], self.G[:, d:, d:]
        S0 = (self.s - np.einsum("mp,mp->m", 2.0 * self.c[:, d:]
                                 - np.einsum("mpr,mr->mp", Gzz, da), da)).sum()
        L = 2.0 * (np.einsum("mpr,mr->p", Gxz, da) - self.c[:, :d].sum(axis=0))
        db = beta - self.beta0
        return S0 + (db * (L + db @ Gxx.sum(axis=0))).sum(axis=1)

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


def _split_global(draws: PosteriorDraws, prior: PriorSpec):
    """(beta, sigma_alpha, sigma_eps) of the global draws; draws without a
    noise component take the prior's noise scale as the known noise."""
    g, d, q = draws.global_std, draws.d, draws.q
    sigma_eps = g[:, d + q] if draws.infer_noise else np.full(draws.k, float(prior.tau_eps))
    return g[:, :d], g[:, d:d + q], sigma_eps


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


def importance_weights(log_p: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """Self-normalized weights: log ratio, percentile clip, exponentiate
    after max subtraction, normalize to mean one. A (k, m) input is weighted
    column by column; a column with no finite ratio gets uniform weights."""
    log_w = np.asarray(log_p, dtype=np.float64) - np.asarray(log_q, dtype=np.float64)
    cols = log_w.reshape(log_w.shape[0], -1)
    good = np.isfinite(cols)
    dead = ~good.any(axis=0)
    for _ in range(int(dead.sum())):
        log.warning("all importance weights degenerate, falling back to uniform")
    cap = _clip_cap(cols, good)
    # the clipped maximum is the cap itself; non-finite ratios get weight 0
    w = np.exp(np.minimum(cols, cap) - cap, out=np.zeros_like(cols), where=good)
    w[:, dead] = 1.0
    return (w / w.mean(axis=0)).reshape(log_w.shape)


def _clip_cap(cols: np.ndarray, good: np.ndarray) -> np.ndarray:
    """The CLIP_PERCENTILE-th percentile of the finite entries (`good`) of
    each column of cols (k, m), 0 for a column without one: bit for bit
    np.percentile for the all-finite columns, taken from one partition, and
    np.nanpercentile for the rest."""
    k, cap = cols.shape[0], np.zeros(cols.shape[1])
    finite = good.all(axis=0)
    mixed = good.any(axis=0) & ~finite
    if mixed.any():
        cap[mixed] = np.nanpercentile(np.where(good[:, mixed], cols[:, mixed], np.nan),
                                      CLIP_PERCENTILE, axis=0)
    # numpy's linear method: the virtual index h = (k - 1) p falls between
    # the order statistics lo and lo + 1, and their lerp is taken from the
    # upper one when the fraction t is at least one half
    h = (k - 1) * (CLIP_PERCENTILE / 100.0)
    lo = math.floor(h)
    t = h - lo
    part = np.partition((cols if finite.all() else cols[:, finite]).T, lo, axis=1)
    a = part[:, lo]
    b = part[:, lo + 1:].min(axis=1) if lo + 1 < k else a
    cap[finite] = a + (b - a) * t if t < 0.5 else b - (b - a) * (1.0 - t)
    return cap


def alternating_refine(ds: HierDataset, prior: PriorSpec, draws: PosteriorDraws,
                       beta_mean_cov: tuple[np.ndarray, np.ndarray]) -> PosteriorDraws:
    """Alternating importance reweighting of local and global draws,
    starting with the locals; deterministic given the draws.

    `ds`, `prior` and beta_mean_cov = (mean, cov), the joint normal prior
    of the fixed effects (`standardize.standardized_beta_prior`), must live
    in the same space as the draws. Each level's conditional likelihood
    plugs in posterior means of the other level.
    """
    k, q, m = draws.k, draws.q, ds.m
    beta, sigma_alpha, sigma_eps = _split_global(draws, prior)
    alpha = draws.local_std.astype(np.float64) if q else np.zeros((k, m, 0))
    grams = _GroupGrams(ds, beta.mean(axis=0), alpha.mean(axis=0))
    log_prior = _log_prior_global(beta, sigma_alpha, sigma_eps, prior,
                                  beta_mean_cov, include_noise=draws.infer_noise)

    w_global = np.ones(k)
    w_local = np.ones((k, m)) if q else None
    alpha_bar = np.zeros((m, q))
    for _ in range(IS_ROUNDS):
        if q:
            # local step: plug in the current global posterior means, over
            # the draws with weight only (a zero-weight infinite draw would
            # otherwise make a 0 * inf NaN plug-in)
            live = w_global > 0
            p = w_global[live] / w_global[live].sum()
            ee = grams.local_sums(p @ beta[live], alpha)
            log_p = (_normal_logpdf(grams.n, ee, p @ sigma_eps[live])
                     + _normal_logpdf(1, alpha ** 2, p @ sigma_alpha[live]).sum(axis=2))
            w_local = importance_weights(log_p, draws.log_q_local)
            alpha_bar = np.einsum("kmq,km->mq", alpha, w_local) / w_local.sum(axis=0)[:, None]

        # global step: plug in the local posterior means
        ll = (_normal_logpdf(grams.n.sum(), grams.global_sums(beta, alpha_bar), sigma_eps)
              + _log_prior_random(alpha_bar, sigma_alpha))
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
        idx = int(np.argmin(np.abs(np.asarray(self.alphas) - alpha)))
        if not np.isclose(self.alphas[idx], alpha) and alpha not in self._warned:
            self._warned.add(alpha)
            log.warning("alpha %.3g not calibrated, using nearest %.3g", alpha, self.alphas[idx])
        return self.adjustments[role][idx]

    def to_json(self) -> dict:
        return {"alphas": list(self.alphas),
                "adjustments": self.adjustments,
                "checkpoint_id": self.checkpoint_id,
                "n_calibration": self.n_calibration,
                "low_confidence": self.low_confidence}


def border_scores(draws: PosteriorDraws, borders, gp_true: GlobalParams,
                  lp_true: LocalParams) -> dict[str, np.ndarray]:
    """Signed distance max(lo - t, t - hi) from each true data-scale
    parameter, standardized with `draws.rec` to t, to the nearest border of
    its interval in the border arrays (global, local) of `apply_calibration`,
    (len(alphas), count) per role: positive outside (needs widening), at
    most 0 exactly when lo <= t <= hi (IEEE subtraction has the sign of the
    exact difference)."""
    b_global, b_local = borders
    gp_true_std, lp_true_std = standardize_params(gp_true, lp_true, draws.rec)

    def outside(b, t):
        return np.maximum(b[..., 0] - t, t - b[..., 1])

    local = None
    if b_local is not None:
        m = min(draws.m, lp_true_std.alpha.shape[0])
        local = outside(b_local[:, :m], lp_true_std.alpha[:m])
    return draws.by_role(outside(b_global, gp_true_std.vector(draws.infer_noise)), local)


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

    if refine not in ("none", "is"):
        raise ConfigError(f"calibration refines with 'none' or 'is', not {refine!r}")
    score_lists: dict[str, list[list[float]]] = {r: [[] for _ in alphas] for r in ROLES}
    for idx, ds in enumerate(datasets):
        if ds.truth is None:
            raise ConfigError("calibration datasets need recorded truth")
        draws = posterior_draws(model, ds, k, substream(seed, "calibrate", idx), refine)
        scores = border_scores(draws, apply_calibration(draws, None, alphas),
                               ds.truth.global_params, ds.truth.local_params)
        for role, vals in scores.items():
            for a_idx, row in enumerate(vals):
                score_lists[role][a_idx].extend(row.tolist())
    score_lists = {r: v for r, v in score_lists.items() if any(len(x) for x in v)}
    return build_conformal_table(score_lists, alphas, len(datasets), checkpoint_id)


def apply_calibration(draws: PosteriorDraws, table: ConformalTable | None,
                      alphas) -> tuple[np.ndarray, np.ndarray | None]:
    """Interval borders in standardized units for every alpha, global
    (A, p_global, 2) and local (A, m, q, 2) or None without local draws,
    each widened or narrowed by the table entry of its role (no table
    means the raw weighted empirical quantile interval). An entry that
    would invert an interval empties it at its midpoint instead."""
    roles = [role for _, role in draws.layout]
    b_global, b_local = draws.interval_borders(alphas)

    def widen(role):  # (A, 2): the entry comes off the lower border, onto the upper
        adj = [table.adjustment(role, a) if table is not None else 0.0 for a in alphas]
        return np.multiply.outer(adj, [-1.0, 1.0])

    def emptied(b):  # an inverted pair becomes its midpoint twice
        return np.where(b[..., :1] > b[..., 1:], b.mean(axis=-1, keepdims=True), b)

    per_role = {r: widen(r) for r in dict.fromkeys(roles)}
    b_global = emptied(b_global + np.stack([per_role[r] for r in roles], axis=1))
    if not draws.q or b_local is None:
        return b_global, None
    return b_global, emptied(b_local + widen("random")[:, None, None])
