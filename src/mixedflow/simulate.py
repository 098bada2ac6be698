"""Hierarchical regression dataset simulator.

Data-generating story, per dataset:

1. draw prior hyperparameters (location/scale of the fixed-effect normals,
   half-normal scales for the random-effect and noise std devs),
2. draw regression parameters from those priors,
3. draw a design matrix whose slope columns come from a mixture of
   distribution families and are correlated through the Cholesky factor of
   an LKJ-distributed correlation matrix (binary columns get correlated by
   blending a source column into their latent logit),
4. generate outcomes y_i = X_i beta + Z_i alpha_i + eps_i per group.

Groups are stored padded to the largest group with a validity mask; padded
cells are exactly zero. Column 0 of X is the constant intercept column and
participates in the random-effect design Z when q >= 1.

Toy mode narrows all prior ranges and draws every slope column from a
standard normal with no cross-column correlation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NumericError

log = logging.getLogger(__name__)

__all__ = [
    "PriorSpec", "GlobalParams", "LocalParams", "Truth", "HierDataset",
    "SimConfig", "sample_priors", "sample_parameters", "sample_predictors",
    "correlated_binary", "binary_probs", "choose_families",
    "lkj_correlation", "lkj_cholesky_factor", "assemble_dataset",
    "simulate_dataset", "simulate_conjugate_dataset", "conjugate_posterior",
    "regenerate_outcomes", "snr", "permute_columns",
    "FAMILIES", "FAMILY_PROBS",
]


# ---------------------------------------------------------------------------
# domain types


@dataclass
class PriorSpec:
    """Per-dataset prior hyperparameters.

    nu_beta / tau_beta: mean and std of the normal priors on the d fixed
    effects (entry 0 is the intercept). tau_sigma: half-normal scales for
    the q random-effect std devs. tau_eps: half-normal scale for the noise
    std dev.
    """

    nu_beta: np.ndarray
    tau_beta: np.ndarray
    tau_sigma: np.ndarray
    tau_eps: float

    def __post_init__(self):
        self.nu_beta = np.asarray(self.nu_beta, dtype=np.float64)
        self.tau_beta = np.asarray(self.tau_beta, dtype=np.float64)
        self.tau_sigma = np.asarray(self.tau_sigma, dtype=np.float64)
        self.tau_eps = float(self.tau_eps)
        if self.nu_beta.shape != self.tau_beta.shape:
            raise DimensionError("nu_beta and tau_beta lengths differ")
        if np.any(self.tau_beta <= 0) or np.any(self.tau_sigma <= 0) or self.tau_eps <= 0:
            raise ConfigError("prior scales must be strictly positive")

    @property
    def d(self) -> int:
        return self.nu_beta.shape[0]

    @property
    def q(self) -> int:
        return self.tau_sigma.shape[0]


@dataclass
class GlobalParams:
    beta: np.ndarray
    sigma_alpha: np.ndarray
    sigma_eps: float

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=np.float64)
        self.sigma_alpha = np.asarray(self.sigma_alpha, dtype=np.float64)
        self.sigma_eps = float(self.sigma_eps)


@dataclass
class LocalParams:
    alpha: np.ndarray  # (m, q)

    def __post_init__(self):
        self.alpha = np.atleast_2d(np.asarray(self.alpha, dtype=np.float64))


@dataclass
class Truth:
    prior: PriorSpec
    global_params: GlobalParams
    local_params: LocalParams
    noise: np.ndarray  # (m, n_max), zero at padded cells


@dataclass
class HierDataset:
    """Padded hierarchical regression dataset.

    X, Z: (m, n_max, d); y: (m, n_max); mask: (m, n_max) bool. Z mirrors the
    first q columns of X and is zero elsewhere. Padded cells are zero.
    """

    X: np.ndarray
    Z: np.ndarray
    y: np.ndarray
    mask: np.ndarray
    group_sizes: np.ndarray
    d: int
    q: int
    m: int
    truth: Truth | None = None
    dataset_id: str = ""

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        self.group_sizes = np.asarray(self.group_sizes, dtype=np.int64)
        if self.X.shape != self.Z.shape or self.X.shape[:2] != self.y.shape:
            raise DimensionError(f"inconsistent dataset arrays: X {self.X.shape}, Z {self.Z.shape}, y {self.y.shape}")
        if self.X.shape[0] != self.m or self.X.shape[2] != self.d:
            raise DimensionError("declared dims disagree with array shapes")
        if not np.array_equal(self.mask.sum(axis=1), self.group_sizes):
            raise DimensionError("mask row sums disagree with group_sizes")

    @property
    def n_total(self) -> int:
        return int(self.group_sizes.sum())


# ---------------------------------------------------------------------------
# configuration


FAMILIES = ("normal", "student_t", "uniform", "bernoulli", "neg_binomial", "scaled_beta")
FAMILY_PROBS = (0.10, 0.40, 0.05, 0.25, 0.10, 0.10)


@dataclass
class SimConfig:
    """Knobs for dataset generation; defaults follow the package-wide
    conventions (group counts 5..30, group sizes 5..70, LKJ concentration
    10, variance cap 1e3)."""

    m_range: tuple[int, int] = (5, 30)
    n_range: tuple[int, int] = (5, 70)
    toy: bool = False
    lkj_eta: float = 10.0
    variance_cap: float = 1e3
    family_probs: tuple[float, ...] = FAMILY_PROBS
    # per-family parameter ranges; documented choices, not pinned anywhere
    normal_mu: tuple[float, float] = (-3.0, 3.0)
    normal_sigma: tuple[float, float] = (0.5, 3.0)
    t_df: tuple[float, float] = (3.0, 30.0)
    t_loc: tuple[float, float] = (-3.0, 3.0)
    t_scale: tuple[float, float] = (0.5, 3.0)
    uniform_lo: tuple[float, float] = (-5.0, 0.0)
    uniform_width: tuple[float, float] = (1.0, 10.0)
    binary_corr: tuple[float, float] = (-0.9, 0.9)
    nb_count: tuple[int, int] = (1, 10)
    nb_p: tuple[float, float] = (0.3, 0.8)
    beta_ab: tuple[float, float] = (0.5, 5.0)
    beta_scale: tuple[float, float] = (1.0, 10.0)

    def slope_scale_bound(self) -> float:
        return 5.0 if self.toy else 20.0


# ---------------------------------------------------------------------------
# priors and parameters


def sample_priors(batch: int, d: int, q: int, rng: np.random.Generator,
                  toy: bool = False) -> list[PriorSpec]:
    """Draw `batch` independent prior specifications.

    Fixed-effect means are uniform on (-20, 20); the intercept scale is
    uniform on (0.1, 30) and slope scales on (0.1, 20); random-effect
    scales on (0.1, 10); noise scale on (0.001, 10). Toy mode pins the
    means at 0 and bounds the scales at 5 / 1 / 1.
    """
    if d < 1 or q < 1:
        raise ConfigError("d and q must be at least 1")
    if q > d:
        raise ConfigError(f"q={q} random effects exceed d={d} predictors")
    out = []
    for _ in range(batch):
        if toy:
            nu = np.zeros(d)
            tau_b0 = rng.uniform(0.1, 5.0, size=1)
            tau_bs = rng.uniform(0.1, 5.0, size=d - 1)
            tau_s = rng.uniform(0.1, 1.0, size=q)
            tau_e = rng.uniform(0.001, 1.0)
        else:
            nu = rng.uniform(-20.0, 20.0, size=d)
            tau_b0 = rng.uniform(0.1, 30.0, size=1)
            tau_bs = rng.uniform(0.1, 20.0, size=d - 1)
            tau_s = rng.uniform(0.1, 10.0, size=q)
            tau_e = rng.uniform(0.001, 10.0)
        out.append(PriorSpec(nu, np.concatenate([tau_b0, tau_bs]), tau_s, tau_e))
    return out


def sample_parameters(prior: PriorSpec, m: int, rng: np.random.Generator) -> tuple[GlobalParams, LocalParams]:
    """Draw regression parameters: half-normal std devs, then normal fixed
    effects and per-group random effects."""
    if m < 1:
        raise ConfigError("need at least one group")
    sigma_alpha = np.abs(rng.normal(0.0, prior.tau_sigma))
    sigma_eps = float(np.abs(rng.normal(0.0, prior.tau_eps)))
    beta = rng.normal(prior.nu_beta, prior.tau_beta)
    alpha = rng.normal(0.0, 1.0, size=(m, prior.q)) * sigma_alpha[None, :]
    return GlobalParams(beta, sigma_alpha, sigma_eps), LocalParams(alpha)


# ---------------------------------------------------------------------------
# correlation machinery


def lkj_correlation(dim: int, eta: float, rng: np.random.Generator) -> np.ndarray:
    """Correlation matrix from the LKJ distribution via the onion method."""
    if dim < 1:
        raise ConfigError("correlation dimension must be positive")
    R = np.eye(dim)
    if dim == 1:
        return R
    b = eta + (dim - 2) / 2.0
    r12 = 2.0 * rng.beta(b, b) - 1.0
    R[0, 1] = R[1, 0] = r12
    for k in range(2, dim):
        b -= 0.5
        y = rng.beta(k / 2.0, b)
        u = rng.normal(size=k)
        u /= np.linalg.norm(u)
        w = np.sqrt(y) * u
        L = np.linalg.cholesky(R[:k, :k])
        z = L @ w
        R[:k, k] = z
        R[k, :k] = z
    return R


def lkj_cholesky_factor(dim: int, eta: float, rng: np.random.Generator) -> np.ndarray:
    """Lower Cholesky factor L of an LKJ draw, resampling the rare
    numerically degenerate matrix."""
    for attempt in range(10):
        R = lkj_correlation(dim, eta, rng)
        try:
            return np.linalg.cholesky(R)
        except np.linalg.LinAlgError:
            log.warning("degenerate LKJ draw (attempt %d), resampling", attempt + 1)
    raise NumericError("could not draw a positive-definite correlation matrix")


def binary_probs(x: np.ndarray, r: float, latent: np.ndarray) -> np.ndarray:
    """Bernoulli probabilities for a binary column correlated with x:
    logistic of r*x + sqrt(1-r^2)*latent. Constant x and a fixed latent
    give constant probabilities."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise NumericError("source column for a correlated binary is not finite")
    if not -1.0 < r < 1.0:
        raise ConfigError(f"binary correlation parameter must be in (-1, 1), got {r}")
    z = r * x + np.sqrt(1.0 - r * r) * np.asarray(latent, dtype=np.float64)
    return 1.0 / (1.0 + np.exp(-z))


def correlated_binary(x: np.ndarray, r: float, rng: np.random.Generator) -> np.ndarray:
    """Binary vector correlated with x: blend x into a standard-normal
    latent, squash through a logistic, draw Bernoulli."""
    p = binary_probs(x, r, rng.normal(0.0, 1.0, size=np.shape(x)))
    return rng.random(np.shape(x)) < p


# ---------------------------------------------------------------------------
# predictors


def _family_variance(family: str, params: dict) -> float:
    if family == "normal":
        return params["sigma"] ** 2
    if family == "student_t":
        return params["scale"] ** 2 * params["df"] / (params["df"] - 2.0)
    if family == "uniform":
        return params["width"] ** 2 / 12.0
    if family == "bernoulli":
        return 0.25
    if family == "neg_binomial":
        return params["count"] * (1.0 - params["p"]) / params["p"] ** 2
    if family == "scaled_beta":
        a, b = params["a"], params["b"]
        return params["scale"] ** 2 * a * b / ((a + b) ** 2 * (a + b + 1.0))
    raise ConfigError(f"unknown predictor family {family!r}")


def choose_families(n_slopes: int, rng: np.random.Generator,
                    cfg: SimConfig | None = None) -> list[str]:
    """Pick a distribution family per slope column with the configured
    mixture probabilities."""
    cfg = cfg or SimConfig()
    idx = rng.choice(len(FAMILIES), size=n_slopes, p=np.asarray(cfg.family_probs))
    return [FAMILIES[i] for i in idx]


def _sample_family_params(family: str, cfg: SimConfig, rng: np.random.Generator) -> dict:
    """Family parameters under the bounded-outcome-variance constraint:
    resample until column variance times the slope-scale bound stays under
    the cap."""
    bound = cfg.slope_scale_bound()
    for _ in range(1000):
        if family == "normal":
            params = {"mu": rng.uniform(*cfg.normal_mu), "sigma": rng.uniform(*cfg.normal_sigma)}
        elif family == "student_t":
            params = {"df": rng.uniform(*cfg.t_df), "loc": rng.uniform(*cfg.t_loc),
                      "scale": rng.uniform(*cfg.t_scale)}
        elif family == "uniform":
            params = {"lo": rng.uniform(*cfg.uniform_lo), "width": rng.uniform(*cfg.uniform_width)}
        elif family == "bernoulli":
            params = {"r": rng.uniform(*cfg.binary_corr)}
        elif family == "neg_binomial":
            params = {"count": int(rng.integers(cfg.nb_count[0], cfg.nb_count[1] + 1)),
                      "p": rng.uniform(*cfg.nb_p)}
        elif family == "scaled_beta":
            params = {"a": rng.uniform(*cfg.beta_ab), "b": rng.uniform(*cfg.beta_ab),
                      "scale": rng.uniform(*cfg.beta_scale)}
        else:
            raise ConfigError(f"unknown predictor family {family!r}")
        if _family_variance(family, params) * bound <= cfg.variance_cap:
            return params
    raise NumericError(f"could not satisfy the variance cap for family {family!r}")


def _sample_column(family: str, params: dict, n: int, rng: np.random.Generator) -> np.ndarray:
    if family == "normal":
        return rng.normal(params["mu"], params["sigma"], size=n)
    if family == "student_t":
        return params["loc"] + params["scale"] * rng.standard_t(params["df"], size=n)
    if family == "uniform":
        return rng.uniform(params["lo"], params["lo"] + params["width"], size=n)
    if family == "neg_binomial":
        return rng.negative_binomial(params["count"], params["p"], size=n).astype(np.float64)
    if family == "scaled_beta":
        return params["scale"] * rng.beta(params["a"], params["b"], size=n)
    raise ConfigError(f"family {family!r} has no direct sampler")


def sample_predictors(m: int, group_sizes: np.ndarray, d: int, rng: np.random.Generator,
                      cfg: SimConfig | None = None) -> np.ndarray:
    """Design matrix (m, n_max, d): constant intercept column plus d-1
    slope columns.

    Non-binary slope columns are drawn from their families and mixed
    through the lower Cholesky factor of an LKJ draw; binary columns are
    generated afterwards, each correlated with a uniformly chosen earlier
    column. Toy mode replaces all of this with independent standard
    normals.
    """
    cfg = cfg or SimConfig()
    group_sizes = np.asarray(group_sizes, dtype=np.int64)
    if group_sizes.shape[0] != m or np.any(group_sizes <= 0):
        raise ConfigError("group sizes must be positive and match m")
    n_total = int(group_sizes.sum())
    n_slopes = d - 1

    if cfg.toy or n_slopes == 0:
        flat = rng.normal(0.0, 1.0, size=(n_total, n_slopes))
    else:
        families = choose_families(n_slopes, rng, cfg)
        flat = np.zeros((n_total, n_slopes))
        nonbin = [j for j, f in enumerate(families) if f != "bernoulli"]
        for j in nonbin:
            params = _sample_family_params(families[j], cfg, rng)
            flat[:, j] = _sample_column(families[j], params, n_total, rng)
        if len(nonbin) > 1:
            L = lkj_cholesky_factor(len(nonbin), cfg.lkj_eta, rng)
            flat[:, nonbin] = flat[:, nonbin] @ L.T
        done = list(nonbin)
        for j in (j for j, f in enumerate(families) if f == "bernoulli"):
            params = _sample_family_params("bernoulli", cfg, rng)
            if done:
                src = flat[:, done[rng.integers(len(done))]]
                r = params["r"]
            else:
                src, r = np.zeros(n_total), 0.0
            flat[:, j] = correlated_binary(src, r, rng).astype(np.float64)
            done.append(j)

    n_max = int(group_sizes.max())
    X = np.zeros((m, n_max, d))
    offset = 0
    for i, n_i in enumerate(group_sizes):
        X[i, :n_i, 0] = 1.0
        if n_slopes:
            X[i, :n_i, 1:] = flat[offset:offset + n_i]
        offset += n_i
    return X


# ---------------------------------------------------------------------------
# assembly


def _make_z(X: np.ndarray, q: int) -> np.ndarray:
    Z = np.zeros_like(X)
    Z[:, :, :q] = X[:, :, :q]
    return Z


def assemble_dataset(prior: PriorSpec, gp: GlobalParams, lp: LocalParams,
                     X: np.ndarray, group_sizes: np.ndarray, rng: np.random.Generator,
                     dataset_id: str = "") -> HierDataset:
    """Outcomes from the linear mixed model with fresh Gaussian noise;
    padding stays zero and the full generating truth is recorded."""
    m, n_max, d = X.shape
    q = prior.q
    group_sizes = np.asarray(group_sizes, dtype=np.int64)
    mask = np.arange(n_max)[None, :] < group_sizes[:, None]
    Z = _make_z(X, q)
    noise = rng.normal(0.0, gp.sigma_eps, size=(m, n_max)) * mask
    y = (X @ gp.beta + np.einsum("mnq,mq->mn", Z[:, :, :q], lp.alpha) + noise) * mask
    if not np.all(np.isfinite(y)):
        raise NumericError("non-finite outcomes during assembly")
    truth = Truth(prior, gp, lp, noise)
    return HierDataset(X=X, Z=Z, y=y, mask=mask, group_sizes=group_sizes,
                       d=d, q=q, m=m, truth=truth, dataset_id=dataset_id)


def simulate_conjugate_dataset(d: int, rng: np.random.Generator,
                               n_range: tuple[int, int] = (20, 60),
                               nu_range: tuple[float, float] = (-2.0, 2.0),
                               tau_range: tuple[float, float] = (0.5, 3.0),
                               sigma_range: tuple[float, float] = (0.3, 1.5),
                               dataset_id: str = "") -> HierDataset:
    """Single-group fixed-effects-only dataset with known noise level.

    No random effects (q = 0), standard-normal slope columns, a normal
    prior on beta and a noise std dev that is drawn per dataset but treated
    as known: it rides in the tau_eps slot of the prior so conditioning
    networks can see it. The posterior over beta is Gaussian in closed
    form, which makes this family an end-to-end oracle.
    """
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    sizes = np.array([n])
    nu = rng.uniform(*nu_range, size=d)
    tau = rng.uniform(*tau_range, size=d)
    sigma_eps = float(rng.uniform(*sigma_range))
    prior = PriorSpec(nu, tau, np.zeros(0), sigma_eps)
    beta = rng.normal(nu, tau)
    gp = GlobalParams(beta, np.zeros(0), sigma_eps)
    lp = LocalParams(np.zeros((1, 0)))
    X = np.zeros((1, n, d))
    X[0, :, 0] = 1.0
    if d > 1:
        X[0, :, 1:] = rng.normal(size=(n, d - 1))
    return assemble_dataset(prior, gp, lp, X, sizes, rng, dataset_id=dataset_id)


def conjugate_posterior(ds: HierDataset) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gaussian posterior (mean, covariance) of beta for a
    conjugate-family dataset (known noise, no random effects)."""
    if ds.q != 0 or ds.truth is None:
        raise ConfigError("closed-form posterior needs a conjugate-family dataset")
    X = ds.X[0][ds.mask[0]]
    y = ds.y[0][ds.mask[0]]
    prior = ds.truth.prior
    sigma2 = prior.tau_eps ** 2
    prec = X.T @ X / sigma2 + np.diag(1.0 / prior.tau_beta ** 2)
    cov = np.linalg.inv(prec)
    mean = cov @ (X.T @ y / sigma2 + prior.nu_beta / prior.tau_beta ** 2)
    return mean, cov


def simulate_dataset(d: int, q: int, rng: np.random.Generator,
                     cfg: SimConfig | None = None, dataset_id: str = "") -> HierDataset:
    """One full draw from the generative story; rejects and redraws the
    rare dataset with non-finite outcomes."""
    cfg = cfg or SimConfig()
    for attempt in range(20):
        try:
            m = int(rng.integers(cfg.m_range[0], cfg.m_range[1] + 1))
            group_sizes = rng.integers(cfg.n_range[0], cfg.n_range[1] + 1, size=m)
            prior = sample_priors(1, d, q, rng, toy=cfg.toy)[0]
            gp, lp = sample_parameters(prior, m, rng)
            X = sample_predictors(m, group_sizes, d, rng, cfg)
            return assemble_dataset(prior, gp, lp, X, group_sizes, rng, dataset_id=dataset_id)
        except NumericError:
            log.warning("rejected dataset draw (attempt %d)", attempt + 1)
    raise NumericError("dataset simulation kept producing non-finite outcomes")


# ---------------------------------------------------------------------------
# derived quantities


def regenerate_outcomes(ds: HierDataset, beta: np.ndarray | None = None,
                        alpha: np.ndarray | None = None,
                        noise: np.ndarray | None = None) -> np.ndarray:
    """Recompute outcomes from (by default) the stored truth, using the
    exact expression assembly used, so matched inputs reproduce y bit for
    bit."""
    if ds.truth is None and (beta is None or alpha is None or noise is None):
        raise ConfigError("regenerate_outcomes needs truth or explicit parameters")
    beta = ds.truth.global_params.beta if beta is None else beta
    alpha = ds.truth.local_params.alpha if alpha is None else alpha
    noise = ds.truth.noise if noise is None else noise
    return (ds.X @ beta + np.einsum("mnq,mq->mn", ds.Z[:, :, :ds.q], alpha) + noise) * ds.mask


def snr(ds: HierDataset) -> float:
    """Signal-to-noise ratio V(y - eps) / V(eps) over unmasked cells."""
    if ds.truth is None:
        raise ConfigError("snr needs the generating truth")
    mask = ds.mask
    signal = (ds.y - ds.truth.noise)[mask]
    noise = ds.truth.noise[mask]
    v_noise = float(np.var(noise))
    if v_noise == 0.0:
        return float("inf")
    return float(np.var(signal)) / v_noise


def permute_columns(ds: HierDataset, perm: np.ndarray) -> HierDataset:
    """Apply one slope permutation consistently to X, Z, beta, alpha and
    the prior vectors. The intercept stays put and random-effect columns
    must map onto random-effect columns, otherwise Z would stop mirroring
    X."""
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(ds.d)) or perm[0] != 0:
        raise ConfigError("perm must permute 0..d-1 and fix the intercept")
    if ds.q >= 1 and sorted(perm[:ds.q].tolist()) != list(range(ds.q)):
        raise ConfigError("perm must map the random-effect block onto itself")
    X = ds.X[:, :, perm]
    Z = _make_z(X, ds.q)
    truth = ds.truth
    if truth is not None:
        qperm = perm[:ds.q]
        prior = PriorSpec(truth.prior.nu_beta[perm], truth.prior.tau_beta[perm],
                          truth.prior.tau_sigma[qperm], truth.prior.tau_eps)
        gp = GlobalParams(truth.global_params.beta[perm],
                          truth.global_params.sigma_alpha[qperm],
                          truth.global_params.sigma_eps)
        lp = LocalParams(truth.local_params.alpha[:, qperm])
        truth = Truth(prior, gp, lp, truth.noise)
    return HierDataset(X=X, Z=Z, y=ds.y, mask=ds.mask, group_sizes=ds.group_sizes,
                       d=ds.d, q=ds.q, m=ds.m, truth=truth, dataset_id=ds.dataset_id)
