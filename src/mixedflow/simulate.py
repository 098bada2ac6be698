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
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DimensionError, NumericError

log = logging.getLogger(__name__)

__all__ = [
    "PriorSpec", "GlobalParams", "LocalParams", "Truth", "HierDataset",
    "SimConfig", "check_fields", "sample_priors", "sample_parameters", "sample_predictors",
    "correlated_binary", "binary_probs", "choose_families",
    "lkj_correlation", "lkj_cholesky_factor", "assemble_dataset",
    "simulate_dataset", "simulate_conjugate_dataset", "conjugate_posterior",
    "regenerate_outcomes", "snr", "permute_columns",
    "FAMILIES", "FAMILY_PROBS",
]


# the prior scales whose squares are normal floats (2**-1022 to 2**1022)
PRIOR_SCALE_RANGE = (2.0 ** -511, 2.0 ** 511)


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
        scales = np.concatenate([self.tau_beta, self.tau_sigma, [self.tau_eps]])
        # standardize_prior sums squared scales; a square that overflows or
        # leaves the normal floats would make the moved prior inf or 0
        if not np.all((scales >= PRIOR_SCALE_RANGE[0]) & (scales <= PRIOR_SCALE_RANGE[1])):
            raise ConfigError("prior scales must be positive and lie in [2**-511, 2**511]")

    def to_json(self) -> dict:
        return {"nu_beta": self.nu_beta.tolist(), "tau_beta": self.tau_beta.tolist(),
                "tau_sigma": self.tau_sigma.tolist(), "tau_eps": self.tau_eps}

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

    def vector(self, noise: bool = True) -> np.ndarray:
        """[beta (d), sigma_alpha (q), sigma_eps (with `noise`)]: the column
        layout of every global draw array."""
        return np.concatenate([self.beta, self.sigma_alpha, [self.sigma_eps] if noise else []])

    @staticmethod
    def layout(d: int, q: int, noise: bool = True) -> list[tuple[str, str]]:
        """(name, role) of each entry of `vector`: fixed effects, then the
        variance parameters."""
        return ([(f"beta[{j}]", "fixed") for j in range(d)]
                + [(f"sigma[{j}]", "variance") for j in range(q)]
                + ([("sigma_eps", "variance")] if noise else []))


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

    X: (m, n_max, d); y: (m, n_max); mask: (m, n_max) bool. Padded cells are
    zero. The random-effect design Z is the first q columns of X, so it is a
    view, not stored; d, m and the group sizes are read off the arrays.
    """

    X: np.ndarray
    y: np.ndarray
    mask: np.ndarray
    q: int
    truth: Truth | None = None
    dataset_id: str = ""

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.X.shape[:2] != self.y.shape or self.mask.shape != self.y.shape:
            raise DimensionError(f"inconsistent dataset arrays: X {self.X.shape}, "
                                 f"y {self.y.shape}, mask {self.mask.shape}")

    @property
    def Z(self) -> np.ndarray:
        """(m, n_max, q) view of the random-effect columns of X."""
        return self.X[:, :, :self.q]

    @property
    def d(self) -> int:
        return self.X.shape[2]

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def group_sizes(self) -> np.ndarray:
        return self.mask.sum(axis=1)

    @property
    def n_total(self) -> int:
        return int(self.mask.sum())


# ---------------------------------------------------------------------------
# configuration


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# (test, description) by field annotation: a bool is no number, 2.5 no integer
_FIELD_KINDS = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: _is_int(v) or isinstance(v, float) and np.isfinite(v), "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[int, int]": (lambda v: isinstance(v, tuple) and len(v) == 2 and all(map(_is_int, v))
                        and 1 <= v[0] <= v[1], "two integers 1 <= lo <= hi"),
}


def _plain(value):
    """value with each numpy scalar, also inside a tuple, as the Python
    int, float or bool it holds."""
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return value.item() if isinstance(value, np.generic) else value


def check_fields(cfg, low: dict[str, int]) -> None:
    """Check each field of the config dataclass `cfg` against its annotation
    and its lower bound in `low`, if any; a ConfigError names the field.
    A numpy scalar it accepts is stored as the Python number, so the config
    serializes to JSON."""
    for f in fields(cfg):
        value, (test, kind) = getattr(cfg, f.name), _FIELD_KINDS[f.type]
        if not (test(value) and value >= low.get(f.name, value)):
            bound = f" >= {low[f.name]}" if f.name in low else ""
            raise ConfigError(f"{f.name} must be {kind}{bound}, got {value!r}")
        setattr(cfg, f.name, _plain(value))


@dataclass(kw_only=True)
class SimConfig:
    """Knobs for dataset generation: group counts and sizes (by default 5..30
    groups of 5..70), toy mode and the family ("full" or "conjugate")."""

    m_range: tuple[int, int] = (5, 30)
    n_range: tuple[int, int] = (5, 70)
    toy: bool = False
    family: str = "full"
    LOW = {}   # lower bounds of numeric fields, by name; not a field

    def __post_init__(self):
        check_fields(self, self.LOW)
        if self.family not in ("full", "conjugate"):
            raise ConfigError(f"family must be 'full' or 'conjugate', got {self.family!r}")


LKJ_ETA = 10.0           # concentration of the slope-column correlation
VARIANCE_CAP = 1e3       # bound on column variance times SLOPE_SCALE_BOUND
SLOPE_SCALE_BOUND = 20.0  # widest non-toy slope prior scale


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


# family: (mixture weight; parameter draw, its draws in RNG order; column
# variance; column sampler). Binary columns come from correlated_binary
# instead. The parameter ranges are documented choices, not pinned anywhere.
_FAMILY_SPECS = {
    "normal": (
        0.10,
        lambda rng: {"mu": rng.uniform(-3.0, 3.0), "sigma": rng.uniform(0.5, 3.0)},
        lambda p: p["sigma"] ** 2,
        lambda p, n, rng: rng.normal(p["mu"], p["sigma"], size=n)),
    "student_t": (
        0.40,
        lambda rng: {"df": rng.uniform(3.0, 30.0), "loc": rng.uniform(-3.0, 3.0),
                     "scale": rng.uniform(0.5, 3.0)},
        lambda p: p["scale"] ** 2 * p["df"] / (p["df"] - 2.0),
        lambda p, n, rng: p["loc"] + p["scale"] * rng.standard_t(p["df"], size=n)),
    "uniform": (
        0.05,
        lambda rng: {"lo": rng.uniform(-5.0, 0.0), "width": rng.uniform(1.0, 10.0)},
        lambda p: p["width"] ** 2 / 12.0,
        lambda p, n, rng: rng.uniform(p["lo"], p["lo"] + p["width"], size=n)),
    "bernoulli": (0.25, lambda rng: {"r": rng.uniform(-0.9, 0.9)}, lambda p: 0.25, None),
    "neg_binomial": (
        0.10,
        lambda rng: {"count": int(rng.integers(1, 11)), "p": rng.uniform(0.3, 0.8)},
        lambda p: p["count"] * (1.0 - p["p"]) / p["p"] ** 2,
        lambda p, n, rng: rng.negative_binomial(p["count"], p["p"], size=n).astype(np.float64)),
    "scaled_beta": (
        0.10,
        lambda rng: {"a": rng.uniform(0.5, 5.0), "b": rng.uniform(0.5, 5.0),
                     "scale": rng.uniform(1.0, 10.0)},
        lambda p: p["scale"] ** 2 * p["a"] * p["b"]
        / ((p["a"] + p["b"]) ** 2 * (p["a"] + p["b"] + 1.0)),
        lambda p, n, rng: p["scale"] * rng.beta(p["a"], p["b"], size=n)),
}
FAMILIES = tuple(_FAMILY_SPECS)
FAMILY_PROBS = tuple(spec[0] for spec in _FAMILY_SPECS.values())


def choose_families(n_slopes: int, rng: np.random.Generator) -> list[str]:
    """Pick a distribution family per slope column with the mixture
    probabilities."""
    idx = rng.choice(len(FAMILIES), size=n_slopes, p=np.asarray(FAMILY_PROBS))
    return [FAMILIES[i] for i in idx]


def _sample_family_params(family: str, rng: np.random.Generator) -> dict:
    """Family parameters under the bounded-outcome-variance constraint:
    resample until column variance times the slope-scale bound stays under
    the cap."""
    _, draw, variance, _ = _FAMILY_SPECS[family]
    for _ in range(1000):
        params = draw(rng)
        if variance(params) * SLOPE_SCALE_BOUND <= VARIANCE_CAP:
            return params
    raise NumericError(f"could not satisfy the variance cap for family {family!r}")


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
        families = choose_families(n_slopes, rng)
        flat = np.zeros((n_total, n_slopes))
        nonbin = [j for j, f in enumerate(families) if f != "bernoulli"]
        for j in nonbin:
            params = _sample_family_params(families[j], rng)
            sample = _FAMILY_SPECS[families[j]][-1]
            flat[:, j] = sample(params, n_total, rng)
        if len(nonbin) > 1:
            L = lkj_cholesky_factor(len(nonbin), LKJ_ETA, rng)
            flat[:, nonbin] = flat[:, nonbin] @ L.T
        done = list(nonbin)
        for j in (j for j, f in enumerate(families) if f == "bernoulli"):
            params = _sample_family_params("bernoulli", rng)
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


def assemble_dataset(prior: PriorSpec, gp: GlobalParams, lp: LocalParams,
                     X: np.ndarray, group_sizes: np.ndarray, rng: np.random.Generator,
                     dataset_id: str = "") -> HierDataset:
    """Outcomes from the linear mixed model with fresh Gaussian noise;
    padding stays zero and the full generating truth is recorded."""
    m, n_max, _ = X.shape
    q = prior.q
    group_sizes = np.asarray(group_sizes, dtype=np.int64)
    mask = np.arange(n_max)[None, :] < group_sizes[:, None]
    noise = rng.normal(0.0, gp.sigma_eps, size=(m, n_max)) * mask
    y = (X @ gp.beta + np.einsum("mnq,mq->mn", X[:, :, :q], lp.alpha) + noise) * mask
    if not np.all(np.isfinite(y)):
        raise NumericError("non-finite outcomes during assembly")
    truth = Truth(prior, gp, lp, noise)
    return HierDataset(X=X, y=y, mask=mask, q=q, truth=truth, dataset_id=dataset_id)


def simulate_conjugate_dataset(d: int, rng: np.random.Generator,
                               n_range: tuple[int, int] = (20, 60),
                               dataset_id: str = "") -> HierDataset:
    """Single-group fixed-effects-only dataset with known noise level.

    No random effects (q = 0), standard-normal slope columns, a normal
    prior on beta (means uniform on (-2, 2), std devs on (0.5, 3)) and a
    noise std dev that is drawn uniform on (0.3, 1.5) per dataset but treated
    as known: it rides in the tau_eps slot of the prior so conditioning
    networks can see it. The posterior over beta is Gaussian in closed
    form, which makes this family an end-to-end oracle.
    """
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    sizes = np.array([n])
    nu = rng.uniform(-2.0, 2.0, size=d)
    tau = rng.uniform(0.5, 3.0, size=d)
    sigma_eps = float(rng.uniform(0.3, 1.5))
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
    """One draw of `cfg`'s family: the generative story, redrawing the rare
    dataset with non-finite outcomes, or a conjugate one (q is ignored)."""
    cfg = cfg or SimConfig()
    if cfg.family == "conjugate":
        return simulate_conjugate_dataset(d, rng, n_range=cfg.n_range, dataset_id=dataset_id)
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
    return (ds.X @ beta + np.einsum("mnq,mq->mn", ds.Z, alpha) + noise) * ds.mask


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
    """Apply one slope permutation consistently to X, beta, alpha and the
    prior vectors. The intercept stays put and random-effect columns must
    map onto random-effect columns, because Z is the first q columns of
    X."""
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(ds.d)) or perm[0] != 0:
        raise ConfigError("perm must permute 0..d-1 and fix the intercept")
    if ds.q >= 1 and sorted(perm[:ds.q].tolist()) != list(range(ds.q)):
        raise ConfigError("perm must map the random-effect block onto itself")
    X = ds.X[:, :, perm]
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
    return HierDataset(X=X, y=ds.y, mask=ds.mask, q=ds.q, truth=truth,
                       dataset_id=ds.dataset_id)
