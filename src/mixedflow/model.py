"""The joint posterior model: summary network plus two conditional flows.

The global flow models the fixed effects and (log-transformed) variance
parameters given the global summary and the prior hyperparameters; the
local flow models per-group random effects given the group's local summary
and the global parameter vector (the true one while training, the inferred
posterior mean at inference time).

Variance parameters enter the flows as logs; densities reported for
constrained parameters carry the matching Jacobian correction. Prior
hyperparameters are rescaled into standardized space before entering the
condition vector so their scale matches the data the network sees.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .draws import PosteriorDraws
from .errors import ConfigError, DataFormatError, DimensionError
from .flow import CouplingFlow
from .nn.checkpoint import check_arrays, load_checkpoint, save_checkpoint
from .nn.layers import Module
from .nn.tensor import Tensor, cat, no_grad
from .simulate import GlobalParams, HierDataset, PriorSpec, check_fields
from .standardize import StandardizationRecord, standardize_data, standardize_prior
from .summary import SummaryNetwork

__all__ = ["Architecture", "ModelConfig", "PosteriorModel", "Batch", "make_batch",
           "theta_unconstrained", "save_model", "load_model"]

LOG_SIGMA_CLIP = 12.0  # training targets: log std devs clipped to +-12
DTYPE = np.float32     # the model's parameters, activations and batches


def _safe_log(x) -> np.ndarray:
    return np.clip(np.log(np.maximum(x, 1e-300)), -LOG_SIGMA_CLIP, LOG_SIGMA_CLIP)


def theta_unconstrained(gp: GlobalParams, infer_noise: bool = True) -> np.ndarray:
    """[beta, log sigma_alpha, log sigma_eps] with clipped logs."""
    parts = [gp.beta]
    if gp.sigma_alpha.size:
        parts.append(_safe_log(gp.sigma_alpha))
    if infer_noise:
        parts.append(np.atleast_1d(_safe_log(gp.sigma_eps)))
    return np.concatenate(parts)


@dataclass(kw_only=True)
class Architecture:
    """The network sizes, shared by a model and the run that trains it."""

    width: int = 128
    summary_blocks: int = 4
    heads: int = 8
    flow_blocks: int = 4
    flow_hidden: int = 128
    dropout: float = 0.01


@dataclass(kw_only=True)
class ModelConfig(Architecture):
    d: int
    q: int
    infer_noise: bool = True
    LOW = {"d": 1, "q": 0, "width": 1, "summary_blocks": 0, "heads": 1, "flow_blocks": 0,
           "flow_hidden": 1, "dropout": 0}   # lower bounds, by field name; not a field

    def __post_init__(self):
        check_fields(self, self.LOW)
        if self.q > self.d:
            raise ConfigError(f"q={self.q} must lie in [0, d={self.d}]")
        if self.width % self.heads != 0:
            raise ConfigError(f"width {self.width} not divisible by heads {self.heads}")
        if self.dropout >= 1:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout!r}")

    @property
    def p_global(self) -> int:
        return self.d + self.q + (1 if self.infer_noise else 0)

    @property
    def prior_dim(self) -> int:
        return 2 * self.d + self.q + 1

    @property
    def standardize(self) -> bool:
        """A known-noise (conjugate-family) model sees raw data."""
        return self.infer_noise


@dataclass
class Batch:
    """Padded batch of standardized datasets plus training targets."""

    X: np.ndarray            # (B, m, n, d)
    Z: np.ndarray            # (B, m, n, d): the first q columns of X, zero beyond
    y: np.ndarray            # (B, m, n)
    mask: np.ndarray         # (B, m, n) bool
    group_mask: np.ndarray   # (B, m) bool
    prior_feats: np.ndarray  # (B, prior_dim)
    theta_u: np.ndarray | None       # (B, p_global) unconstrained truth
    alpha_std: np.ndarray | None     # (B, m, q) standardized truth
    recs: list[StandardizationRecord]  # data scale -> batch scale, per dataset

    @property
    def size(self) -> int:
        return self.X.shape[0]


class PosteriorModel(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator | None = None):
        super().__init__()
        self.cfg = cfg
        self.summary = self.register("summary", SummaryNetwork(
            cfg.d, cfg.width, cfg.summary_blocks, cfg.heads, cfg.dropout, rng))
        self.global_flow = self.register("global_flow", CouplingFlow(
            cfg.p_global, cfg.width + cfg.prior_dim, rng, cfg.flow_blocks,
            cfg.flow_hidden, cfg.dropout, name="global-flow"))
        self.local_flow = None
        if cfg.q >= 1:
            self.local_flow = self.register("local_flow", CouplingFlow(
                cfg.q, cfg.width + cfg.p_global, rng, cfg.flow_blocks,
                cfg.flow_hidden, cfg.dropout, name="local-flow"))

    # -- parameter-space plumbing ---------------------------------------------

    def constrain(self, u: np.ndarray) -> np.ndarray:
        """Map unconstrained draws back to [beta, sigma_alpha, sigma_eps]."""
        out = np.array(u, dtype=np.float64, copy=True)
        out[..., self.cfg.d:] = np.exp(out[..., self.cfg.d:])
        return out

    def log_jacobian_to_constrained(self, u: np.ndarray) -> np.ndarray:
        """log density correction: constrained density = unconstrained
        density minus the sum of the log-sigma coordinates."""
        return -np.sum(np.asarray(u)[..., self.cfg.d:], axis=-1)

    # -- losses ---------------------------------------------------------------

    def encode(self, batch: Batch, rng: np.random.Generator | None = None) -> tuple[Tensor, Tensor]:
        return self.summary(batch.X, batch.Z, batch.y, batch.mask, batch.group_mask, rng)

    def _global_cond(self, s_global: Tensor, prior_feats: np.ndarray) -> Tensor:
        return cat([s_global, Tensor(prior_feats.astype(DTYPE))], axis=-1)

    def global_nll(self, batch: Batch, s_global: Tensor,
                   rng: np.random.Generator | None = None) -> Tensor:
        """Per-dataset negative log density of the true global parameters,
        including the variance log-transform Jacobian; shape (B,)."""
        if batch.theta_u is None:
            raise ConfigError("batch carries no global truth")
        cond = self._global_cond(s_global, batch.prior_feats)
        u = Tensor(batch.theta_u.astype(DTYPE))
        log_prob_u = self.global_flow.log_prob(u, cond, rng)
        jac = Tensor(self.log_jacobian_to_constrained(batch.theta_u).astype(DTYPE))
        return -(log_prob_u + jac)

    def local_nll(self, batch: Batch, s_local: Tensor,
                  rng: np.random.Generator | None = None) -> Tensor:
        """Per-dataset sum over real groups of the random-effect negative
        log density, teacher-forced on the true global parameters."""
        if self.local_flow is None:
            raise ConfigError("model has no local flow (q = 0)")
        if batch.alpha_std is None or batch.theta_u is None:
            raise ConfigError("batch carries no local truth")
        b, m = batch.group_mask.shape
        theta_rep = np.repeat(batch.theta_u[:, None, :], m, axis=1).reshape(b * m, -1)
        cond = cat([s_local.reshape(b * m, self.cfg.width),
                    Tensor(theta_rep.astype(DTYPE))], axis=-1)
        alpha = Tensor(batch.alpha_std.reshape(b * m, self.cfg.q).astype(DTYPE))
        log_prob = self.local_flow.log_prob(alpha, cond, rng)
        keep = Tensor(batch.group_mask.reshape(b * m).astype(DTYPE))
        per_group = (-log_prob) * keep
        return per_group.reshape(b, m).sum(axis=1)

    def loss_components(self, batch: Batch, rng: np.random.Generator | None = None
                        ) -> tuple[Tensor, Tensor]:
        s_local, s_global = self.encode(batch, rng)
        g = self.global_nll(batch, s_global, rng)
        if self.local_flow is not None:
            l = self.local_nll(batch, s_local, rng)
        else:
            l = Tensor(np.zeros(batch.size, dtype=DTYPE))
        return g, l

    def loss(self, batch: Batch, rng: np.random.Generator | None = None) -> Tensor:
        g, l = self.loss_components(batch, rng)
        return (g + l).mean()

    # -- inference --------------------------------------------------------------

    def posterior(self, ds: HierDataset, k: int, rng: np.random.Generator,
                  prior: PriorSpec | None = None) -> PosteriorDraws:
        """Amortized posterior: check and standardize `ds` (`make_batch`),
        summarize, draw k global samples, then k local samples per group
        conditioned on the global posterior mean. `prior` is data-scale;
        without it the dataset's recorded prior is used."""
        was_training = self.training
        self.set_training(False)
        try:
            with no_grad():
                batch = make_batch([ds], self.cfg, None if prior is None else [prior])
                s_local, s_global = self.encode(batch)
                cond_g = np.concatenate([s_global.data[0], batch.prior_feats[0]])
                u, log_q_u = self.global_flow.sample(cond_g, k, rng)
                global_std = self.constrain(u)
                log_q = log_q_u + self.log_jacobian_to_constrained(u)

                local_std = log_q_local = None
                if self.local_flow is not None:
                    u_mean = u.mean(axis=0)
                    m = ds.m
                    cond_l = np.concatenate([
                        s_local.data[0],                                      # (m, w)
                        np.tile(u_mean, (m, 1)).astype(s_local.data.dtype),
                    ], axis=-1)
                    a, lq = self.local_flow.sample_grouped(cond_l, k, rng)
                    local_std = a.swapaxes(0, 1)
                    log_q_local = lq.T
                return PosteriorDraws(
                    global_std=global_std, log_q_global=log_q, d=self.cfg.d,
                    q=self.cfg.q, infer_noise=self.cfg.infer_noise, rec=batch.recs[0],
                    local_std=local_std, log_q_local=log_q_local,
                    dataset_id=ds.dataset_id)
        finally:
            self.set_training(was_training)


# ---------------------------------------------------------------------------
# batching


def make_batch(datasets: list[HierDataset], cfg: ModelConfig,
               priors: list[PriorSpec] | None = None) -> Batch:
    """Check data-scale datasets against the model's (d, q), standardize
    them when the model does and pad them to a common (m, n) grid; `priors`
    (data-scale) default to the recorded ones. Truth targets are included
    when every dataset carries them."""
    if not datasets:
        raise ConfigError("empty batch")
    b = len(datasets)
    m_max = max(ds.m for ds in datasets)
    n_max = max(ds.X.shape[1] for ds in datasets)
    X = np.zeros((b, m_max, n_max, cfg.d), dtype=DTYPE)
    y = np.zeros((b, m_max, n_max), dtype=DTYPE)
    mask = np.zeros((b, m_max, n_max), dtype=bool)
    group_mask = np.zeros((b, m_max), dtype=bool)
    theta_u = np.zeros((b, cfg.p_global))
    alpha_std = np.zeros((b, m_max, cfg.q))
    prior_feats = np.zeros((b, cfg.prior_dim))
    rec_list: list[StandardizationRecord] = []
    have_truth = True
    for i, ds in enumerate(datasets):
        if ds.d != cfg.d or ds.q != cfg.q:
            raise DimensionError(f"dataset {i} is (d={ds.d}, q={ds.q}), "
                                 f"model expects (d={cfg.d}, q={cfg.q})")
        if cfg.standardize:
            ds, rec = standardize_data(ds)
        else:  # the identity record would copy `ds` unchanged
            rec = StandardizationRecord.identity(ds.d)
        rec_list.append(rec)
        mi, ni = ds.m, ds.X.shape[1]
        X[i, :mi, :ni] = ds.X
        y[i, :mi, :ni] = ds.y
        mask[i, :mi, :ni] = ds.mask
        group_mask[i, :mi] = True
        if ds.truth is None:
            have_truth = False
        else:
            theta_u[i] = theta_unconstrained(ds.truth.global_params, cfg.infer_noise)
            alpha_std[i, :mi] = ds.truth.local_params.alpha
        # priors recorded on the (possibly standardized) datasets are already
        # in the right space (standardize_data records standardize_prior of the
        # data-scale one); passed priors get rescaled against each record
        if priors is not None:
            p = standardize_prior(priors[i], rec)
        elif ds.truth is not None:
            p = ds.truth.prior
        else:
            raise ConfigError(f"no prior given and dataset {i} has no recorded one")
        prior_feats[i] = np.concatenate([p.nu_beta, p.tau_beta, p.tau_sigma, [p.tau_eps]])
    Z = np.where(np.arange(cfg.d) < cfg.q, X, 0)
    if not have_truth:
        theta_u = alpha_std = None

    return Batch(X=X, Z=Z, y=y, mask=mask, group_mask=group_mask,
                 prior_feats=prior_feats, theta_u=theta_u, alpha_std=alpha_std,
                 recs=rec_list)


# ---------------------------------------------------------------------------
# persistence


def save_model(path, model: PosteriorModel, extra_manifest: dict | None = None,
               opt_arrays: dict[str, np.ndarray] | None = None) -> str:
    manifest = {"kind": "posterior-model", **asdict(model.cfg)}
    if extra_manifest:
        manifest.update(extra_manifest)
    arrays = {f"model.{name}": p.data for name, p in model.named_parameters()}
    if opt_arrays:
        arrays.update({f"opt.{k}": v for k, v in opt_arrays.items()})
    return save_checkpoint(path, manifest, arrays)


def load_model(path) -> tuple[PosteriorModel, dict, dict[str, np.ndarray]]:
    """Returns (model, manifest, optimizer arrays if present). The
    checkpoint's model.* arrays must be exactly the model's parameters,
    with their shapes; anything else is a DataFormatError."""
    manifest, arrays, digest = load_checkpoint(path)
    if manifest.get("kind") != "posterior-model":
        raise ConfigError(f"{path} is not a posterior-model checkpoint")
    try:
        cfg = ModelConfig(**{f.name: manifest[f.name] for f in fields(ModelConfig)})
        model = PosteriorModel(cfg)
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise DataFormatError(f"{path}: manifest does not describe a model ({exc!r})") from None
    # older manifests record the dtype and standardize switches the model now fixes
    if (manifest.get("dtype", "float32") != "float32"
            or manifest.get("standardize", cfg.standardize) != cfg.standardize):
        raise DataFormatError(f"{path}: a float32 model that standardizes exactly when it "
                              f"infers the noise was expected, the manifest records dtype "
                              f"{manifest.get('dtype')!r} and standardize "
                              f"{manifest.get('standardize')!r}")
    named = dict(model.named_parameters())
    stored = {k[len("model."):]: v for k, v in arrays.items() if k.startswith("model.")}
    check_arrays(f"{path}: parameters", stored, {n: p.data.shape for n, p in named.items()})
    for name, value in stored.items():
        named[name].data = value.astype(named[name].data.dtype, copy=False)
    opt_arrays = {k[len("opt."):]: v for k, v in arrays.items() if k.startswith("opt.")}
    manifest["checkpoint_id"] = digest
    return model, manifest, opt_arrays
