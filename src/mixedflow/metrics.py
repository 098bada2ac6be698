"""Evaluation metrics and diagnostics.

Recovery (Pearson r, RMSE, bias) compares data-scale posterior means with
data-scale truths. Coverage error CE(alpha) is the empirical hit rate of
the (1 - alpha) credible interval minus its nominal mass; hits are scored
on standardized components, where the interval construction (and any
conformal adjustment) lives, by the border distance that conformal
calibration scores (a hit is a distance of at most zero). Reports
aggregate per parameter role: fixed effects, variance parameters, random
effects.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .draws import PosteriorDraws
from .errors import ConfigError, DataFormatError, DimensionError
from .refine import ALPHA_GRID, ConformalTable, _border_scores, apply_calibration
from .simulate import HierDataset, regenerate_outcomes, snr
from .standardize import StandardizationRecord, standardize_params

__all__ = [
    "recovery", "coverage_error", "mad_outliers", "posterior_predictive",
    "DatasetEval", "evaluate_dataset", "MetricReport", "aggregate",
    "split_report", "ingest_external_samples",
]

ROLES = ("fixed", "variance", "random")


def recovery(truths: np.ndarray, means: np.ndarray) -> tuple[float, float, float]:
    """(Pearson r, RMSE, bias) between true parameters and posterior
    means; r is nan when either side has zero variance."""
    truths = np.asarray(truths, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    if truths.shape != means.shape or truths.ndim != 1:
        raise DimensionError("recovery expects two equal-length vectors")
    if truths.size < 2:
        raise ConfigError("recovery needs at least two pairs")
    rmse = float(np.sqrt(np.mean((means - truths) ** 2)))
    bias = float(np.mean(means - truths))
    if truths.std() == 0.0 or means.std() == 0.0:
        return float("nan"), rmse, bias
    r = float(np.corrcoef(truths, means)[0, 1])
    return r, rmse, bias


def coverage_error(hits: np.ndarray, alpha: float) -> float:
    """Mean of the hit indicators minus the nominal mass (1 - alpha)."""
    hits = np.asarray(hits, dtype=np.float64)
    if hits.size < 1:
        raise ConfigError("coverage error needs at least one indicator")
    return float(hits.mean() - (1.0 - alpha))


def mad_outliers(x: np.ndarray, threshold: float = 3.0) -> np.ndarray:
    """Flag |x - median| / (1.4826 * MAD) > threshold.

    MAD of zero makes the robust z-score infinite for any deviation, so
    values off the median are flagged then; a fully constant sample has no
    deviations and produces no flags.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < 3:
        raise ConfigError("outlier flagging needs at least three values")
    med = np.median(x)
    dev = np.abs(x - med)
    mad = np.median(dev)
    if mad == 0.0:
        return dev > 0.0
    return dev / (1.4826 * mad) > threshold


def posterior_predictive(ds: HierDataset, draws: PosteriorDraws, t: int,
                         rng: np.random.Generator,
                         noise_override: np.ndarray | None = None) -> np.ndarray:
    """Outcomes regenerated from t posterior draws with fresh noise,
    on the data scale, shape (t, total_n).

    Draw selection is weighted resampling when importance weights are
    present, otherwise the first t draws. noise_override (shape (m, n_max))
    bypasses the fresh noise, e.g. to replay the recorded noise exactly.
    """
    if t < 1:
        raise ConfigError("need at least one predictive draw")
    g = draws.global_data()
    if draws.weights is not None:
        idx = rng.choice(draws.k, size=t, replace=True, p=draws.weights / draws.weights.sum())
    elif t <= draws.k:
        idx = np.arange(t)
    else:
        idx = rng.integers(0, draws.k, size=t)
    out = np.empty((t, ds.n_total))
    local = draws.local_data() if (ds.q and draws.local_std is not None) else None
    for row, j in enumerate(idx):
        beta = g[j, :ds.d]
        alpha = local[j] if local is not None else np.zeros((ds.m, ds.q))
        if noise_override is not None:
            noise = noise_override
        else:
            sigma_eps = g[j, ds.d + ds.q] if draws.infer_noise else _known_sigma(ds)
            noise = rng.normal(0.0, max(float(sigma_eps), 0.0), size=ds.y.shape) * ds.mask
        y = regenerate_outcomes(ds, beta=beta, alpha=alpha[:ds.m], noise=noise)
        out[row] = y[ds.mask]
    return out


def _known_sigma(ds: HierDataset) -> float:
    if ds.truth is None:
        raise ConfigError("known-noise predictive needs the recorded truth")
    return float(ds.truth.prior.tau_eps)


# ---------------------------------------------------------------------------
# per-dataset evaluation


@dataclass
class DatasetEval:
    dataset_id: str
    n_total: int
    snr: float
    truths: dict[str, np.ndarray]
    means: dict[str, np.ndarray]
    hits: dict[tuple[str, float], np.ndarray]


def evaluate_dataset(ds: HierDataset, draws: PosteriorDraws,
                     table: ConformalTable | None = None,
                     alphas: tuple[float, ...] = ALPHA_GRID) -> DatasetEval:
    """Truth-vs-posterior summary for one simulated dataset."""
    if ds.truth is None:
        raise ConfigError("evaluation needs the generating truth")
    gp, lp = ds.truth.global_params, ds.truth.local_params
    truths = {
        "fixed": gp.beta.copy(),
        "variance": np.concatenate([gp.sigma_alpha,
                                    [gp.sigma_eps] if draws.infer_noise else []]),
    }
    g_mean = draws.global_mean(data_scale=True)
    means = {
        "fixed": g_mean[:ds.d],
        "variance": g_mean[ds.d:],
    }
    if ds.q and draws.local_std is not None:
        truths["random"] = lp.alpha.reshape(-1)
        means["random"] = draws.local_mean(data_scale=True)[:ds.m].reshape(-1)

    scores = _border_scores(draws, apply_calibration(draws, table, alphas),
                            *standardize_params(gp, lp, draws.rec))
    hits = {(role, alpha): s[a] <= 0 for role, s in scores.items()
            for a, alpha in enumerate(alphas)}
    return DatasetEval(
        dataset_id=ds.dataset_id, n_total=ds.n_total,
        snr=snr(ds) if ds.truth is not None else float("nan"),
        truths=truths, means=means, hits=hits)


@dataclass
class MetricReport:
    per_role: dict[str, dict]
    n_datasets: int
    descriptors: dict[str, float] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)

    def row_iter(self):
        for role, stats in self.per_role.items():
            row = {"role": role, "r": stats["r"], "rmse": stats["rmse"], "bias": stats["bias"],
                   "ce_mean": stats["ce_mean"]}
            for alpha, ce in stats["ce"].items():
                row[f"ce_{alpha}"] = ce
            yield row


def aggregate(evals: list[DatasetEval], alphas: tuple[float, ...] = ALPHA_GRID,
              provenance: dict | None = None) -> MetricReport:
    """Pool per-dataset evaluations into one report per parameter role."""
    if not evals:
        raise ConfigError("nothing to aggregate")
    per_role = {}
    for role in ROLES:
        if not any(role in e.truths for e in evals):
            continue
        truths = np.concatenate([e.truths[role] for e in evals if role in e.truths])
        means = np.concatenate([e.means[role] for e in evals if role in e.means])
        r, rmse, bias = recovery(truths, means)
        ce = {}
        for alpha in alphas:
            hit_arr = [e.hits[(role, alpha)] for e in evals if (role, alpha) in e.hits]
            ce[alpha] = coverage_error(np.concatenate(hit_arr), alpha) if hit_arr else float("nan")
        per_role[role] = {"r": r, "rmse": rmse, "bias": bias, "ce": ce,
                          "ce_mean": float(np.nanmean(list(ce.values())))}
    descriptors = {
        "mean_n": float(np.mean([e.n_total for e in evals])),
        "mean_snr": float(np.nanmean([e.snr for e in evals])),
    }
    return MetricReport(per_role=per_role, n_datasets=len(evals),
                        descriptors=descriptors, provenance=provenance or {})


def split_report(evals: list[DatasetEval], key: str,
                 alphas: tuple[float, ...] = ALPHA_GRID) -> tuple[MetricReport, MetricReport]:
    """Median split on `key` ("n" or "snr"); returns (top, bottom) reports.
    Ties at the median go by dataset id for a deterministic partition."""
    if len(evals) < 2:
        raise ConfigError("a split needs at least two datasets")
    if key == "n":
        values = np.array([e.n_total for e in evals], dtype=np.float64)
    elif key.lower() == "snr":
        values = np.array([e.snr for e in evals], dtype=np.float64)
    else:
        raise ConfigError(f"unknown split key {key!r}")
    med = float(np.median(values))
    top, bottom = [], []
    ties = sorted((e for e, v in zip(evals, values) if v == med),
                  key=lambda e: e.dataset_id)
    for e, v in zip(evals, values):
        if v > med:
            top.append(e)
        elif v < med:
            bottom.append(e)
    for rank, e in enumerate(ties):
        (top if rank % 2 == 0 else bottom).append(e)
    if not top or not bottom:
        raise ConfigError("degenerate split: one half is empty")
    return (aggregate(top, alphas, {"split": f"{key}-top"}),
            aggregate(bottom, alphas, {"split": f"{key}-bottom"}))


# ---------------------------------------------------------------------------
# external samples


def ingest_external_samples(path, mad_threshold: float = 3.0) -> tuple[PosteriorDraws, dict]:
    """Read externally produced posterior samples (CSV: chain, draw,
    parameter, value), pick the chain with the fewest MAD outliers, and
    wrap it as uniform-weighted draws.

    Parameter names follow the draw-file convention: beta[j], sigma[j],
    sigma_eps, alpha[i,j]. Returns (draws, info) where info records the
    per-chain outlier counts and the selected chain.
    """
    series: dict[tuple[str, str], list[tuple[int, float]]] = {}
    bad_lines = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:4]] != ["chain", "draw", "parameter", "value"]:
            raise DataFormatError(f"{path}: expected header chain,draw,parameter,value")
        for lineno, row in enumerate(reader, start=2):
            if len(row) < 4:
                bad_lines.append(lineno)
                continue
            try:
                chain, draw = row[0].strip(), int(row[1])
                param, value = row[2].strip(), float(row[3])
            except ValueError:
                bad_lines.append(lineno)
                continue
            series.setdefault((chain, param), []).append((draw, value))
    if bad_lines:
        raise DataFormatError(f"{path}: malformed rows at lines {bad_lines[:20]}")
    if not series:
        raise DataFormatError(f"{path}: no samples found")

    chains = sorted({c for c, _ in series})
    outlier_counts = {}
    for chain in chains:
        count = 0
        for (c, param), vals in series.items():
            if c != chain:
                continue
            arr = np.array([v for _, v in sorted(vals)])
            if arr.size >= 3:
                count += int(mad_outliers(arr, mad_threshold).sum())
        outlier_counts[chain] = count
    selected = min(chains, key=lambda c: (outlier_counts[c], c))

    params = sorted({p for c, p in series if c == selected})
    values = {p: np.array([v for _, v in sorted(series[(selected, p)])]) for p in params}
    k = min(len(v) for v in values.values())
    values = {p: v[:k] for p, v in values.items()}

    d = 1 + max((int(p[5:-1]) for p in params if p.startswith("beta[")), default=-1)
    q = 1 + max((int(p[6:-1]) for p in params if p.startswith("sigma[")), default=-1)
    infer_noise = "sigma_eps" in params
    if d == 0:
        raise DataFormatError(f"{path}: no beta[j] parameters present")
    global_cols = [values[f"beta[{j}]"] for j in range(d)]
    global_cols += [values[f"sigma[{j}]"] for j in range(q)]
    if infer_noise:
        global_cols.append(values["sigma_eps"])
    local = None
    alpha_keys = [p for p in params if p.startswith("alpha[")]
    if alpha_keys:
        pairs = [tuple(int(x) for x in p[6:-1].split(",")) for p in alpha_keys]
        m = 1 + max(i for i, _ in pairs)
        local = np.zeros((k, m, q))
        for p, (i, j) in zip(alpha_keys, pairs):
            local[:, i, j] = values[p]
    draws = PosteriorDraws(
        global_std=np.column_stack(global_cols), log_q_global=np.zeros(k),
        d=d, q=q, infer_noise=infer_noise,
        rec=StandardizationRecord.identity(d),
        local_std=local, log_q_local=np.zeros((k, local.shape[1])) if local is not None else None)
    info = {"selected_chain": selected, "outlier_counts": outlier_counts,
            "k": k, "mad_threshold": mad_threshold}
    return draws, info
