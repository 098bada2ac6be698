"""Evaluation metrics and diagnostics.

Recovery (Pearson r, RMSE, bias) compares data-scale posterior means with
data-scale truths. Coverage error CE(alpha) is the empirical hit rate of
the (1 - alpha) credible interval minus its nominal mass; hits are scored
on standardized components, where the interval construction (and any
conformal adjustment, `refine.apply_calibration`) lives, by the border
distance that conformal calibration scores (`refine.border_scores`, which
standardizes the data-scale truth with the draws' record; a hit is a
distance of at most zero). Reports aggregate per parameter role
(`PosteriorDraws.by_role`): fixed effects, variance parameters, random
effects.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .draws import PosteriorDraws
from .errors import ConfigError, DataFormatError, DimensionError
from .refine import ALPHA_GRID, ROLES, ConformalTable, apply_calibration, border_scores
from .simulate import GlobalParams, HierDataset, snr
from .standardize import StandardizationRecord

__all__ = [
    "recovery", "coverage_error", "mad_outliers", "DatasetEval",
    "evaluate_dataset", "MetricReport", "aggregate", "split_report",
    "ingest_external_samples",
]

MAD_THRESHOLD = 3.0  # robust z-score above which a chain's draw is an outlier


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


def mad_outliers(x: np.ndarray) -> np.ndarray:
    """Flag |x - median| / (1.4826 * MAD) > MAD_THRESHOLD.

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
    return dev / (1.4826 * mad) > MAD_THRESHOLD


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
    local = draws.local_std is not None
    truths = draws.by_role(gp.vector(draws.infer_noise), lp.alpha if local else None)
    means = draws.by_role(draws.global_mean(), draws.local_mean()[:ds.m] if local else None)
    scores = border_scores(draws, apply_calibration(draws, table, alphas), gp, lp)
    hits = {(role, alpha): s[a] <= 0 for role, s in scores.items()
            for a, alpha in enumerate(alphas)}
    return DatasetEval(
        dataset_id=ds.dataset_id, n_total=ds.n_total,
        snr=snr(ds),
        truths=truths, means=means, hits=hits)


@dataclass
class MetricReport:
    per_role: dict[str, dict]
    n_datasets: int
    descriptors: dict[str, float] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)


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
    if key not in ("n", "snr"):
        raise ConfigError(f"unknown split key {key!r}")
    values = np.array([e.n_total if key == "n" else e.snr for e in evals], dtype=np.float64)
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


def ingest_external_samples(path) -> tuple[PosteriorDraws, dict]:
    """Read externally produced posterior samples (CSV: chain, draw,
    parameter, value), pick the chain with the fewest MAD outliers, and
    wrap it as uniform-weighted draws.

    Parameter names follow the draw-file convention: beta[j], sigma[j],
    sigma_eps, alpha[i,j]; a gap in any index range is a DataFormatError,
    and the largest group index i sets the group count. The dataset id is
    the file stem, and a non-finite value makes its row malformed, as for
    an observation CSV. Returns (draws, info) where info records the
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
            try:  # a short row, a non-integer draw or a non-numeric value
                chain, draw = row[0].strip(), int(row[1])
                param, value = row[2].strip(), float(row[3])
            except (IndexError, ValueError):
                value = np.nan
            if not np.isfinite(value):
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
                count += int(mad_outliers(arr).sum())
        outlier_counts[chain] = count
    selected = min(chains, key=lambda c: (outlier_counts[c], c))

    params = sorted({p for c, p in series if c == selected})
    values = {p: np.array([v for _, v in sorted(series[(selected, p)])]) for p in params}
    k = min(len(v) for v in values.values())
    values = {p: v[:k] for p, v in values.items()}

    index = {p: _indices(path, p) for p in params if p.startswith(("beta[", "sigma[", "alpha["))}

    def size(prefix):  # one more than the largest leading index
        return 1 + max((i[0] for p, i in index.items() if p.startswith(prefix)), default=-1)

    d, q, infer_noise = size("beta["), size("sigma["), "sigma_eps" in params
    if d == 0:
        raise DataFormatError(f"{path}: no beta[j] parameters present")
    names = [name for name, _ in GlobalParams.layout(d, q, infer_noise)]
    for name in names:
        if name not in values:
            raise DataFormatError(f"{path}: parameter {name} missing")
    local = None
    alpha = {index[p]: p for p in index if p.startswith("alpha[")}
    if alpha:
        for (_, j), p in alpha.items():
            if j >= q:
                raise DataFormatError(f"{path}: parameter {p} has no sigma[{j}]")
        local = np.empty((k, size("alpha["), q))
        for i, j in np.ndindex(local.shape[1:]):
            if (i, j) not in alpha:
                raise DataFormatError(f"{path}: parameter alpha[{i},{j}] missing")
            local[:, i, j] = values[alpha[i, j]]
    draws = PosteriorDraws(
        global_std=np.column_stack([values[name] for name in names]), log_q_global=np.zeros(k),
        d=d, q=q, infer_noise=infer_noise,
        rec=StandardizationRecord.identity(d),
        local_std=local, log_q_local=np.zeros((k, local.shape[1])) if local is not None else None,
        dataset_id=Path(path).stem)
    info = {"selected_chain": selected, "outlier_counts": outlier_counts,
            "k": k, "mad_threshold": MAD_THRESHOLD}
    return draws, info


def _indices(path, param: str) -> tuple[int, ...]:
    """(j,) of a beta[j] or sigma[j] name, (i, j) of an alpha[i,j] one."""
    head, _, rest = param.partition("[")
    try:
        idx = tuple(int(x) for x in rest[:-1].split(",")) if rest.endswith("]") else ()
    except ValueError:
        idx = ()
    if len(idx) != (2 if head == "alpha" else 1) or min(idx) < 0:
        raise DataFormatError(f"{path}: bad parameter name {param!r}")
    return idx
