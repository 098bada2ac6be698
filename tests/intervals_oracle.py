"""Per-component reference implementation of the credible-interval code.

The conformal border adjustment, the map of the borders to the data scale
and the coverage hits of `evaluate_dataset`, as they were written one
alpha, one component and one group at a time with tuples of Python floats,
before they worked on border arrays. It is slower and kept only as the
oracle that `refine.apply_calibration`, `pipeline.intervals_to_data_scale`,
`pipeline.infer_one` and `metrics.evaluate_dataset` must reproduce.
"""

import numpy as np

from mixedflow.refine import component_roles
from mixedflow.standardize import standardize_params


def apply_calibration(draws, table, alphas) -> dict[float, dict]:
    roles = component_roles(draws.d, draws.q, draws.infer_noise)
    b_global, b_local = draws.interval_borders(alphas)

    def adj(role, alpha):
        return table.adjustment(role, alpha) if table is not None else 0.0

    out = {}
    for a_idx, alpha in enumerate(alphas):
        out_global = []
        for role, (lo, hi) in zip(roles, b_global[a_idx]):
            a = adj(role, alpha)
            out_global.append((float(lo - a), float(hi + a)))
        out_local = None
        if draws.q and b_local is not None:
            a = adj("random", alpha)
            out_local = [[(float(lo - a), float(hi + a)) for lo, hi in row]
                         for row in b_local[a_idx]]
        out[alpha] = {"alpha": alpha, "global": out_global, "local": out_local}
    return out


def intervals_to_data_scale(draws, std_intervals: dict) -> dict:
    """One alpha's borders; recomputes the data-scale means on every call."""
    rec = draws.rec
    d, q = draws.d, draws.q
    g_mean = draws.global_mean(data_scale=True)
    beta_hat = g_mean[:d]
    sigma_hat = g_mean[d:d + q]

    def map_global(j, lo, hi):
        if j == 0:
            shift = rec.mu_y - (beta_hat[1:] @ rec.mu_x[1:] if d > 1 else 0.0)
            return lo * rec.sigma_y + shift, hi * rec.sigma_y + shift
        if j < d:
            s = rec.sigma_y / rec.sigma_x[j]
            return lo * s, hi * s
        if j == d and q >= 1:
            rest = float(np.sum(rec.mu_x[1:q] ** 2 * sigma_hat[1:] ** 2)) if q > 1 else 0.0
            f = lambda b: float(np.sqrt(max((max(b, 0.0) * rec.sigma_y) ** 2 - rest, 0.0)))
            return f(lo), f(hi)
        if j < d + q:
            s = rec.sigma_y / rec.sigma_x[j - d]
            return lo * s, hi * s
        return lo * rec.sigma_y, hi * rec.sigma_y

    out_global = [tuple(map_global(j, lo, hi))
                  for j, (lo, hi) in enumerate(std_intervals["global"])]
    out_local = None
    if std_intervals["local"] is not None:
        a_mean = draws.local_mean(data_scale=True)
        out_local = []
        for i, per_group in enumerate(std_intervals["local"]):
            row = []
            for j, (lo, hi) in enumerate(per_group):
                if j == 0:
                    shift = -(a_mean[i, 1:] @ rec.mu_x[1:q] if q > 1 else 0.0)
                    row.append((lo * rec.sigma_y + shift, hi * rec.sigma_y + shift))
                else:
                    s = rec.sigma_y / rec.sigma_x[j]
                    row.append((lo * s, hi * s))
            out_local.append(row)
    return {"global": out_global, "local": out_local}


def infer_intervals(draws, table, alphas) -> dict:
    """The interval tables of `infer_one`, in the form `mixedflow infer`
    writes them."""
    out = {}
    for alpha, std in apply_calibration(draws, table, alphas).items():
        data = intervals_to_data_scale(draws, std)
        out[str(alpha)] = {
            "global_std": [list(b) for b in std["global"]],
            "global": [list(b) for b in data["global"]],
            "local_std": std["local"] and [[list(b) for b in row] for row in std["local"]],
            "local": data["local"] and [[list(b) for b in row] for row in data["local"]],
        }
    return out


def coverage_hits(ds, draws, table, alphas) -> dict:
    """`evaluate_dataset`'s hits: lo <= t <= hi per component and alpha."""
    gp, lp = ds.truth.global_params, ds.truth.local_params
    gp_s, lp_s = standardize_params(gp, lp, draws.rec)
    truth_std = np.concatenate([gp_s.beta, gp_s.sigma_alpha,
                                [gp_s.sigma_eps] if draws.infer_noise else []])
    roles = component_roles(ds.d, ds.q, draws.infer_noise)
    hits = {}
    for alpha, intervals in apply_calibration(draws, table, alphas).items():
        for j, role in enumerate(roles):
            lo, hi = intervals["global"][j]
            hits.setdefault((role, alpha), []).append(bool(lo <= truth_std[j] <= hi))
        if intervals["local"] is not None:
            for i in range(ds.m):
                for j in range(ds.q):
                    lo, hi = intervals["local"][i][j]
                    t = lp_s.alpha[i, j]
                    hits.setdefault(("random", alpha), []).append(bool(lo <= t <= hi))
    return {k: np.asarray(v, dtype=bool) for k, v in hits.items()}
