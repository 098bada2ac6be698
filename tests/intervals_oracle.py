"""Per-component reference implementation of the credible-interval code.

The conformal border adjustment, the map of the borders to the data scale
and the coverage hits of `evaluate_dataset`, as they were written one
alpha, one component and one group at a time with tuples of Python floats,
before they worked on border arrays, plus the later rule that an adjustment
which would invert an interval empties it at its midpoint; and the interval
borders as one weighted_quantile call per component, before each block of
components was sorted at once. It is slower and kept only as the oracle
that `PosteriorDraws.interval_borders`, `refine.apply_calibration`,
`pipeline.intervals_to_data_scale`, `pipeline.infer_one` and
`metrics.evaluate_dataset` must reproduce.
"""

import numpy as np

from mixedflow.draws import weighted_quantile
from mixedflow.standardize import standardize_params


def component_roles(d, q, infer_noise):
    """Role of each global draw component: fixed effects then variances."""
    return ["fixed"] * d + ["variance"] * (q + (1 if infer_noise else 0))


def interval_borders(draws, alphas):
    """`PosteriorDraws.interval_borders` as one weighted_quantile call per
    component: global (A, p_global, 2) and local (A, m, q, 2) or None."""
    alphas = np.asarray(alphas, dtype=np.float64)
    probs = np.concatenate([alphas / 2, 1 - alphas / 2])
    n_a = alphas.size

    def borders(values, weights):
        qs = weighted_quantile(values, probs, weights)
        return np.stack([qs[:n_a], qs[n_a:]], axis=-1)

    out_global = np.stack([borders(draws.global_std[:, j], draws.weights)
                           for j in range(draws.global_std.shape[1])], axis=1)
    if draws.local_std is None:
        return out_global, None
    lw = draws.local_weights
    out_local = np.array([[borders(draws.local_std[:, i, j], None if lw is None else lw[:, i])
                           for j in range(draws.q)] for i in range(draws.m)])
    return out_global, out_local.reshape(draws.m, draws.q, n_a, 2).transpose(2, 0, 1, 3)


def apply_calibration(draws, table, alphas) -> dict[float, dict]:
    roles = component_roles(draws.d, draws.q, draws.infer_noise)
    b_global, b_local = draws.interval_borders(alphas)

    def adj(role, alpha):
        return table.adjustment(role, alpha) if table is not None else 0.0

    def border(lo, hi, a):  # an adjustment that inverts the interval empties it
        lo, hi = float(lo - a), float(hi + a)
        return (lo, hi) if lo <= hi else ((lo + hi) / 2,) * 2

    out = {}
    for a_idx, alpha in enumerate(alphas):
        out_global = []
        for role, (lo, hi) in zip(roles, b_global[a_idx]):
            a = adj(role, alpha)
            out_global.append(border(lo, hi, a))
        out_local = None
        if draws.q and b_local is not None:
            a = adj("random", alpha)
            out_local = [[border(lo, hi, a) for lo, hi in row]
                         for row in b_local[a_idx]]
        out[alpha] = {"alpha": alpha, "global": out_global, "local": out_local}
    return out


def intervals_to_data_scale(draws, std_intervals: dict) -> dict:
    """One alpha's borders; recomputes the data-scale means on every call."""
    rec = draws.rec
    d, q = draws.d, draws.q
    g_mean = draws.global_mean()
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
        a_mean = draws.local_mean()
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
