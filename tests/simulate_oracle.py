"""Reference predictor-family code and dataset assembly.

The simulator as it was written with one if-chain per family question
(parameter draw, column variance, column sampler), every range spelled out
as a default, and Z stored as a full (m, n_max, d) array that mirrors the
first q columns of X. It is kept only as the oracle that the table-driven
`mixedflow.simulate` must reproduce draw for draw: same values, same RNG
stream position afterwards.
"""

import numpy as np

from mixedflow.simulate import (correlated_binary, lkj_cholesky_factor, sample_parameters,
                                sample_priors)

FAMILIES = ("normal", "student_t", "uniform", "bernoulli", "neg_binomial", "scaled_beta")
FAMILY_PROBS = (0.10, 0.40, 0.05, 0.25, 0.10, 0.10)
LKJ_ETA = 10.0
VARIANCE_CAP = 1e3
SLOPE_SCALE_BOUND = 20.0  # toy mode never draws family parameters
RANGES = dict(
    normal_mu=(-3.0, 3.0), normal_sigma=(0.5, 3.0),
    t_df=(3.0, 30.0), t_loc=(-3.0, 3.0), t_scale=(0.5, 3.0),
    uniform_lo=(-5.0, 0.0), uniform_width=(1.0, 10.0),
    binary_corr=(-0.9, 0.9),
    nb_count=(1, 10), nb_p=(0.3, 0.8),
    beta_ab=(0.5, 5.0), beta_scale=(1.0, 10.0),
)


def family_variance(family, params):
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
    raise ValueError(family)


def sample_family_params(family, rng):
    r = RANGES
    for _ in range(1000):
        if family == "normal":
            params = {"mu": rng.uniform(*r["normal_mu"]), "sigma": rng.uniform(*r["normal_sigma"])}
        elif family == "student_t":
            params = {"df": rng.uniform(*r["t_df"]), "loc": rng.uniform(*r["t_loc"]),
                      "scale": rng.uniform(*r["t_scale"])}
        elif family == "uniform":
            params = {"lo": rng.uniform(*r["uniform_lo"]),
                      "width": rng.uniform(*r["uniform_width"])}
        elif family == "bernoulli":
            params = {"r": rng.uniform(*r["binary_corr"])}
        elif family == "neg_binomial":
            params = {"count": int(rng.integers(r["nb_count"][0], r["nb_count"][1] + 1)),
                      "p": rng.uniform(*r["nb_p"])}
        elif family == "scaled_beta":
            params = {"a": rng.uniform(*r["beta_ab"]), "b": rng.uniform(*r["beta_ab"]),
                      "scale": rng.uniform(*r["beta_scale"])}
        else:
            raise ValueError(family)
        if family_variance(family, params) * SLOPE_SCALE_BOUND <= VARIANCE_CAP:
            return params
    raise RuntimeError(f"could not satisfy the variance cap for family {family!r}")


def sample_column(family, params, n, rng):
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
    raise ValueError(family)


def sample_predictors(m, group_sizes, d, rng, toy=False):
    group_sizes = np.asarray(group_sizes, dtype=np.int64)
    n_total = int(group_sizes.sum())
    n_slopes = d - 1
    if toy or n_slopes == 0:
        flat = rng.normal(0.0, 1.0, size=(n_total, n_slopes))
    else:
        idx = rng.choice(len(FAMILIES), size=n_slopes, p=np.asarray(FAMILY_PROBS))
        families = [FAMILIES[i] for i in idx]
        flat = np.zeros((n_total, n_slopes))
        nonbin = [j for j, f in enumerate(families) if f != "bernoulli"]
        for j in nonbin:
            params = sample_family_params(families[j], rng)
            flat[:, j] = sample_column(families[j], params, n_total, rng)
        if len(nonbin) > 1:
            L = lkj_cholesky_factor(len(nonbin), LKJ_ETA, rng)
            flat[:, nonbin] = flat[:, nonbin] @ L.T
        done = list(nonbin)
        for j in (j for j, f in enumerate(families) if f == "bernoulli"):
            params = sample_family_params("bernoulli", rng)
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


def simulate_dataset(d, q, rng, m_range=(5, 30), n_range=(5, 70), toy=False):
    """One draw as a dict of arrays, Z stored in full. No rejection loop:
    the callers' seeds never draw non-finite outcomes."""
    m = int(rng.integers(m_range[0], m_range[1] + 1))
    group_sizes = rng.integers(n_range[0], n_range[1] + 1, size=m)
    prior = sample_priors(1, d, q, rng, toy=toy)[0]
    gp, lp = sample_parameters(prior, m, rng)
    X = sample_predictors(m, group_sizes, d, rng, toy)
    n_max = X.shape[1]
    mask = np.arange(n_max)[None, :] < group_sizes[:, None]
    Z = np.zeros_like(X)
    Z[:, :, :q] = X[:, :, :q]
    noise = rng.normal(0.0, gp.sigma_eps, size=(m, n_max)) * mask
    y = (X @ gp.beta + np.einsum("mnq,mq->mn", Z[:, :, :q], lp.alpha) + noise) * mask
    return {"X": X, "Z": Z, "y": y, "mask": mask, "group_sizes": group_sizes,
            "noise": noise, "beta": gp.beta, "sigma_alpha": gp.sigma_alpha,
            "sigma_eps": np.float64(gp.sigma_eps), "alpha": lp.alpha,
            "nu_beta": prior.nu_beta, "tau_beta": prior.tau_beta,
            "tau_sigma": prior.tau_sigma, "tau_eps": np.float64(prior.tau_eps)}
