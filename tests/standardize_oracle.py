"""Reference prior pushforward and parameter inverse.

`standardize_prior` and `unstandardize_params` as they were written with
every formula spelled out in place, before the prior took its means and
random-effect and noise scales from `standardize_params` and the one-draw
inverse became a row of the draw inverses. They are kept only as the
oracle that `mixedflow.standardize` must reproduce: the prior byte for
byte, the inverse to rounding.
"""

import numpy as np

from mixedflow.simulate import GlobalParams, LocalParams, PriorSpec


def unstandardize_params(gp, lp, rec):
    d = rec.d
    q = gp.sigma_alpha.shape[0]
    beta = np.empty(d)
    beta[1:] = gp.beta[1:] * rec.sigma_y / rec.sigma_x[1:]
    beta[0] = gp.beta[0] * rec.sigma_y + rec.mu_y - beta[1:] @ rec.mu_x[1:]

    sigma_alpha = np.empty(q)
    alpha = np.empty_like(lp.alpha)
    if q >= 1:
        mu_z = rec.mu_x[:q]
        sigma_alpha[1:] = gp.sigma_alpha[1:] * rec.sigma_y / rec.sigma_x[1:q]
        rest = np.sum(mu_z[1:] ** 2 * sigma_alpha[1:] ** 2)
        sigma_alpha[0] = np.sqrt(max((gp.sigma_alpha[0] * rec.sigma_y) ** 2 - rest, 0.0))
        alpha[:, 1:] = lp.alpha[:, 1:] * rec.sigma_y / rec.sigma_x[1:q]
        alpha[:, 0] = lp.alpha[:, 0] * rec.sigma_y - alpha[:, 1:] @ mu_z[1:]
    sigma_eps = gp.sigma_eps * rec.sigma_y
    return GlobalParams(beta, sigma_alpha, sigma_eps), LocalParams(alpha)


def standardize_prior(prior, rec):
    d, q = prior.d, prior.q
    nu = np.empty(d)
    tau_b = np.empty(d)
    nu[1:] = prior.nu_beta[1:] * rec.sigma_x[1:] / rec.sigma_y
    nu[0] = (prior.nu_beta[0] + prior.nu_beta[1:] @ rec.mu_x[1:] - rec.mu_y) / rec.sigma_y
    tau_b[1:] = prior.tau_beta[1:] * rec.sigma_x[1:] / rec.sigma_y
    tau_b[0] = np.sqrt(prior.tau_beta[0] ** 2
                       + np.sum(rec.mu_x[1:] ** 2 * prior.tau_beta[1:] ** 2)) / rec.sigma_y
    tau_s = np.empty(q)
    if q >= 1:
        mu_z = rec.mu_x[:q]
        tau_s[1:] = prior.tau_sigma[1:] * rec.sigma_x[1:q] / rec.sigma_y
        tau_s[0] = np.sqrt(np.sum(mu_z ** 2 * prior.tau_sigma ** 2)) / rec.sigma_y
    tau_e = prior.tau_eps / rec.sigma_y
    return PriorSpec(nu, tau_b, tau_s, tau_e)
