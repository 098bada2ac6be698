"""Importance-sampling and conformal contracts: the weight recipe, the
likelihood oracles (naive loop, hand-expanded 2x2 Gaussian, Monte Carlo
marginalization, the dense reference implementation), the alternating
fixed point, and conformal score/table semantics."""

import logging
import math
import warnings

import numpy as np
import pytest
from scipy import stats

import refine_oracle as oracle
from mixedflow import refine, simulate as sim
from mixedflow.draws import PosteriorDraws, weighted_quantile
from mixedflow.errors import ConfigError
from mixedflow.standardize import StandardizationRecord

LOG_2PI = math.log(2.0 * math.pi)


def _toy_dataset(seed=0, d=2, q=1, m=3, n=4):
    rng = np.random.default_rng(seed)
    prior = sim.PriorSpec(np.zeros(d), np.ones(d), np.full(q, 0.8), 0.7)
    gp, lp = sim.sample_parameters(prior, m, rng)
    gp = sim.GlobalParams(gp.beta, np.maximum(gp.sigma_alpha, 0.3), max(gp.sigma_eps, 0.4))
    sizes = np.full(m, n)
    X = sim.sample_predictors(m, sizes, d, rng, sim.SimConfig(toy=True))
    return sim.assemble_dataset(prior, gp, lp, X, sizes, rng), prior


def _ragged_dataset(seed, d, q, m=6, sigma_eps=None, sigma_alpha=None):
    """Group sizes 1..12; optional fixed noise and random-effect scales."""
    rng = np.random.default_rng(seed)
    prior = sim.PriorSpec(rng.normal(size=d), np.full(d, 1.5), np.full(q, 0.8), 0.7)
    gp, lp = sim.sample_parameters(prior, m, rng)
    sig = np.maximum(gp.sigma_alpha, 0.2) if sigma_alpha is None else np.full(q, sigma_alpha)
    gp = sim.GlobalParams(gp.beta, sig, max(gp.sigma_eps, 0.2) if sigma_eps is None else sigma_eps)
    lp = sim.LocalParams(rng.normal(size=(m, q)) * sig)
    sizes = rng.integers(1, 13, size=m)
    X = sim.sample_predictors(m, sizes, d, rng, sim.SimConfig(toy=True))
    return sim.assemble_dataset(prior, gp, lp, X, sizes, rng), prior


# d in 1..5, q in 0..2 (q <= d), plus a high-R^2 set and a vanishing
# random-effect scale
ORACLE_CASES = (
    [dict(seed=20 + 3 * d + q, d=d, q=q) for d in range(1, 6) for q in range(min(d, 2) + 1)]
    + [dict(seed=40, d=3, q=1, sigma_eps=1e-3), dict(seed=41, d=4, q=2, sigma_eps=2e-3),
       dict(seed=42, d=2, q=1, sigma_alpha=1e-13), dict(seed=43, d=3, q=2, sigma_alpha=1e-13)])


class TestImportanceWeights:
    def test_exact_proposal_gives_unit_weights(self):
        log_p = np.random.default_rng(0).normal(size=200)
        w = refine.importance_weights(log_p, log_p.copy())
        np.testing.assert_allclose(w, 1.0, atol=1e-12)

    def test_normalization_contract(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = int(rng.integers(10, 500))
            w = refine.importance_weights(rng.normal(size=k), rng.normal(size=k))
            assert abs(w.sum() - k) < 1e-10
            assert np.all(w >= 0)

    def test_dominant_weight_clipped_to_98th_percentile(self):
        k = 200
        log_q = np.zeros(k)
        log_p = np.zeros(k)
        log_p[0] = 50.0  # would dominate without the clip
        log_w = log_p - log_q
        cap = np.percentile(log_w, 98.0)
        w = refine.importance_weights(log_p, log_q)
        expected = np.exp(np.minimum(log_w, cap) - cap)
        expected /= expected.mean()
        np.testing.assert_allclose(w, expected, atol=1e-12)
        assert w.max() < np.exp(50.0) / k  # clip actually engaged

    def test_clipping_never_increases_weights(self):
        rng = np.random.default_rng(2)
        log_p, log_q = rng.normal(size=300) * 5, rng.normal(size=300)
        w = refine.importance_weights(log_p, log_q)
        raw = np.exp(log_p - log_q - (log_p - log_q).max())
        raw /= raw.mean()
        assert w.max() <= raw.max() + 1e-12

    def test_degenerate_weights_fall_back_to_uniform(self):
        w = refine.importance_weights(np.full(10, -np.inf), np.zeros(10))
        np.testing.assert_array_equal(w, 1.0)


class TestConditionalLikelihood:
    def test_perfect_fit_unit_noise(self):
        ds, _ = _toy_dataset(3)
        gp = ds.truth.global_params
        lp = ds.truth.local_params
        # rebuild outcomes with zero noise and sigma_eps = 1
        gp1 = sim.GlobalParams(gp.beta, gp.sigma_alpha, 1.0)
        y = sim.regenerate_outcomes(ds, noise=np.zeros_like(ds.y))
        ds1 = sim.HierDataset(X=ds.X, Z=ds.Z, y=y, mask=ds.mask, group_sizes=ds.group_sizes,
                              d=ds.d, q=ds.q, m=ds.m, truth=ds.truth)
        ll = refine.conditional_log_likelihood(ds1, gp1, lp)
        n = ds.mask.sum()
        assert ll == pytest.approx(-(n / 2) * LOG_2PI, rel=1e-12)

    def test_matches_naive_loop(self):
        ds, prior = _toy_dataset(4)
        gp, lp = ds.truth.global_params, ds.truth.local_params
        ll = refine.conditional_log_likelihood(ds, gp, lp)
        ref = 0.0
        for i in range(ds.m):
            for j in range(int(ds.group_sizes[i])):
                mean = ds.X[i, j] @ gp.beta + ds.Z[i, j, :ds.q] @ lp.alpha[i]
                ref += stats.norm.logpdf(ds.y[i, j], mean, gp.sigma_eps)
        assert ll == pytest.approx(ref, abs=1e-8)

    def test_added_zero_residual_observation(self):
        ds, _ = _toy_dataset(5, m=2, n=3)
        gp, lp = ds.truth.global_params, ds.truth.local_params
        base = refine.conditional_log_likelihood(ds, gp, lp)
        # append one observation to group 0 with exactly zero residual
        n_max = ds.X.shape[1] + 1
        X = np.zeros((ds.m, n_max, ds.d))
        X[:, :-1] = ds.X
        new_x = np.array([1.0] + [0.5] * (ds.d - 1))
        X[0, -1] = new_x
        Z = np.zeros_like(X)
        Z[:, :, :ds.q] = X[:, :, :ds.q]
        y = np.zeros((ds.m, n_max))
        y[:, :-1] = ds.y
        y[0, -1] = new_x @ gp.beta + new_x[:ds.q] @ lp.alpha[0]
        mask = np.zeros((ds.m, n_max), dtype=bool)
        mask[:, :-1] = ds.mask
        mask[0, -1] = True
        sizes = ds.group_sizes.copy()
        sizes[0] += 1
        ds2 = sim.HierDataset(X=X, Z=Z, y=y, mask=mask, group_sizes=sizes,
                              d=ds.d, q=ds.q, m=ds.m, truth=ds.truth)
        ll = refine.conditional_log_likelihood(ds2, gp, lp)
        assert ll - base == pytest.approx(-0.5 * math.log(2 * math.pi * gp.sigma_eps ** 2), abs=1e-9)

    def test_nonpositive_sigma_rejected(self):
        ds, _ = _toy_dataset(6)
        gp = ds.truth.global_params
        bad = sim.GlobalParams(gp.beta, gp.sigma_alpha, 0.0)
        with pytest.raises(ConfigError):
            refine.conditional_log_likelihood(ds, bad, ds.truth.local_params)


class TestMarginalLikelihood:
    def test_degenerate_sigma_alpha_matches_conditional_at_zero(self):
        ds, _ = _toy_dataset(7)
        gp = ds.truth.global_params
        gp0 = sim.GlobalParams(gp.beta, np.full(ds.q, 1e-12), gp.sigma_eps)
        lp0 = sim.LocalParams(np.zeros((ds.m, ds.q)))
        marg = refine.marginal_log_likelihood(ds, gp0)
        cond = refine.conditional_log_likelihood(ds, gp0, lp0)
        assert marg == pytest.approx(cond, abs=1e-8)

    def test_hand_expanded_2x2(self):
        # one group, two observations, a single random intercept
        X = np.array([[[1.0, 0.5], [1.0, -1.0]]])
        Z = np.zeros_like(X)
        Z[:, :, :1] = X[:, :, :1]
        beta = np.array([0.3, -0.7])
        s_a, s_e = 0.6, 0.4
        y = np.array([[0.9, -0.2]])
        mask = np.ones((1, 2), dtype=bool)
        prior = sim.PriorSpec(np.zeros(2), np.ones(2), np.array([1.0]), 1.0)
        truth = sim.Truth(prior, sim.GlobalParams(beta, [s_a], s_e),
                          sim.LocalParams(np.zeros((1, 1))), np.zeros((1, 2)))
        ds = sim.HierDataset(X=X, Z=Z, y=y, mask=mask, group_sizes=np.array([2]),
                             d=2, q=1, m=1, truth=truth)
        cov = np.array([[s_a**2 + s_e**2, s_a**2],
                        [s_a**2, s_a**2 + s_e**2]])
        resid = y[0] - X[0] @ beta
        ref = (-0.5 * (2 * LOG_2PI + math.log(np.linalg.det(cov))
                       + resid @ np.linalg.solve(cov, resid)))
        got = refine.marginal_log_likelihood(ds, truth.global_params)
        assert got == pytest.approx(ref, abs=1e-10)

    def test_matches_monte_carlo_marginalization(self):
        # small case: m=2 groups, n_i <= 3
        rng = np.random.default_rng(8)
        ds, _ = _toy_dataset(9, d=2, q=1, m=2, n=3)
        gp = ds.truth.global_params
        marg = refine.marginal_log_likelihood(ds, gp)
        reps = 100_000
        ll = np.zeros((reps,))
        alphas = rng.normal(0.0, gp.sigma_alpha[0], size=(reps, ds.m, 1))
        from mixedflow.refine import _gaussian_loglik
        ll = _gaussian_loglik(ds, np.tile(gp.beta, (reps, 1)), alphas,
                              np.full(reps, gp.sigma_eps))
        mx = ll.max()
        est = mx + np.log(np.mean(np.exp(ll - mx)))
        # MC standard error on the log scale by the delta method
        w = np.exp(ll - mx)
        se = w.std() / (w.mean() * np.sqrt(reps))
        assert abs(est - marg) < 3 * se


def _rel(a, b):
    return np.abs(np.asarray(a) - np.asarray(b)).max() / np.abs(np.asarray(b)).max()


@pytest.mark.parametrize("case", ORACLE_CASES,
                         ids=lambda c: "-".join(f"{k}{v}" for k, v in c.items()))
class TestDenseOracle:
    """The sufficient-statistics likelihoods against the dense reference."""

    def test_conditional_loglik(self, case):
        ds, prior = _ragged_dataset(**case)
        draws = oracle.random_draws(ds, 50, np.random.default_rng(case["seed"]))
        beta, sig, eps = refine._split_global(draws.global_std, ds.d, ds.q, True)
        alpha = draws.local_std if ds.q else np.zeros((50, ds.m, 0))
        for a in (alpha, alpha[0]):
            assert _rel(refine._gaussian_loglik(ds, beta, a, eps),
                        oracle.gaussian_loglik(ds, beta, a, eps)) < 1e-8
        gp, lp = ds.truth.global_params, ds.truth.local_params
        ref = (oracle.gaussian_loglik(ds, gp.beta[None], lp.alpha, np.array([gp.sigma_eps]))[0]
               + (oracle.log_prior_random(lp.alpha, gp.sigma_alpha[None])[0] if ds.q else 0.0)
               + refine._log_prior_global(gp.beta[None], gp.sigma_alpha[None],
                                          np.array([gp.sigma_eps]), prior)[0])
        got = refine.conditional_log_likelihood(ds, gp, lp, prior)
        assert abs(got - ref) < 1e-8 * abs(ref)

    def test_marginal_loglik(self, case):
        ds, _ = _ragged_dataset(**case)
        draws = oracle.random_draws(ds, 20, np.random.default_rng(case["seed"]))
        beta, sig, eps = refine._split_global(draws.global_std, ds.d, ds.q, True)
        for j in range(20):
            gp = sim.GlobalParams(beta[j], sig[j], eps[j])
            ref = oracle.marginal_loglik(ds, beta[j], sig[j], eps[j])
            assert abs(refine.marginal_log_likelihood(ds, gp) - ref) < 1e-8 * abs(ref)

    @pytest.mark.parametrize("likelihood", ["conditional", "marginal"])
    def test_refined_weights(self, case, likelihood):
        ds, prior = _ragged_dataset(**case)
        k = 60 if likelihood == "marginal" else 300
        draws = oracle.random_draws(ds, k, np.random.default_rng(case["seed"] + 1))
        out = refine.alternating_refine(ds, prior, draws, likelihood=likelihood)
        w_global, w_local = oracle.alternating_refine(ds, prior, draws, likelihood=likelihood)
        assert np.abs(out.weights - w_global).max() < 1e-8
        if ds.q:
            assert np.abs(out.local_weights - w_local).max() < 1e-8


class TestAlternatingRefine:
    def _draws_from_flow_truth(self, ds, prior, k=400, seed=10):
        """Build synthetic draw sets whose proposal density is exactly the
        numerator, so the refinement must be a fixed point."""
        rng = np.random.default_rng(seed)
        d, q, m = ds.d, ds.q, ds.m
        # proposal == prior x conditional likelihood surrogate: use simple
        # distributions; exactness of the fixed point only needs log_q to
        # equal the numerator computed by the same code path
        beta = rng.normal(size=(k, d))
        sig = np.abs(rng.normal(0.5, 0.2, size=(k, q))) + 0.2
        eps = np.abs(rng.normal(0.5, 0.2, size=(k, 1))) + 0.2
        global_std = np.column_stack([beta, sig, eps])
        local = rng.normal(size=(k, m, q)) * 0.3
        return global_std, local

    def test_exact_proposal_is_fixed_point(self):
        ds, prior = _toy_dataset(11)
        rec = StandardizationRecord.identity(ds.d)
        global_std, local = self._draws_from_flow_truth(ds, prior)
        k = global_std.shape[0]
        beta, sig, eps = global_std[:, :ds.d], global_std[:, ds.d:ds.d + ds.q], global_std[:, -1]

        # compute the numerator exactly as the refiner will on round 1
        w0 = np.ones(k)
        gp_bar_beta = beta.mean(axis=0)
        gp_bar_sig = sig.mean(axis=0)
        gp_bar_eps = eps.mean()
        log_q_local = np.zeros((k, ds.m))
        mean_fixed = np.einsum("mnd,d->mn", ds.X, gp_bar_beta)
        for i in range(ds.m):
            rows = ds.mask[i]
            Zq = ds.Z[i][rows][:, :ds.q]
            resid0 = ds.y[i][rows] - mean_fixed[i][rows]
            a_i = local[:, i, :]
            resid = resid0[None] - a_i @ Zq.T
            n_i = float(rows.sum())
            ll = -0.5 * (n_i * LOG_2PI + n_i * np.log(gp_bar_eps ** 2)
                         + (resid ** 2).sum(axis=1) / gp_bar_eps ** 2)
            lp_a = (-0.5 * LOG_2PI - np.log(gp_bar_sig)
                    - 0.5 * (a_i / gp_bar_sig) ** 2).sum(axis=1)
            log_q_local[:, i] = ll + lp_a
        alpha_bar = local.mean(axis=0)
        from mixedflow.refine import _gaussian_loglik, _log_prior_global
        ll_g = _gaussian_loglik(ds, beta, alpha_bar, eps)
        ll_g = ll_g + (-0.5 * LOG_2PI - np.log(sig)[:, :, None]
                       - 0.5 * (alpha_bar.T[None] / sig[:, :, None]) ** 2).sum(axis=(1, 2))
        log_q_global = ll_g + _log_prior_global(beta, sig, eps, prior, None)

        draws = PosteriorDraws(global_std=global_std, log_q_global=log_q_global,
                               d=ds.d, q=ds.q, infer_noise=True, rec=rec,
                               local_std=local, log_q_local=log_q_local)
        out = refine.alternating_refine(ds, prior, draws, rounds=1)
        np.testing.assert_allclose(out.weights, 1.0, atol=1e-10)
        np.testing.assert_allclose(out.local_weights, 1.0, atol=1e-10)

    def test_weights_shift_mean_toward_high_likelihood(self):
        # two global draws: the truth and a far-off point
        ds, prior = _toy_dataset(12, m=2, n=6)
        gp = ds.truth.global_params
        rec = StandardizationRecord.identity(ds.d)
        good = np.concatenate([gp.beta, np.maximum(gp.sigma_alpha, 0.2), [max(gp.sigma_eps, 0.2)]])
        bad = good + np.array([5.0] * ds.d + [0.0] * ds.q + [0.0])
        global_std = np.stack([good, bad] * 50)
        k = global_std.shape[0]
        local = np.tile(ds.truth.local_params.alpha, (k, 1, 1))
        draws = PosteriorDraws(global_std=global_std, log_q_global=np.zeros(k),
                               d=ds.d, q=ds.q, infer_noise=True, rec=rec,
                               local_std=local, log_q_local=np.zeros((k, ds.m)))
        out = refine.alternating_refine(ds, prior, draws, rounds=3)
        naive_mean = global_std[:, 0].mean()
        weighted_mean = (global_std[:, 0] * out.weights).sum() / out.weights.sum()
        assert abs(weighted_mean - gp.beta[0]) < abs(naive_mean - gp.beta[0])

    def test_deterministic(self):
        ds, prior = _toy_dataset(13)
        rec = StandardizationRecord.identity(ds.d)
        rng = np.random.default_rng(14)
        k = 100
        global_std = np.column_stack([rng.normal(size=(k, ds.d)),
                                      np.abs(rng.normal(0.5, 0.2, size=(k, ds.q))) + 0.2,
                                      np.abs(rng.normal(0.5, 0.2, size=(k, 1))) + 0.2])
        local = rng.normal(size=(k, ds.m, ds.q)) * 0.4
        draws = PosteriorDraws(global_std=global_std, log_q_global=rng.normal(size=k),
                               d=ds.d, q=ds.q, infer_noise=True, rec=rec,
                               local_std=local, log_q_local=rng.normal(size=(k, ds.m)))
        out1 = refine.alternating_refine(ds, prior, draws)
        out2 = refine.alternating_refine(ds, prior, draws)
        np.testing.assert_array_equal(out1.weights, out2.weights)
        np.testing.assert_array_equal(out1.local_weights, out2.local_weights)

    @pytest.mark.parametrize("q", [1, 2])
    def test_global_numerator_matches_per_draw_loop(self, q):
        # every draw shares the true random effects, so the local step
        # leaves alpha_bar at them and the global numerator is explicit
        ds, prior = _toy_dataset(16, d=3, q=q, m=4, n=5)
        gp, lp = ds.truth.global_params, ds.truth.local_params
        rng = np.random.default_rng(17)
        k = 40
        beta = gp.beta + 0.2 * rng.normal(size=(k, ds.d))
        sig = gp.sigma_alpha * np.exp(0.3 * rng.normal(size=(k, q)))
        eps = gp.sigma_eps * np.exp(0.3 * rng.normal(size=k))
        numerator = np.empty(k)
        for j in range(k):
            total = 0.0
            for i in range(ds.m):
                rows = ds.mask[i]
                mean = ds.X[i][rows] @ beta[j] + ds.Z[i][rows][:, :q] @ lp.alpha[i]
                total += stats.norm.logpdf(ds.y[i][rows], mean, eps[j]).sum()
                total += stats.norm.logpdf(lp.alpha[i], 0.0, sig[j]).sum()
            total += stats.norm.logpdf(beta[j], prior.nu_beta, prior.tau_beta).sum()
            total += stats.halfnorm.logpdf(sig[j], scale=prior.tau_sigma).sum()
            total += stats.halfnorm.logpdf(eps[j], scale=prior.tau_eps)
            numerator[j] = total
            one = refine.conditional_log_likelihood(ds, sim.GlobalParams(beta[j], sig[j], eps[j]),
                                                    lp, prior)
            assert one == pytest.approx(total, rel=1e-10)
        draws = PosteriorDraws(global_std=np.column_stack([beta, sig, eps]),
                               log_q_global=numerator, d=ds.d, q=q, infer_noise=True,
                               rec=StandardizationRecord.identity(ds.d),
                               local_std=np.tile(lp.alpha, (k, 1, 1)),
                               log_q_local=np.zeros((k, ds.m)))
        out = refine.alternating_refine(ds, prior, draws, rounds=1)
        np.testing.assert_allclose(out.weights, 1.0, atol=1e-10)

    def test_huge_noise_draws_do_not_raise(self, caplog):
        ds, prior = _toy_dataset(18)
        rng = np.random.default_rng(19)
        k = 50
        local = rng.normal(size=(k, ds.m, ds.q)) * 0.3

        def refine_with_noise(eps):
            global_std = np.column_stack([rng.normal(size=(k, ds.d)),
                                          np.full((k, ds.q), 0.5), eps])
            draws = PosteriorDraws(global_std=global_std, log_q_global=np.zeros(k),
                                   d=ds.d, q=ds.q, infer_noise=True,
                                   rec=StandardizationRecord.identity(ds.d),
                                   local_std=local, log_q_local=np.zeros((k, ds.m)))
            out = refine.alternating_refine(ds, prior, draws)
            assert np.all(np.isfinite(out.weights)) and np.all(np.isfinite(out.local_weights))
            assert out.weights.mean() == pytest.approx(1.0, abs=1e-10)
            np.testing.assert_allclose(out.local_weights.mean(axis=0), 1.0, atol=1e-10)
            return out

        # squaring the plug-in would overflow; in log space it is finite.
        # Neither case may raise a RuntimeWarning (overflow, invalid value)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            refine_with_noise(np.full(k, 1e200))
            # an infinite draw makes the first plug-in infinite: logged
            # uniform fallback; once that draw has global weight 0 the later
            # rounds plug in the weighted draws only and reweight for real
            caplog.clear()
            eps = np.full(k, 0.5)
            eps[3] = np.inf
            out = refine_with_noise(eps)
        assert "falling back to uniform" in caplog.text
        assert np.ptp(out.local_weights) > 0
        assert out.weights[3] == 0.0

    def test_column_weights_match_one_column_at_a_time(self):
        rng = np.random.default_rng(21)
        log_p, log_q = rng.normal(size=(300, 7)) * 3, rng.normal(size=(300, 7))
        log_p[:5, 2] = -np.inf
        log_p[:, 4] = np.nan
        w = refine.importance_weights(log_p, log_q)
        for i in range(7):
            np.testing.assert_allclose(w[:, i], refine.importance_weights(log_p[:, i], log_q[:, i]),
                                       rtol=1e-14)
        np.testing.assert_array_equal(w[:, 4], 1.0)


class TestConformal:
    def _draws(self, k=500, seed=15, d=2, q=1):
        rng = np.random.default_rng(seed)
        rec = StandardizationRecord.identity(d)
        global_std = np.column_stack([rng.normal(size=(k, d)),
                                      np.abs(rng.normal(1.0, 0.3, size=(k, q + 1)))])
        local = rng.normal(size=(k, 3, q))
        return PosteriorDraws(global_std=global_std, log_q_global=np.zeros(k),
                              d=d, q=q, infer_noise=True, rec=rec,
                              local_std=local, log_q_local=np.zeros((k, 3)))

    def test_scores_negative_inside_zero_on_border(self):
        draws = self._draws()
        lo, hi = draws.interval_borders((0.2,))[0][0, 0]
        inside = sim.GlobalParams(np.array([(lo + hi) / 2, 0.0]), np.array([1.0]), 1.0)
        border = sim.GlobalParams(np.array([hi, 0.0]), np.array([1.0]), 1.0)
        lp = sim.LocalParams(np.zeros((3, 1)))
        s_inside = refine.conformal_scores(draws, inside, lp, (0.2,))
        s_border = refine.conformal_scores(draws, border, lp, (0.2,))
        assert s_inside["fixed"][0, 0] < 0
        assert s_border["fixed"][0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_table_adjustments_and_application(self):
        draws = self._draws()
        alphas = (0.1, 0.5)
        # all-inside scores -> negative adjustment -> narrowed interval
        table = refine.build_conformal_table(
            {"fixed": [[-0.5] * 150, [-0.2] * 150],
             "variance": [[0.3] * 150, [0.1] * 150],
             "random": [[0.0] * 150, [0.0] * 150]},
            alphas, n_calibration=150)
        assert table.adjustment("fixed", 0.1) == pytest.approx(-0.5)
        assert not table.low_confidence
        raw = refine.apply_calibration(draws, None, (0.1,))[0][0]
        adj = refine.apply_calibration(draws, table, (0.1,))[0][0]
        lo_r, hi_r = raw[0]
        lo_a, hi_a = adj[0]
        assert lo_a == pytest.approx(lo_r + 0.5) and hi_a == pytest.approx(hi_r - 0.5)
        # positive entry widens the variance components
        lo_r, hi_r = raw[2]
        lo_a, hi_a = adj[2]
        assert lo_a < lo_r and hi_a > hi_r

    def test_small_calibration_marked_low_confidence(self):
        table = refine.build_conformal_table({"fixed": [[0.1] * 10]}, (0.5,), n_calibration=10)
        assert table.low_confidence

    def test_nearest_alpha_fallback(self):
        table = refine.build_conformal_table({"fixed": [[0.0] * 200, [0.5] * 200]},
                                             (0.1, 0.5), n_calibration=200)
        assert table.adjustment("fixed", 0.45) == pytest.approx(0.5)

    def test_nearest_alpha_logged_once_per_table(self, caplog):
        scores = {r: [[0.0] * 200, [0.5] * 200] for r in ("fixed", "variance", "random")}
        tables = [refine.build_conformal_table(scores, (0.1, 0.5), n_calibration=200)
                  for _ in range(2)]
        with caplog.at_level(logging.WARNING, logger="mixedflow.refine"):
            for table in tables:
                for seed in range(4):  # one apply per dataset
                    refine.apply_calibration(self._draws(seed=seed), table, (0.1, 0.25, 0.45))
        lines = [r.getMessage() for r in caplog.records if "not calibrated" in r.getMessage()]
        assert lines == 2 * ["alpha 0.25 not calibrated, using nearest 0.1",
                             "alpha 0.45 not calibrated, using nearest 0.5"]

    def test_degenerate_weights_collapse_interval(self):
        draws = self._draws()
        draws.weights = np.zeros(draws.k)
        draws.weights[7] = draws.k  # all mass on one draw, mean still 1
        lo, hi = draws.interval_borders((0.2,))[0][0, 0]
        assert lo == pytest.approx(draws.global_std[7, 0])
        assert hi == pytest.approx(draws.global_std[7, 0])

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_interval_borders_match_per_alpha_quantiles(self, weighted):
        rng = np.random.default_rng(31)
        draws = self._draws(q=2)
        if weighted:
            w = rng.exponential(size=draws.k)
            w[::7] = 0.0
            draws.weights = w / w.mean()
            lw = rng.exponential(size=(draws.k, draws.m))
            lw[::5, 1] = 0.0
            draws.local_weights = lw / lw.mean(axis=0)
        b_global, b_local = draws.interval_borders(refine.ALPHA_GRID)
        assert b_global.shape == (len(refine.ALPHA_GRID), draws.p_global, 2)
        assert b_local.shape == (len(refine.ALPHA_GRID), draws.m, draws.q, 2)
        for a_idx, alpha in enumerate(refine.ALPHA_GRID):
            probs = [alpha / 2, 1 - alpha / 2]
            for j in range(draws.p_global):
                np.testing.assert_array_equal(
                    b_global[a_idx, j],
                    weighted_quantile(draws.global_std[:, j], probs, draws.weights))
            for i in range(draws.m):
                w = None if draws.local_weights is None else draws.local_weights[:, i]
                for j in range(draws.q):
                    np.testing.assert_array_equal(
                        b_local[a_idx, i, j],
                        weighted_quantile(draws.local_std[:, i, j], probs, w))

    def test_json_round_trip(self):
        table = refine.build_conformal_table(
            {"fixed": [[0.1] * 120, [0.2] * 120]}, (0.1, 0.5), 120, checkpoint_id="abc")
        back = refine.ConformalTable.from_json(table.to_json())
        assert back.alphas == table.alphas
        assert back.adjustments == table.adjustments
        assert back.checkpoint_id == "abc"
