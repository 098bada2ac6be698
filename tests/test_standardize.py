"""Standardization: moment contracts on the data side, the analytic
parameter transforms and their exact inverses, and the consistency
identity between standardized outcomes and z-scored outcomes, with
property tests of the round trips and prior pushforward over arbitrary
records."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import standardize_oracle as oracle
from mixedflow import simulate as sim
from mixedflow import standardize as stz
from mixedflow.errors import ConfigError


def _dataset(seed, d=3, q=2, toy=False):
    return sim.simulate_dataset(d, q, np.random.default_rng(seed), sim.SimConfig(toy=toy))


class TestDataSide:
    def test_moments_after_standardization(self):
        ds, rec = stz.standardize_data(_dataset(0))
        assert abs(ds.y[ds.mask].mean()) < 1e-10
        assert abs(ds.y[ds.mask].std() - 1.0) < 1e-10
        for k in range(1, ds.d):
            col = ds.X[:, :, k][ds.mask]
            assert abs(col.mean()) < 1e-10
            assert abs(col.std() - 1.0) < 1e-10

    def test_intercept_column_exempt(self):
        ds, rec = stz.standardize_data(_dataset(1))
        assert np.all(ds.X[:, :, 0][ds.mask] == 1.0)
        assert rec.mu_x[0] == 1.0 and rec.sigma_x[0] == 1.0

    def test_idempotent_on_standardized_data(self):
        ds, _ = stz.standardize_data(_dataset(2))
        again, rec = stz.standardize_data(ds)
        np.testing.assert_allclose(again.X, ds.X, atol=1e-12)
        np.testing.assert_allclose(again.y, ds.y, atol=1e-12)

    def test_padding_stays_zero(self):
        ds, _ = stz.standardize_data(_dataset(3))
        assert np.all(ds.X[~ds.mask] == 0)
        assert np.all(ds.y[~ds.mask] == 0)

    def test_degenerate_column_flagged(self):
        raw = _dataset(4)
        raw.X[:, :, 2] = raw.mask * 5.0  # constant predictor
        ds, rec = stz.standardize_data(raw)
        assert rec.degenerate_x[2]
        assert rec.sigma_x[2] == 1.0
        assert np.all(np.abs(ds.X[:, :, 2][ds.mask]) < 1e-12)

    def test_a_given_record_is_applied_as_derived(self):
        raw = _dataset(6)
        derived, rec = stz.standardize_data(raw)
        applied, same = stz.standardize_data(raw, rec)
        assert same is rec
        for a, b in ((applied.X, derived.X), (applied.y, derived.y),
                     (applied.truth.global_params.vector(), derived.truth.global_params.vector()),
                     (applied.truth.local_params.alpha, derived.truth.local_params.alpha),
                     (applied.truth.noise, derived.truth.noise)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("d, q, scale", [
        (1, 0, None), (3, 0, None), (1, 1, None), (2, 1, None), (4, 2, None), (3, 3, None),
        (3, 2, sim.PRIOR_SCALE_RANGE[0]), (3, 2, sim.PRIOR_SCALE_RANGE[1])])
    def test_identity_record_changes_no_bit(self, d, q, scale):
        """What a known-noise model's identity record gives back is its
        input, bit for bit: the data and truth, the prior and the joint
        fixed-effect prior (nu_beta, diag(tau_beta^2)). So model space is
        entered the same way whether or not a model standardizes. A given
        `scale` replaces every prior scale: at either end of PriorSpec's
        range the squares summed in standardize_prior are normal floats."""
        rng = np.random.default_rng(7 + d + q)
        raw = (sim.simulate_dataset(d, q, rng, sim.SimConfig()) if q
               else sim.simulate_conjugate_dataset(d, rng))   # the known-noise family
        rec = stz.StandardizationRecord.identity(d)
        out, _ = stz.standardize_data(raw, rec)
        truth, prior = raw.truth, raw.truth.prior
        if scale is not None:
            prior = sim.PriorSpec(prior.nu_beta, np.full(d, scale), np.full(q, scale), scale)
        for a, b in ((out.X, raw.X), (out.y, raw.y), (out.mask, raw.mask),
                     (out.truth.global_params.vector(), truth.global_params.vector()),
                     (out.truth.local_params.alpha, truth.local_params.alpha),
                     (out.truth.noise, truth.noise)):
            assert a.tobytes() == b.tobytes()
        moved = stz.standardize_prior(prior, rec)
        for a, b in ((moved.nu_beta, prior.nu_beta), (moved.tau_beta, prior.tau_beta),
                     (moved.tau_sigma, prior.tau_sigma), (out.truth.prior.nu_beta, prior.nu_beta)):
            assert a.tobytes() == b.tobytes()
        assert moved.tau_eps == prior.tau_eps
        mean, cov = stz.standardized_beta_prior(prior, rec)
        assert mean.tobytes() == prior.nu_beta.tobytes()
        assert cov.tobytes() == np.diag(prior.tau_beta ** 2).tobytes()

    @pytest.mark.parametrize("scale", [2.0 ** -512, 2.0 ** 512, np.inf, np.nan, 0.0, -1.0])
    def test_prior_scales_whose_square_is_not_normal_are_refused(self, scale):
        for args in (([0.0], [scale], [], 1.0), ([0.0], [1.0], [scale], 1.0),
                     ([0.0], [1.0], [], scale)):
            with pytest.raises(ConfigError):
                sim.PriorSpec(*args)


class TestParamTransforms:
    def test_slope_substitution(self):
        rec = stz.StandardizationRecord(np.array([1.0, 0.0]), np.array([1.0, 3.0]),
                                        0.0, 6.0, np.zeros(2, dtype=bool))
        gp = sim.GlobalParams([0.0, 2.0], np.zeros(0), 1.0)
        out, _ = stz.standardize_params(gp, sim.LocalParams(np.zeros((1, 0))), rec)
        assert out.beta[1] == pytest.approx(1.0)

    def test_intercept_substitution(self):
        rec = stz.StandardizationRecord(np.array([1.0, 2.0]), np.array([1.0, 1.0]),
                                        7.0, 2.0, np.zeros(2, dtype=bool))
        gp = sim.GlobalParams([1.0, 3.0], np.zeros(0), 1.0)
        out, _ = stz.standardize_params(gp, sim.LocalParams(np.zeros((1, 0))), rec)
        assert out.beta[0] == pytest.approx((1.0 + 6.0 - 7.0) / 2.0)

    def test_round_trip_exact(self):
        for seed in range(20):
            ds = _dataset(seed, d=4, q=3)
            _, rec = stz.standardize_data(ds)
            gp, lp = ds.truth.global_params, ds.truth.local_params
            gp_s, lp_s = stz.standardize_params(gp, lp, rec)
            gp_b, lp_b = stz.unstandardize_params(gp_s, lp_s, rec)
            np.testing.assert_allclose(gp_b.beta, gp.beta, atol=1e-10)
            np.testing.assert_allclose(gp_b.sigma_alpha, gp.sigma_alpha, atol=1e-10)
            assert gp_b.sigma_eps == pytest.approx(gp.sigma_eps, abs=1e-10)
            np.testing.assert_allclose(lp_b.alpha, lp.alpha, atol=1e-10)

    def test_identity_record_is_identity_map(self):
        ds = _dataset(5, d=3, q=1)
        rec = stz.StandardizationRecord.identity(3)
        gp, lp = ds.truth.global_params, ds.truth.local_params
        gp_s, lp_s = stz.standardize_params(gp, lp, rec)
        np.testing.assert_allclose(gp_s.beta, gp.beta, atol=1e-12)
        np.testing.assert_allclose(gp_s.sigma_alpha, gp.sigma_alpha, atol=1e-12)
        np.testing.assert_allclose(lp_s.alpha, lp.alpha, atol=1e-12)

    def test_outcome_identity(self):
        # standardized params regenerate exactly the z-scored outcomes
        for seed in range(20):
            ds = _dataset(seed + 100, d=int(np.random.default_rng(seed).integers(1, 5)), q=1)
            ds_s, rec = stz.standardize_data(ds)
            y_re = sim.regenerate_outcomes(ds_s)
            np.testing.assert_allclose(y_re, ds_s.y, atol=1e-8)


class TestDrawTransforms:
    def test_global_draw_round_trip(self):
        ds = _dataset(6, d=3, q=2)
        _, rec = stz.standardize_data(ds)
        rng = np.random.default_rng(7)
        k, d, q = 50, 3, 2
        draws = np.column_stack([
            rng.normal(size=(k, d)),
            np.abs(rng.normal(size=(k, q))) + 0.1,
            np.abs(rng.normal(size=(k, 1))) + 0.1,
        ])
        gp_list = [sim.GlobalParams(row[:d], row[d:d + q], row[d + q]) for row in draws]
        std_rows = []
        for gp in gp_list:
            gp_s, _ = stz.standardize_params(gp, sim.LocalParams(np.zeros((1, q))), rec)
            std_rows.append(np.concatenate([gp_s.beta, gp_s.sigma_alpha, [gp_s.sigma_eps]]))
        back = stz.unstandardize_global_draws(np.stack(std_rows), d, q, rec)
        np.testing.assert_allclose(back, draws, atol=1e-10)

    def test_local_draw_round_trip(self):
        ds = _dataset(8, d=4, q=3)
        _, rec = stz.standardize_data(ds)
        rng = np.random.default_rng(9)
        alpha = rng.normal(size=(30, 5, 3))
        std = np.stack([
            stz.standardize_params(
                sim.GlobalParams(np.zeros(4), np.ones(3), 1.0),
                sim.LocalParams(a), rec)[1].alpha
            for a in alpha
        ])
        back = stz.unstandardize_local_draws(std, 3, rec)
        np.testing.assert_allclose(back, alpha, atol=1e-10)

    def test_interval_order_preserved(self):
        ds = _dataset(10, d=2, q=1)
        _, rec = stz.standardize_data(ds)
        rng = np.random.default_rng(11)
        draws = np.column_stack([
            rng.normal(size=(200, 2)),
            np.abs(rng.normal(size=(200, 1))) + 0.05,
            np.abs(rng.normal(size=(200, 1))) + 0.05,
        ])
        back = stz.unstandardize_global_draws(draws, 2, 1, rec)
        for j in range(back.shape[1]):
            lo_s, hi_s = np.quantile(draws[:, j], [0.1, 0.9])
            # transform the two borders through the same per-component map
            row_lo, row_hi = draws[0].copy(), draws[0].copy()
            row_lo[j], row_hi[j] = lo_s, hi_s
            t_lo = stz.unstandardize_global_draws(row_lo[None], 2, 1, rec)[0, j]
            t_hi = stz.unstandardize_global_draws(row_hi[None], 2, 1, rec)[0, j]
            if j != 0:  # the intercept mixes in slope draws, order flips with sign
                assert t_lo < t_hi


class TestPriorPushforward:
    def test_standardized_beta_prior_matches_monte_carlo(self):
        ds = _dataset(12, d=3, q=1)
        _, rec = stz.standardize_data(ds)
        prior = ds.truth.prior
        mean, cov = stz.standardized_beta_prior(prior, rec)
        rng = np.random.default_rng(13)
        n = 200_000
        beta = rng.normal(prior.nu_beta, prior.tau_beta, size=(n, 3))
        std = np.empty_like(beta)
        std[:, 1:] = beta[:, 1:] * rec.sigma_x[1:] / rec.sigma_y
        std[:, 0] = (beta[:, 0] + beta[:, 1:] @ rec.mu_x[1:] - rec.mu_y) / rec.sigma_y
        np.testing.assert_allclose(std.mean(axis=0), mean, atol=4 * np.sqrt(np.diag(cov)).max() / np.sqrt(n))
        np.testing.assert_allclose(np.cov(std.T), cov, rtol=0.05, atol=np.abs(cov).max() * 0.02)

    def test_scale_entries_positive(self):
        ds = _dataset(14, d=4, q=2)
        _, rec = stz.standardize_data(ds)
        p = stz.standardize_prior(ds.truth.prior, rec)
        assert np.all(p.tau_beta > 0) and np.all(p.tau_sigma > 0) and p.tau_eps > 0


# properties over arbitrary records ------------------------------------------
#
# Tolerance, fixed before the first run: every checked entry may differ by
# RTOL times the magnitude of the transform that produced it, the sum of the
# absolute values of the terms it combines. Entries that only scale have
# their own size as magnitude; the intercept, the random intercept and its
# std dev subtract, so a result near zero is judged against the size of the
# terms that cancelled. The random-intercept std dev is compared squared,
# where its inverse subtracts: |s0_back^2 - s0^2| <= RTOL * sum(mu_z^2 s^2).
# A few float64 roundings per term stay far below it. Relative precision
# ends at the bottom of the normal range: a subnormal result is rounded to
# an absolute grid of 5e-324, so magnitudes are floored at the smallest
# normal float64 (the pinned subnormal examples below miss the bound
# without the floor).

RTOL = 1e-12
MEAN = st.floats(-1e3, 1e3)
SCALE = st.floats(1e-3, 1e3)


@st.composite
def _record(draw, d):
    """A record that keeps the intercept entry at mu=1, sigma=1."""
    mu_x = np.concatenate([[1.0], draw(hnp.arrays(np.float64, d - 1, elements=MEAN))])
    sigma_x = np.concatenate([[1.0], draw(hnp.arrays(np.float64, d - 1, elements=SCALE))])
    return stz.StandardizationRecord(mu_x, sigma_x, draw(MEAN), draw(SCALE),
                                     np.zeros(d, dtype=bool))


@st.composite
def _case(draw):
    d = draw(st.integers(1, 5))
    q = draw(st.integers(0, d))
    m = draw(st.integers(1, 4))
    gp = sim.GlobalParams(draw(hnp.arrays(np.float64, d, elements=MEAN)),
                          draw(hnp.arrays(np.float64, q, elements=SCALE)), draw(SCALE))
    lp = sim.LocalParams(draw(hnp.arrays(np.float64, (m, q), elements=MEAN)))
    return draw(_record(d)), gp, lp


def _magnitudes(gp, lp, rec):
    """Per-entry transform magnitude of (beta, sigma_alpha^2, alpha) on the
    data scale, from the absolute values of the terms each one combines."""
    d, q = rec.d, gp.sigma_alpha.shape[0]
    mu_z = np.abs(rec.mu_x[:q])
    beta = np.abs(gp.beta)
    beta[0] += np.abs(gp.beta[1:]) @ np.abs(rec.mu_x[1:]) + abs(rec.mu_y)
    var = gp.sigma_alpha ** 2
    alpha = np.abs(lp.alpha)
    if q >= 1:
        var[0] = np.sum(mu_z ** 2 * gp.sigma_alpha ** 2)
        alpha[:, 0] = np.abs(lp.alpha) @ mu_z
    return beta, var, alpha


def _close(got, want, magnitude):
    bound = RTOL * np.maximum(magnitude, np.finfo(np.float64).tiny)
    assert np.all(np.abs(np.asarray(got) - want) <= bound), (got, want)


def _rec(mu_x, sigma_x, mu_y, sigma_y):
    return stz.StandardizationRecord(np.array(mu_x), np.array(sigma_x), mu_y, sigma_y,
                                     np.zeros(len(mu_x), dtype=bool))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_case())
@example(case=(_rec((1.0, 0.0), (1.0, 0.0625), 0.0, 1.0),
               sim.GlobalParams(np.array([2.2e-311, 2.2e-311]), np.zeros(0), 1.0),
               sim.LocalParams(np.zeros((1, 0)))))
def test_params_round_trip(case):
    rec, gp, lp = case
    back_g, back_l = stz.unstandardize_params(*stz.standardize_params(gp, lp, rec), rec)
    beta_mag, var_mag, alpha_mag = _magnitudes(gp, lp, rec)
    _close(back_g.beta, gp.beta, beta_mag)
    _close(back_g.sigma_alpha ** 2, gp.sigma_alpha ** 2, var_mag)
    _close(back_g.sigma_eps, gp.sigma_eps, gp.sigma_eps)
    _close(back_l.alpha, lp.alpha, alpha_mag)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_case(), k=st.integers(1, 4), has_noise=st.booleans(), data=st.data())
def test_draw_transforms_match_params_row_by_row(case, k, has_noise, data):
    rec, gp, lp = case
    d, q, m = rec.d, gp.sigma_alpha.shape[0], lp.alpha.shape[0]
    beta = data.draw(hnp.arrays(np.float64, (k, d), elements=MEAN))
    sigma = data.draw(hnp.arrays(np.float64, (k, q + 1), elements=SCALE))
    alpha = data.draw(hnp.arrays(np.float64, (k, m, q), elements=MEAN))
    width = d + q + has_noise
    glob = stz.unstandardize_global_draws(np.column_stack([beta, sigma])[:, :width],
                                          d, q, rec, has_noise=has_noise)
    local = stz.unstandardize_local_draws(alpha, q, rec)
    for j in range(k):
        gp_s = sim.GlobalParams(beta[j], sigma[j, :q], sigma[j, q])
        lp_s = sim.LocalParams(alpha[j])
        gp_b, lp_b = oracle.unstandardize_params(gp_s, lp_s, rec)
        beta_mag, var_mag, alpha_mag = _magnitudes(gp_b, lp_b, rec)
        _close(glob[j, :d], gp_b.beta, beta_mag)
        _close(glob[j, d:d + q] ** 2, gp_b.sigma_alpha ** 2, var_mag)
        if has_noise:
            _close(glob[j, d + q], gp_b.sigma_eps, gp_b.sigma_eps)
        _close(local[j], lp_b.alpha, alpha_mag)


@st.composite
def _prior_case(draw):
    rec, gp, _ = draw(_case())
    d, q = rec.d, gp.sigma_alpha.shape[0]
    return rec, sim.PriorSpec(draw(hnp.arrays(np.float64, d, elements=MEAN)),
                              draw(hnp.arrays(np.float64, d, elements=SCALE)),
                              draw(hnp.arrays(np.float64, q, elements=SCALE)),
                              draw(SCALE))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_prior_case())
@example(case=(_rec((1.0, 0.0), (1.0, 0.6), 0.0, 0.5),
               sim.PriorSpec(np.array([0.0, 5e-324]), np.ones(2), np.zeros(0), 1.0)))
def test_prior_pushforward_matches_exact_beta_prior(case):
    rec, prior = case
    pushed = stz.standardize_prior(prior, rec)
    mean, cov = stz.standardized_beta_prior(prior, rec)
    mean_mag = np.abs(prior.nu_beta) * rec.sigma_x / rec.sigma_y
    mean_mag[0] = (abs(prior.nu_beta[0]) + np.abs(prior.nu_beta[1:]) @ np.abs(rec.mu_x[1:])
                   + abs(rec.mu_y)) / rec.sigma_y
    _close(pushed.nu_beta, mean, mean_mag)
    # every term of the scale is non-negative, so its own size is the magnitude
    _close(pushed.tau_beta, np.sqrt(np.diag(cov)), pushed.tau_beta)


# against the reference formulas -----------------------------------------------

ORACLE_SEEDS = 25


def _oracle_sets(kind):
    """Seeded (dataset, prior, global, local parameters): toy, non-toy and
    degenerate-column sets for d = 1..6 and q = 0..d (no degenerate slope
    at d = 1), and conjugate sets for d = 1..6. A q = 0 case keeps no
    random effect of a set simulated with one."""
    if kind == "conjugate":
        for d in range(1, 7):
            for seed in range(40):
                ds = sim.simulate_conjugate_dataset(d, np.random.default_rng([d, seed]))
                yield ds, ds.truth.prior, ds.truth.global_params, ds.truth.local_params
        return
    for d in range(2 if kind == "degenerate" else 1, 7):
        for q in range(d + 1):
            for seed in range(ORACLE_SEEDS):
                ds = sim.simulate_dataset(d, max(q, 1), np.random.default_rng([d, q, seed]),
                                          sim.SimConfig(toy=kind == "toy"))
                if kind == "degenerate":
                    ds.X[:, :, d - 1] = ds.mask * 5.0
                prior, gp, lp = ds.truth.prior, ds.truth.global_params, ds.truth.local_params
                yield (ds, sim.PriorSpec(prior.nu_beta, prior.tau_beta, prior.tau_sigma[:q],
                                         prior.tau_eps),
                       sim.GlobalParams(gp.beta, gp.sigma_alpha[:q], gp.sigma_eps),
                       sim.LocalParams(lp.alpha[:, :q]))


@pytest.mark.parametrize("kind", ["toy", "non-toy", "degenerate", "conjugate"])
def test_prior_and_inverse_match_reference_formulas(kind):
    """standardize_prior is byte-equal to the formulas it replaced, and
    unstandardize_params agrees with them within RTOL."""
    cases = 0
    for ds, prior, gp, lp in _oracle_sets(kind):
        _, rec = stz.standardize_data(ds)
        assert rec.degenerate_x[-1] == (kind == "degenerate")
        got, want = stz.standardize_prior(prior, rec), oracle.standardize_prior(prior, rec)
        for name in ("nu_beta", "tau_beta", "tau_sigma"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.tau_eps == want.tau_eps
        gp_s, lp_s = stz.standardize_params(gp, lp, rec)
        gp_b, lp_b = stz.unstandardize_params(gp_s, lp_s, rec)
        ref_g, ref_l = oracle.unstandardize_params(gp_s, lp_s, rec)
        beta_mag, var_mag, alpha_mag = _magnitudes(ref_g, ref_l, rec)
        _close(gp_b.beta, ref_g.beta, beta_mag)
        _close(gp_b.sigma_alpha ** 2, ref_g.sigma_alpha ** 2, var_mag)
        _close(gp_b.sigma_eps, ref_g.sigma_eps, ref_g.sigma_eps)
        _close(lp_b.alpha, ref_l.alpha, alpha_mag)
        cases += 1
    assert cases == {"conjugate": 240, "degenerate": 625}.get(kind, 675)
