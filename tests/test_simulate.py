"""Simulator contracts: prior supports, parameter moments, predictor
families, correlation machinery, outcome assembly, the Z view and its
batch padding, and the permutation augmentation. Monte Carlo checks use
fixed seeds and 3-standard-error tolerances. The family table must draw
exactly what the if-chain oracle (simulate_oracle) draws."""

import numpy as np
import pytest

import simulate_oracle as oracle
from mixedflow.errors import ConfigError
from mixedflow import io as mfio
from mixedflow import simulate as sim
from mixedflow.model import ModelConfig, make_batch


class TestPriors:
    def test_supports(self):
        rng = np.random.default_rng(0)
        priors = sim.sample_priors(2000, d=3, q=2, rng=rng)
        nu = np.stack([p.nu_beta for p in priors])
        tb = np.stack([p.tau_beta for p in priors])
        ts = np.stack([p.tau_sigma for p in priors])
        te = np.array([p.tau_eps for p in priors])
        assert nu.min() >= -20 and nu.max() <= 20
        assert tb[:, 0].min() >= 0.1 and tb[:, 0].max() <= 30
        assert tb[:, 1:].min() >= 0.1 and tb[:, 1:].max() <= 20
        assert ts.min() >= 0.1 and ts.max() <= 10
        assert te.min() >= 0.001 and te.max() <= 10
        # intercept scale actually uses its wider interval
        assert tb[:, 0].max() > 20

    def test_toy_clamps(self):
        rng = np.random.default_rng(1)
        priors = sim.sample_priors(500, d=2, q=1, rng=rng, toy=True)
        assert all(np.all(p.nu_beta == 0) for p in priors)
        assert max(p.tau_beta.max() for p in priors) <= 5.0
        assert max(p.tau_sigma.max() for p in priors) <= 1.0
        assert max(p.tau_eps for p in priors) <= 1.0

    def test_deterministic_given_seed(self):
        a = sim.sample_priors(3, 4, 2, np.random.default_rng(7))[1]
        b = sim.sample_priors(3, 4, 2, np.random.default_rng(7))[1]
        np.testing.assert_array_equal(a.nu_beta, b.nu_beta)
        np.testing.assert_array_equal(a.tau_beta, b.tau_beta)

    def test_q_greater_than_d_rejected(self):
        with pytest.raises(ConfigError):
            sim.sample_priors(1, d=2, q=3, rng=np.random.default_rng(0))


class TestParameters:
    def test_half_normal_positive(self):
        rng = np.random.default_rng(2)
        prior = sim.sample_priors(1, 3, 2, rng)[0]
        for _ in range(200):
            gp, _ = sim.sample_parameters(prior, m=4, rng=rng)
            assert np.all(gp.sigma_alpha > 0) and gp.sigma_eps > 0

    def test_beta_moments(self):
        rng = np.random.default_rng(3)
        prior = sim.PriorSpec([1.0, -2.0], [0.5, 2.0], [1.0], 1.0)
        n = 100_000
        betas = np.stack([sim.sample_parameters(prior, 1, rng)[0].beta for _ in range(n)])
        se_mean = prior.tau_beta / np.sqrt(n)
        assert np.all(np.abs(betas.mean(axis=0) - prior.nu_beta) < 3 * se_mean)
        se_std = prior.tau_beta / np.sqrt(2 * (n - 1))
        assert np.all(np.abs(betas.std(axis=0) - prior.tau_beta) < 3 * se_std)

    def test_degenerate_scale_collapses_effects(self):
        rng = np.random.default_rng(4)
        prior = sim.PriorSpec([0.0], [1.0], [1e-12], 1e-12)
        gp, lp = sim.sample_parameters(prior, m=10, rng=rng)
        assert np.all(np.abs(gp.sigma_alpha) < 1e-10)
        assert np.all(np.abs(lp.alpha) < 1e-10)


class TestCorrelationMachinery:
    def test_lkj_factor_unit_diagonal(self):
        rng = np.random.default_rng(5)
        for dim in (1, 2, 4, 8):
            L = sim.lkj_cholesky_factor(dim, 10.0, rng)
            R = L @ L.T
            np.testing.assert_allclose(np.diag(R), 1.0, atol=1e-10)
            assert np.all(np.linalg.eigvalsh(R) > 0)

    def test_lkj_offdiagonals_concentrate_near_zero(self):
        rng = np.random.default_rng(6)
        vals = []
        for _ in range(1000):
            R = sim.lkj_correlation(4, 10.0, rng)
            vals.append(R[np.triu_indices(4, k=1)])
        assert abs(np.mean(vals)) < 0.05

    def test_binary_probs_constant_source(self):
        p = sim.binary_probs(np.full(50, 2.0), r=0.5, latent=np.zeros(50))
        assert np.allclose(p, p[0])

    def test_binary_independence_at_r_zero(self):
        rng = np.random.default_rng(7)
        n = 100_000
        x = rng.normal(size=n)
        z = sim.correlated_binary(x, 0.0, rng).astype(float)
        corr = np.corrcoef(x, z)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(n)

    def test_binary_correlation_monotone_in_r(self):
        rng = np.random.default_rng(8)
        n = 100_000
        x = rng.normal(size=n)
        z_hi = sim.correlated_binary(x, 0.9, np.random.default_rng(9)).astype(float)
        z_lo = sim.correlated_binary(x, 0.1, np.random.default_rng(9)).astype(float)
        assert np.corrcoef(x, z_hi)[0, 1] > np.corrcoef(x, z_lo)[0, 1]

    def test_r_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            sim.correlated_binary(np.zeros(3), 1.0, np.random.default_rng(0))


class TestPredictors:
    def test_family_frequencies(self):
        rng = np.random.default_rng(10)
        counts = {f: 0 for f in sim.FAMILIES}
        n = 10_000
        for fam in sim.choose_families(n, rng):
            counts[fam] += 1
        for fam, prob in zip(sim.FAMILIES, sim.FAMILY_PROBS):
            se = np.sqrt(prob * (1 - prob) / n)
            assert abs(counts[fam] / n - prob) < 3 * se, fam

    def test_intercept_and_padding(self):
        rng = np.random.default_rng(11)
        sizes = np.array([3, 5, 2])
        X = sim.sample_predictors(3, sizes, d=4, rng=rng)
        assert X.shape == (3, 5, 4)
        for i, n_i in enumerate(sizes):
            np.testing.assert_array_equal(X[i, :n_i, 0], 1.0)
            np.testing.assert_array_equal(X[i, n_i:], 0.0)

    def test_single_column_design(self):
        rng = np.random.default_rng(12)
        X = sim.sample_predictors(2, np.array([4, 4]), d=1, rng=rng)
        np.testing.assert_array_equal(X[:, :, 0], 1.0)

    def test_toy_predictors_standard_normal(self):
        rng = np.random.default_rng(13)
        cfg = sim.SimConfig(toy=True)
        X = sim.sample_predictors(40, np.full(40, 60), d=2, rng=rng, cfg=cfg)
        vals = X[:, :, 1][X[:, :, 0] == 1.0]
        assert abs(vals.mean()) < 3.0 / np.sqrt(vals.size)
        assert abs(vals.std() - 1.0) < 0.05


class TestAssembly:
    def _dataset(self, seed=0, d=3, q=2):
        rng = np.random.default_rng(seed)
        return sim.simulate_dataset(d, q, rng)

    def test_noiseless_fixed_effects(self):
        rng = np.random.default_rng(14)
        prior = sim.sample_priors(1, 2, 1, rng)[0]
        gp = sim.GlobalParams([1.0, -2.0], [0.5], 0.0)
        lp = sim.LocalParams(np.zeros((3, 1)))
        sizes = np.array([4, 2, 3])
        X = sim.sample_predictors(3, sizes, 2, rng)
        ds = sim.assemble_dataset(prior, gp, lp, X, sizes, rng)
        np.testing.assert_allclose(ds.y, (X @ gp.beta) * ds.mask)

    def test_recompute_bit_identical(self):
        ds = self._dataset(15)
        np.testing.assert_array_equal(sim.regenerate_outcomes(ds), ds.y)

    def test_padding_zero_and_mask_consistent(self):
        ds = self._dataset(16)
        assert np.all(ds.y[~ds.mask] == 0)
        assert np.all(ds.X[~ds.mask] == 0)
        np.testing.assert_array_equal(ds.mask.sum(axis=1), ds.group_sizes)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_batch_z_is_x_up_to_q(self, d, tmp_path):
        """Datasets expose Z as the first q columns of X; make_batch pads it
        to d columns with zeros, for simulated and observation-CSV data."""
        path = tmp_path / "obs.csv"
        vals = np.random.default_rng(d).normal(size=(7, d))
        groups = "aabbbca"
        path.write_text(",".join(["group_id", "y"] + [f"x_{k}" for k in range(1, d)]) + "\n"
                        + "".join(f"{g}," + ",".join(map(repr, row)) + "\n"
                                  for g, row in zip(groups, vals.tolist())))
        for q in range(1, d + 1):
            sets = [sim.simulate_dataset(d, q, np.random.default_rng(30 + q),
                                         sim.SimConfig(m_range=(2, 4), n_range=(2, 6))),
                    mfio.read_observations_csv(path, q=q)]
            for ds in sets:
                assert ds.Z.shape == ds.X.shape[:2] + (q,)
                np.testing.assert_array_equal(ds.Z, ds.X[:, :, :q])
            b = make_batch(sets, ModelConfig(d=d, q=q), priors=[sets[0].truth.prior] * 2)
            assert b.Z.shape == b.X.shape and b.Z.dtype == b.X.dtype
            np.testing.assert_array_equal(b.Z[..., :q], b.X[..., :q])
            assert np.all(b.Z[..., q:] == 0)

    def test_marginal_covariance_matches_formula(self):
        # redraw (alpha, eps) many times for one fixed group design
        rng = np.random.default_rng(17)
        n_i, q = 4, 2
        sizes = np.array([n_i])
        X = sim.sample_predictors(1, sizes, d=3, rng=rng)
        prior = sim.PriorSpec([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.7, 0.4], 0.3)
        sigma_alpha = np.array([0.7, 0.4])
        sigma_eps = 0.3
        beta = np.array([1.0, -1.0, 0.5])
        reps = 10_000
        ys = np.empty((reps, n_i))
        for t in range(reps):
            alpha = rng.normal(0, 1, size=(1, q)) * sigma_alpha
            gp = sim.GlobalParams(beta, sigma_alpha, sigma_eps)
            ds = sim.assemble_dataset(prior, gp, sim.LocalParams(alpha), X, sizes, rng)
            ys[t] = ds.y[0, :n_i]
        Zq = X[0, :n_i, :q]
        expected = Zq @ np.diag(sigma_alpha**2) @ Zq.T + sigma_eps**2 * np.eye(n_i)
        emp = np.cov(ys.T)
        scale = np.abs(np.diag(expected)).max()
        assert np.abs(emp - expected).max() < 5 * scale / np.sqrt(reps) * 3


class TestDerived:
    def test_snr_trivial_cases(self):
        ds = sim.simulate_dataset(2, 1, np.random.default_rng(18))
        noise = ds.truth.noise
        # signal equals noise -> ratio one
        ds_same = sim.HierDataset(X=ds.X, y=2 * noise, mask=ds.mask, q=ds.q,
                                  truth=sim.Truth(ds.truth.prior, ds.truth.global_params,
                                                  ds.truth.local_params, noise))
        assert sim.snr(ds_same) == pytest.approx(1.0)

    def test_snr_zero_signal(self):
        rng = np.random.default_rng(19)
        prior = sim.sample_priors(1, 2, 1, rng)[0]
        gp = sim.GlobalParams([0.0, 0.0], [1e-300, ], 1.0)
        lp = sim.LocalParams(np.zeros((2, 1)))
        sizes = np.array([5, 5])
        X = sim.sample_predictors(2, sizes, 2, rng)
        ds = sim.assemble_dataset(prior, gp, lp, X, sizes, rng)
        assert sim.snr(ds) == pytest.approx(0.0)

    def test_snr_infinite_when_noise_free(self):
        rng = np.random.default_rng(20)
        prior = sim.sample_priors(1, 2, 1, rng)[0]
        gp = sim.GlobalParams([1.0, 1.0], [0.5], 0.0)
        lp = sim.LocalParams(rng.normal(size=(2, 1)))
        sizes = np.array([5, 5])
        X = sim.sample_predictors(2, sizes, 2, rng)
        ds = sim.assemble_dataset(prior, gp, lp, X, sizes, rng)
        assert np.isinf(sim.snr(ds))

    def test_snr_quarters_when_noise_doubles(self):
        rng = np.random.default_rng(21)
        ratios = []
        for _ in range(30):
            prior = sim.sample_priors(1, 2, 1, rng, toy=True)[0]
            gp, lp = sim.sample_parameters(prior, 6, rng)
            sizes = rng.integers(10, 30, size=6)
            X = sim.sample_predictors(6, sizes, 2, rng)
            gp1 = sim.GlobalParams(gp.beta, gp.sigma_alpha, max(gp.sigma_eps, 0.05))
            gp2 = sim.GlobalParams(gp.beta, gp.sigma_alpha, 2 * gp1.sigma_eps)
            s1 = sim.snr(sim.assemble_dataset(prior, gp1, lp, X, sizes, rng))
            s2 = sim.snr(sim.assemble_dataset(prior, gp2, lp, X, sizes, rng))
            ratios.append(s1 / s2)
        assert 2.5 < np.median(ratios) < 6.5


class TestPermutation:
    def _dataset(self):
        return sim.simulate_dataset(5, 3, np.random.default_rng(22))

    def test_identity_unchanged(self):
        ds = self._dataset()
        out = sim.permute_columns(ds, np.arange(ds.d))
        np.testing.assert_array_equal(out.X, ds.X)
        np.testing.assert_array_equal(out.truth.global_params.beta, ds.truth.global_params.beta)

    def test_perm_then_inverse_restores(self):
        ds = self._dataset()
        perm = np.array([0, 2, 1, 4, 3])  # swaps inside each block
        inv = np.argsort(perm)
        back = sim.permute_columns(sim.permute_columns(ds, perm), inv)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.truth.local_params.alpha, ds.truth.local_params.alpha)

    def test_outcomes_invariant(self):
        ds = self._dataset()
        out = sim.permute_columns(ds, np.array([0, 2, 1, 4, 3]))
        np.testing.assert_allclose(sim.regenerate_outcomes(out), ds.y, atol=1e-12)

    def test_invalid_perms_rejected(self):
        ds = self._dataset()
        with pytest.raises(ConfigError):
            sim.permute_columns(ds, np.array([1, 0, 2, 3, 4]))  # moves intercept
        with pytest.raises(ConfigError):
            sim.permute_columns(ds, np.array([0, 3, 1, 2, 4]))  # crosses the q block


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


class TestFamilyOracle:
    """The family table reproduces the if-chain simulator draw for draw:
    equal bytes and the same RNG stream position afterwards."""

    SEEDS = range(60)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_sample_predictors(self, d):
        for seed in self.SEEDS:
            rng = np.random.default_rng([d, seed])
            m = int(rng.integers(1, 12))
            sizes = rng.integers(1, 40, size=m)
            rng_a, rng_b = np.random.default_rng([d, seed, 1]), np.random.default_rng([d, seed, 1])
            _same_bytes(sim.sample_predictors(m, sizes, d, rng_a),
                        oracle.sample_predictors(m, sizes, d, rng_b))
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("d,q", [(d, q) for d in range(1, 9) for q in range(1, min(d, 3) + 1)])
    @pytest.mark.parametrize("toy", [False, True])
    def test_simulate_dataset(self, d, q, toy):
        for seed in self.SEEDS:
            rng_a, rng_b = np.random.default_rng([d, q, seed]), np.random.default_rng([d, q, seed])
            ds = sim.simulate_dataset(d, q, rng_a, sim.SimConfig(toy=toy))
            ref = oracle.simulate_dataset(d, q, rng_b, toy=toy)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
            t = ds.truth
            got = {"X": ds.X, "y": ds.y, "mask": ds.mask,
                   "group_sizes": ds.group_sizes, "noise": t.noise,
                   "beta": t.global_params.beta, "sigma_alpha": t.global_params.sigma_alpha,
                   "sigma_eps": np.float64(t.global_params.sigma_eps),
                   "alpha": t.local_params.alpha, "nu_beta": t.prior.nu_beta,
                   "tau_beta": t.prior.tau_beta, "tau_sigma": t.prior.tau_sigma,
                   "tau_eps": np.float64(t.prior.tau_eps)}
            for name, value in got.items():
                _same_bytes(value, ref[name])
            _same_bytes(ds.Z, ref["Z"][:, :, :q])
