"""End-to-end inference pipeline: refinement modes, interval mapping to
the data scale, draw positivity, and the training divergence guard."""

import numpy as np
import pytest

import refine_oracle as oracle
from mixedflow import refine, simulate as sim
from mixedflow.errors import ConfigError, NumericError
from mixedflow.model import ModelConfig, PosteriorModel
from mixedflow.pipeline import infer_one, posterior_draws
from mixedflow.refine import build_conformal_table
from mixedflow.seeding import substream
from mixedflow.standardize import (standardize_data, standardize_prior,
                                   standardized_beta_prior)
from mixedflow.train import TrainConfig, train

SMALL = dict(width=16, summary_blocks=1, heads=2, flow_blocks=2, flow_hidden=16)


@pytest.fixture(scope="module")
def model():
    return PosteriorModel(ModelConfig(d=2, q=1, **SMALL), np.random.default_rng(0))


@pytest.fixture(scope="module")
def dataset():
    return sim.simulate_dataset(2, 1, np.random.default_rng(1), sim.SimConfig(toy=True))


class TestInferOne:
    def test_refine_none_has_no_weights(self, model, dataset):
        draws, intervals = infer_one(model, dataset, k=64, rng=substream(2, "a"))
        assert draws.weights is None
        assert set(intervals) == set((0.05, 0.1, 0.2, 0.32, 0.5))

    def test_refine_is_sets_normalized_weights(self, model, dataset):
        draws, _ = infer_one(model, dataset, k=64, rng=substream(2, "a"), refine="is")
        assert draws.weights is not None
        assert draws.weights.sum() == pytest.approx(64, abs=1e-8)
        assert draws.local_weights.shape == (64, dataset.m)
        np.testing.assert_allclose(draws.local_weights.sum(axis=0), 64, atol=1e-8)

    def test_conformal_requires_table(self, model, dataset):
        with pytest.raises(ConfigError):
            infer_one(model, dataset, k=16, rng=substream(3, "b"), refine="conformal")

    def test_conformal_widens_data_scale_intervals(self, model, dataset):
        raw_draws, raw = infer_one(model, dataset, k=64, rng=substream(4, "c"))
        table = build_conformal_table(
            {"fixed": [[0.4] * 150] * 5, "variance": [[0.4] * 150] * 5,
             "random": [[0.4] * 150] * 5},
            (0.05, 0.1, 0.2, 0.32, 0.5), n_calibration=150)
        _, adj = infer_one(model, dataset, k=64, rng=substream(4, "c"),
                           refine="conformal", table=table)
        for alpha in (0.05, 0.5):
            for j in range(1, 4):  # slope and scale components map monotonely
                lo_r, hi_r = raw[alpha]["global"][j]
                lo_a, hi_a = adj[alpha]["global"][j]
                assert lo_a <= lo_r and hi_a >= hi_r

    def test_interval_order_on_data_scale(self, model, dataset):
        _, intervals = infer_one(model, dataset, k=64, rng=substream(5, "d"))
        for alpha, iv in intervals.items():
            for lo, hi in iv["global"]:
                assert lo <= hi
            for row in iv["local"]:
                for lo, hi in row:
                    assert lo <= hi

    def test_variance_draws_strictly_positive(self, model, dataset):
        draws, _ = infer_one(model, dataset, k=256, rng=substream(6, "e"))
        assert np.all(draws.global_std[:, 2:] > 0)

    def test_missing_prior_rejected(self, model, dataset):
        bare = sim.HierDataset(X=dataset.X, Z=dataset.Z, y=dataset.y, mask=dataset.mask,
                               group_sizes=dataset.group_sizes, d=dataset.d,
                               q=dataset.q, m=dataset.m, truth=None)
        with pytest.raises(ConfigError):
            infer_one(model, bare, k=8, rng=substream(7, "f"))

    def test_recorded_prior_equals_passed_prior(self, model, dataset):
        recorded = model.posterior(dataset, 32, substream(9, "h"))
        passed = model.posterior(dataset, 32, substream(9, "h"), prior=dataset.truth.prior)
        np.testing.assert_array_equal(recorded.global_std, passed.global_std)
        np.testing.assert_array_equal(recorded.local_std, passed.local_std)

    def test_explicit_prior_accepted(self, model, dataset):
        prior = sim.PriorSpec(np.zeros(2), np.ones(2), np.array([0.5]), 0.5)
        draws, _ = infer_one(model, dataset, k=16, rng=substream(8, "g"), prior=prior)
        assert draws.k == 16


class TestRefinement:
    def test_two_random_effects(self):
        model = PosteriorModel(ModelConfig(d=3, q=2, **SMALL), np.random.default_rng(20))
        ds = sim.simulate_dataset(3, 2, np.random.default_rng(21), sim.SimConfig(toy=True))
        k = 128
        draws, _ = infer_one(model, ds, k=k, rng=substream(22, "q2"), refine="is")
        assert np.all(np.isfinite(draws.global_std)) and np.all(np.isfinite(draws.local_std))
        assert abs(draws.weights.mean() - 1.0) < 1e-10
        assert np.abs(draws.local_weights.mean(axis=0) - 1.0).max() < 1e-10
        # the same draws through the dense reference implementation
        raw = model.posterior(ds, k, substream(22, "q2"))
        ds_s, rec = standardize_data(ds)
        prior = standardize_prior(ds.truth.prior, rec)
        w_global, w_local = oracle.alternating_refine(
            ds_s, prior, raw, beta_mean_cov=standardized_beta_prior(ds.truth.prior, rec))
        assert np.abs(draws.weights - w_global).max() < 1e-8
        assert np.abs(draws.local_weights - w_local).max() < 1e-8
        beta, eps = raw.global_std[:, :3], raw.global_std[:, -1]
        ll = refine._gaussian_loglik(ds_s, beta, raw.local_std, eps)
        ref = oracle.gaussian_loglik(ds_s, beta, raw.local_std, eps)
        assert np.abs(ll - ref).max() < 1e-8 * np.abs(ref).max()

    @pytest.mark.parametrize("cfg", [{}, {"infer_noise": False}, {"standardize": False}],
                             ids=["default", "known-noise", "unstandardized"])
    def test_calibration_and_inference_share_weights(self, cfg, monkeypatch):
        model = PosteriorModel(ModelConfig(d=2, q=1, **cfg, **SMALL), np.random.default_rng(23))
        ds = sim.simulate_dataset(2, 1, np.random.default_rng(24), sim.SimConfig(toy=True))
        seen = []
        scores = refine.conformal_scores

        def record(draws, *args):
            seen.append(draws)
            return scores(draws, *args)

        monkeypatch.setattr(refine, "conformal_scores", record)
        refine.calibrate(model, [ds], k=64, seed=25, refine="is")
        draws, _ = infer_one(model, ds, k=64, rng=substream(25, "calibrate", 0), refine="is")
        np.testing.assert_array_equal(seen[0].weights, draws.weights)
        np.testing.assert_array_equal(seen[0].local_weights, draws.local_weights)


    @pytest.mark.parametrize("mode", ["both", "conformal", "IS"])
    def test_calibrate_rejects_other_modes(self, model, dataset, mode):
        with pytest.raises(ConfigError):
            refine.calibrate(model, [dataset], k=16, seed=0, refine=mode)

    def test_unknown_mode_rejected(self, model, dataset):
        with pytest.raises(ConfigError):
            posterior_draws(model, dataset, 16, substream(26, "x"), refine="IS")


class TestDivergenceGuard:
    def test_sustained_blowup_aborts(self, tmp_path):
        cfg = TrainConfig(d=2, q=1, budget=400, batch_size=8, seed=9, toy=True,
                          eval_every=1000, val_sets=8, warmup_steps=0,
                          divergence_factor=1e-9, divergence_steps=3, **SMALL)
        with pytest.raises(NumericError, match="diverged"):
            train(cfg, tmp_path)
