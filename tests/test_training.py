"""Training contracts: loss factorization and additivity, teacher forcing,
phantom-group neutrality, initialization oracle, gradient reach, smoke
descent, and exact resume."""

import numpy as np
import pytest
from scipy import stats

from mixedflow import simulate as sim
from mixedflow.model import ModelConfig, PosteriorModel, load_model, make_batch
from mixedflow.nn.tensor import no_grad
from mixedflow.seeding import substream
from mixedflow.train import (TrainConfig, global_loss, local_loss, make_training_dataset,
                             total_loss, train)

SMALL = dict(width=16, summary_blocks=1, heads=2, flow_blocks=2, flow_hidden=16)


def small_model(d=2, q=1, seed=0, **kw):
    cfg = ModelConfig(d=d, q=q, **{**SMALL, **kw})
    return PosteriorModel(cfg, np.random.default_rng(seed)), cfg


def toy_batch(cfg, count=6, seed=1):
    dsets = [sim.simulate_dataset(cfg.d, cfg.q, substream(seed, "ds", i), sim.SimConfig(toy=True))
             for i in range(count)]
    return make_batch(dsets, cfg), dsets


class TestLossStructure:
    def test_total_is_global_plus_local(self):
        model, cfg = small_model()
        batch, _ = toy_batch(cfg)
        with no_grad():
            s_local, s_global = model.encode(batch)
            g = model.global_nll(batch, s_global).data
            l = model.local_nll(batch, s_local).data
            fused = model.loss(batch).item()
        assert fused == pytest.approx(float((g + l).mean()), abs=1e-6)

    def test_single_group_dataset_single_term(self):
        model, cfg = small_model()
        rng = substream(2, "one")
        prior = sim.sample_priors(1, 2, 1, rng, toy=True)[0]
        gp, lp = sim.sample_parameters(prior, 1, rng)
        sizes = np.array([8])
        X = sim.sample_predictors(1, sizes, 2, rng, sim.SimConfig(toy=True))
        ds = sim.assemble_dataset(prior, gp, lp, X, sizes, rng)
        batch = make_batch([ds], cfg)
        with no_grad():
            s_local, _ = model.encode(batch)
            l = model.local_nll(batch, s_local).data
        assert l.shape == (1,)

    def test_duplicated_batch_entries_leave_mean_unchanged(self):
        model, cfg = small_model()
        batch, dsets = toy_batch(cfg, count=3)
        batch2, _ = toy_batch(cfg, count=3)
        with no_grad():
            one = model.loss(batch).item()
            twice = model.loss(make_batch(dsets + dsets, cfg)).item()
        assert twice == pytest.approx(one, rel=1e-5)

    def test_phantom_groups_contribute_zero(self):
        model, cfg = small_model()
        # one small and one large dataset force phantom padding groups
        small_rng, big_rng = substream(3, "a"), substream(3, "b")
        scfg_small = sim.SimConfig(toy=True, m_range=(3, 3))
        scfg_big = sim.SimConfig(toy=True, m_range=(9, 9))
        ds_small = sim.simulate_dataset(2, 1, small_rng, scfg_small)
        ds_big = sim.simulate_dataset(2, 1, big_rng, scfg_big)
        batch = make_batch([ds_small, ds_big], cfg)
        solo = make_batch([ds_small], cfg)
        with no_grad():
            s_local, _ = model.encode(batch)
            l_batch = model.local_nll(batch, s_local).data[0]
            s_local_solo, _ = model.encode(solo)
            l_solo = model.local_nll(solo, s_local_solo).data[0]
        assert l_batch == pytest.approx(l_solo, rel=1e-4)

    def test_teacher_forcing_flag(self):
        model, cfg = small_model()
        batch, dsets = toy_batch(cfg)
        with no_grad():
            model.loss(batch)
        assert model.last_local_conditioning == "truth"
        model.posterior(dsets[0], k=10, rng=np.random.default_rng(0))
        assert model.last_local_conditioning == "inferred"

    def test_initialization_matches_base_density_oracle(self):
        # identity flow at init: the global loss must equal the Student-t
        # base NLL of the true unconstrained parameters plus the log
        # transform Jacobian, computable in closed form
        model, cfg = small_model(seed=5)
        batch, _ = toy_batch(cfg, count=4, seed=6)
        with no_grad():
            _, s_global = model.encode(batch)
            got = model.global_nll(batch, s_global).data
        df = np.exp(model.global_flow.base.log_df.data.astype(np.float64))
        base_lp = stats.t.logpdf(batch.theta_u, df=df, loc=0.0, scale=1.0).sum(axis=1)
        jac = -batch.theta_u[:, cfg.d:].sum(axis=1)
        np.testing.assert_allclose(got, -(base_lp + jac), rtol=1e-5)


class TestGradientReach:
    def test_every_parameter_gets_gradient(self):
        # at exact initialization the zero-initialized flow heads block the
        # upstream path (identity-at-init is a hard contract), so take two
        # optimizer steps first, then demand gradient reach everywhere
        from mixedflow.nn.optim import ScheduleFreeAdamW
        model, cfg = small_model(seed=7)
        model.set_training(True)
        opt = ScheduleFreeAdamW(list(model.named_parameters()), lr=1e-3)
        batch, _ = toy_batch(cfg, count=8, seed=8)
        for step in range(2):
            model.zero_grad()
            model.loss(batch, substream(9, "drop", step)).backward()
            opt.step()
        model.zero_grad()
        model.loss(batch, substream(9, "drop", 99)).backward()
        dead = [name for name, p in model.named_parameters()
                if p.grad is None or not np.any(p.grad != 0)]
        assert not dead, f"parameters with no gradient: {dead}"


class TestSpecSurfaceWrappers:
    def test_wrappers_agree_with_components(self):
        model, cfg = small_model()
        batch, _ = toy_batch(cfg)
        g = global_loss(model, batch)
        l = local_loss(model, batch)
        t = total_loss(model, batch)
        assert t == pytest.approx(g + l, abs=1e-5)


class TestTrainingLoop:
    def test_smoke_descent_and_artifacts(self, tmp_path):
        cfg = TrainConfig(d=2, q=1, budget=480, batch_size=8, seed=11, toy=True,
                          eval_every=20, val_sets=16, warmup_steps=10, **SMALL)
        res = train(cfg, tmp_path)
        assert (tmp_path / "best.ckpt").exists()
        assert (tmp_path / "last.ckpt").exists()
        curve = (tmp_path / "curve.csv").read_text().strip().splitlines()
        assert curve[0] == "step,global_loss,local_loss,val_loss"
        assert len(curve) >= 3
        first_val = float(curve[1].split(",")[-1])
        assert res.best_val < first_val  # training moved the needle

    def test_resume_is_bitwise_identical(self, tmp_path):
        common = dict(d=2, q=1, batch_size=8, seed=13, toy=True,
                      eval_every=10, val_sets=8, warmup_steps=5, **SMALL)
        full = train(TrainConfig(budget=320, **common), tmp_path / "full")
        half_dir = tmp_path / "half"
        train(TrainConfig(budget=160, **common), half_dir)
        resumed = train(TrainConfig(budget=320, **common), half_dir, resume=True)
        m_full, _, _ = load_model(full.best_path)
        m_res, _, _ = load_model(resumed.best_path)
        for (n1, p1), (n2, p2) in zip(m_full.named_parameters(), m_res.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data, err_msg=n1)

    def test_validation_reproducible_from_checkpoint(self, tmp_path):
        cfg = TrainConfig(d=2, q=1, budget=160, batch_size=8, seed=17, toy=True,
                          eval_every=10, val_sets=8, warmup_steps=5, **SMALL)
        res = train(cfg, tmp_path)
        model, manifest, _ = load_model(res.best_path)
        mcfg = cfg.model_config()
        val_sets = [make_training_dataset(cfg, i, "val") for i in range(cfg.val_sets)]
        batch = make_batch(val_sets, mcfg)
        with no_grad():
            v1 = model.loss(batch).item()
        model2, _, _ = load_model(res.best_path)
        with no_grad():
            v2 = model2.loss(batch).item()
        assert v1 == v2


class TestConjugateFamily:
    def test_dataset_shape_and_posterior(self):
        ds = sim.simulate_conjugate_dataset(2, np.random.default_rng(19))
        assert ds.q == 0 and ds.m == 1
        mean, cov = sim.conjugate_posterior(ds)
        assert mean.shape == (2,) and cov.shape == (2, 2)
        assert np.all(np.linalg.eigvalsh(cov) > 0)

    def test_posterior_concentrates_with_data(self):
        rng = np.random.default_rng(23)
        ds = sim.simulate_conjugate_dataset(2, rng, n_range=(50, 60))
        mean, cov = sim.conjugate_posterior(ds)
        prior_var = ds.truth.prior.tau_beta ** 2
        assert np.all(np.diag(cov) < prior_var)

    def test_model_without_local_flow(self):
        model, cfg = small_model(d=2, q=0, infer_noise=False, standardize=False)
        assert model.local_flow is None
        dsets = [sim.simulate_conjugate_dataset(2, substream(29, i)) for i in range(4)]
        batch = make_batch(dsets, cfg)
        with no_grad():
            loss = model.loss(batch).item()
        assert np.isfinite(loss)
        draws = model.posterior(dsets[0], k=50, rng=np.random.default_rng(0))
        assert draws.global_std.shape == (50, 2)
        assert draws.local_std is None
