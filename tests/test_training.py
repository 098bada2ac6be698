"""Training contracts: loss factorization and additivity, teacher forcing,
phantom-group neutrality, initialization oracle, gradient reach, smoke
descent, and exact resume."""

import logging
import shutil
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from mixedflow import simulate as sim, train as mftrain
from mixedflow.errors import ConfigError
from mixedflow.model import ModelConfig, PosteriorModel, load_model, make_batch
from mixedflow.nn.checkpoint import load_checkpoint
from mixedflow.nn.tensor import Tensor, no_grad
from mixedflow.seeding import substream
from mixedflow.train import TrainConfig, make_training_dataset, train

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

    def test_local_nll_is_teacher_forced_on_true_globals(self):
        model, cfg = small_model()
        rng = np.random.default_rng(31)
        for net in model.local_flow.conditioners:   # zero heads ignore the condition
            for head in (net.shift.w, net.scale.w):
                head.data = rng.normal(0, 0.3, size=head.data.shape).astype(np.float32)
        batch, _ = toy_batch(cfg)
        with no_grad():
            s_local, _ = model.encode(batch)
            got = model.local_nll(batch, s_local).data
            want = np.zeros(batch.size)
            for i in range(batch.size):
                for j in np.flatnonzero(batch.group_mask[i]):
                    cond = np.concatenate([s_local.data[i, j], batch.theta_u[i]])[None]
                    alpha = batch.alpha_std[i, j][None]
                    want[i] -= model.local_flow.log_prob(
                        Tensor(alpha.astype(np.float32)), Tensor(cond.astype(np.float32))).data[0]
            batch.theta_u = batch.theta_u + 0.5
            moved = model.local_nll(batch, s_local).data
        np.testing.assert_allclose(got, want, rtol=1e-5)
        assert np.all(np.abs(moved - got) > 1e-4)

    def test_posterior_conditions_local_flow_on_mean_global_draw(self, monkeypatch):
        model, cfg = small_model()
        _, dsets = toy_batch(cfg, count=1)
        seen = {}
        global_sample = model.global_flow.sample
        local_sample = model.local_flow.sample_grouped

        def capture_global(cond, k, rng):
            seen["u"], log_q = global_sample(cond, k, rng)
            return seen["u"], log_q

        def capture_local(cond, k, rng):
            seen["cond"] = cond
            return local_sample(cond, k, rng)

        monkeypatch.setattr(model.global_flow, "sample", capture_global)
        monkeypatch.setattr(model.local_flow, "sample_grouped", capture_local)
        model.posterior(dsets[0], k=10, rng=np.random.default_rng(0))
        u_mean = seen["u"].mean(axis=0).astype(np.float32)
        assert seen["cond"].shape == (dsets[0].m, cfg.width + cfg.p_global)
        np.testing.assert_array_equal(seen["cond"][:, cfg.width:],
                                      np.tile(u_mean, (dsets[0].m, 1)))

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


def _record(out):
    """(step, complete, stopped_early) from a run's last.ckpt manifest."""
    manifest, _, _ = load_checkpoint(out / "last.ckpt")
    return manifest["step"], manifest["complete"], manifest["stopped_early"]


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

    def test_skipped_step_drops_its_graph_before_the_next_forward(self, tmp_path, monkeypatch):
        # step 0's loss is NaN through a node that saves `marker`; the step is
        # skipped, and no graph of it may live into step 1's forward
        real = PosteriorModel.loss_components
        marker_ref, alive_at_step_1 = [], []

        def loss_components(model, batch, rng=None):
            if rng is None:   # validation
                return real(model, batch, rng)
            if marker_ref:
                alive_at_step_1.append(marker_ref[0]() is not None)
                return real(model, batch, rng)
            g, l = real(model, batch, rng)
            marker = Tensor(np.full(g.shape, np.nan, dtype=g.dtype))
            marker_ref.append(weakref.ref(marker.data))
            return g * marker, l

        monkeypatch.setattr(PosteriorModel, "loss_components", loss_components)
        cfg = TrainConfig(d=2, q=1, budget=16, batch_size=8, seed=29, toy=True,
                          eval_every=2, val_sets=8, warmup_steps=5, **SMALL)
        train(cfg, tmp_path)
        assert alive_at_step_1 == [False]
        rows = (tmp_path / "curve.csv").read_text().strip().splitlines()
        assert rows[1:] and rows[-1].startswith("2,")
        assert np.isfinite([float(v) for v in rows[-1].split(",")]).all()

    def test_manifests_record_the_training_code(self, tmp_path):
        cfg = TrainConfig(d=2, q=1, budget=16, batch_size=8, seed=23, toy=True,
                          eval_every=2, val_sets=8, warmup_steps=5, **SMALL)
        train(cfg, tmp_path / "run")
        code = mftrain.train_code()
        for name in ("best.ckpt", "last.ckpt"):
            assert load_checkpoint(tmp_path / "run" / name)[0]["train_code"] == code
        src = tmp_path / "src"
        shutil.copytree(Path(mftrain.__file__).parent, src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        assert mftrain.train_code(src) == code
        for name in mftrain.TRAIN_SOURCES:
            text = (src / name).read_bytes()
            (src / name).write_bytes(text + b"\n")
            assert mftrain.train_code(src) != code, name
            (src / name).write_bytes(text)

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

    def test_resuming_a_finished_run_runs_nothing(self, tmp_path):
        cfg = TrainConfig(d=2, q=1, budget=80, batch_size=8, seed=19, toy=True,
                          eval_every=5, val_sets=8, warmup_steps=5, **SMALL)
        train(cfg, tmp_path)
        names = ("best.ckpt", "last.ckpt", "curve.csv")
        before = {n: (tmp_path / n).read_bytes() for n in names}
        assert _record(tmp_path) == (10, True, False)
        res = train(cfg, tmp_path, resume=True)
        assert res.steps_run == 0
        # a larger budget under another config is refused before any step
        with pytest.raises(ConfigError, match="other seed, toy, width "):
            train(replace(cfg, budget=160, width=32, seed=7, toy=False), tmp_path, resume=True)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
        assert {n: (tmp_path / n).read_bytes() for n in names} == before

    @pytest.mark.parametrize("cut", ["make_batch", "save_model"])
    def test_interrupted_run_is_incomplete_until_resumed(self, tmp_path, monkeypatch, cut):
        common = dict(d=2, q=1, budget=160, batch_size=8, seed=23, toy=True,
                      eval_every=5, val_sets=8, warmup_steps=5, **SMALL)
        full = train(TrainConfig(**common), tmp_path / "full")
        real = getattr(mftrain, cut)

        def interrupt(*args, **kwargs):
            # step 7's batch (its first set is 7 * 8), or the step-10
            # checkpoint, written after the step-10 curve row
            if (args[0][0].dataset_id == "data-23-56" if cut == "make_batch"
                    else args[2]["step"] == 10):
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(mftrain, cut, interrupt)
        with pytest.raises(KeyboardInterrupt):
            train(TrainConfig(**common), tmp_path / "cut")
        assert _record(tmp_path / "cut") == (5, False, False)
        monkeypatch.setattr(mftrain, cut, real)
        resumed = train(TrainConfig(**common), tmp_path / "cut", resume=True)
        assert resumed.steps_run == 15
        assert _record(tmp_path / "cut") == (20, True, False)
        for name in ("best.ckpt", "curve.csv"):
            cut_bytes = (tmp_path / "cut" / name).read_bytes()
            assert cut_bytes == (tmp_path / "full" / name).read_bytes(), name
        assert resumed.checkpoint_id == full.checkpoint_id

    @pytest.mark.parametrize("poisoned", ["last-step", "every-batch"])
    def test_a_skipped_last_step_is_still_recorded(self, tmp_path, monkeypatch, poisoned):
        """A batch with a non-finite loss is skipped, but its step still
        evaluates on schedule: the last step closes the run, and best.ckpt
        is written even when no validation loss is finite."""
        cfg = TrainConfig(d=2, q=1, budget=24, batch_size=8, seed=31, toy=True,
                          eval_every=2, val_sets=8, warmup_steps=5, **SMALL)
        real, calls = PosteriorModel.loss_components, []

        def poison(self, batch, rng=None):
            g, l = real(self, batch, rng)
            calls.append(rng is not None)   # a training step; validation passes no rng
            if poisoned == "every-batch" or calls[-1] and sum(calls) == cfg.steps:
                g = g * float("nan")
            return g, l

        monkeypatch.setattr(PosteriorModel, "loss_components", poison)
        res = train(cfg, tmp_path)
        assert res.steps_run == 3 and _record(tmp_path) == (3, True, False)
        rows = (tmp_path / "curve.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["2", "3"]
        assert rows[-1].split(",")[1] == "nan"       # the skipped batch's loss
        best = load_checkpoint(tmp_path / "best.ckpt")[0]   # written in both cases
        if poisoned == "every-batch":
            assert res.best_val == float("inf") and best["best_val"] is None
            assert rows[0].split(",")[-1] == "nan"
        assert train(cfg, tmp_path, resume=True).steps_run == 0

    def test_progress_line_reports_gradient_norm_and_dropped_steps(self, tmp_path, monkeypatch,
                                                                    caplog):
        cfg = TrainConfig(d=2, q=1, budget=24, batch_size=8, seed=31, toy=True,
                          eval_every=3, val_sets=8, warmup_steps=5, **SMALL)
        real, calls = PosteriorModel.loss_components, []

        def poison(self, batch, rng=None):
            g, l = real(self, batch, rng)
            calls.append(rng is not None)   # a training step; validation passes no rng
            return (g * float("nan") if calls[-1] and sum(calls) == 2 else g), l

        monkeypatch.setattr(PosteriorModel, "loss_components", poison)
        with caplog.at_level(logging.INFO, logger="mixedflow.train"):
            train(cfg, tmp_path)
        line = next(m for m in caplog.messages if m.startswith("step 3/3"))
        norm = float(line.split("grad norm ")[1].split()[0])
        assert np.isfinite(norm) and norm > 0
        assert line.endswith("before clipping, 0 steps rejected, 1 batches skipped"), line

    def test_patience_stop_is_complete_and_resume_runs_nothing(self, tmp_path):
        cfg = TrainConfig(d=2, q=1, budget=800, batch_size=8, seed=29, toy=True,
                          eval_every=2, val_sets=8, warmup_steps=5, lr=0.05, patience=1,
                          **SMALL)
        res = train(cfg, tmp_path)
        assert res.stopped_early and res.steps_run < cfg.steps
        assert _record(tmp_path) == (res.steps_run, True, True)
        names = ("best.ckpt", "last.ckpt", "curve.csv")
        before = {n: (tmp_path / n).read_bytes() for n in names}
        for budget in (800, 1600):  # a larger budget leaves patience spent
            again = train(replace(cfg, budget=budget), tmp_path, resume=True)
            assert again.steps_run == 0 and again.stopped_early
            assert {n: (tmp_path / n).read_bytes() for n in names} == before

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
        model, cfg = small_model(d=2, q=0, infer_noise=False)
        assert model.local_flow is None
        dsets = [sim.simulate_conjugate_dataset(2, substream(29, i)) for i in range(4)]
        batch = make_batch(dsets, cfg)
        with no_grad():
            loss = model.loss(batch).item()
        assert np.isfinite(loss)
        draws = model.posterior(dsets[0], k=50, rng=np.random.default_rng(0))
        assert draws.global_std.shape == (50, 2)
        assert draws.local_std is None


# values of the wrong kind for each annotation a config field can carry: a
# string, a bool for a number, 2.5 for an integer, a 3-list for a range
WRONG_KIND = {"int": ["7", True, 2.5, None], "float": ["0.1", True, float("nan")],
              "bool": ["no", 1, None], "str": [1, True, None],
              "tuple[int, int]": [(5, 30, 40), [5, 30, 40], "5,30", (5.0, 30)]}
CONFIGS = [(sim.SimConfig, {}), (ModelConfig, {"d": 2, "q": 1}), (TrainConfig, {"d": 2, "q": 1})]


@pytest.mark.parametrize("cls, base, name, value", [
    pytest.param(cls, base, f.name, value, id=f"{cls.__name__}.{f.name}={value!r}")
    for cls, base in CONFIGS for f in fields(cls) for value in WRONG_KIND[f.type]])
def test_every_config_field_refuses_a_value_of_the_wrong_kind(cls, base, name, value):
    cls(**base)   # the base is valid
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        cls(**{**base, name: value})


def test_numpy_scalars_in_a_config_train_and_write_both_checkpoints(tmp_path):
    # numpy numbers pass the field checks (perfbench builds its ranges from
    # an np.arange); they are kept as Python numbers, so the manifests, which
    # carry the config as JSON, can be written
    cfg = TrainConfig(d=2, q=1, budget=16, batch_size=8, seed=np.int64(3), toy=True,
                      m_range=(np.int64(5), np.int64(6)), lr=np.float64(1e-3), eval_every=2,
                      val_sets=8, warmup_steps=5, **SMALL)
    assert [type(v) for v in (cfg.seed, *cfg.m_range, cfg.lr)] == [int, int, int, float]
    train(cfg, tmp_path)
    for name in ("best.ckpt", "last.ckpt"):
        recorded = load_checkpoint(tmp_path / name)[0]["train_config"]
        assert (recorded["seed"], recorded["m_range"], recorded["lr"]) == (3, [5, 6], 1e-3)


def test_family_names_a_known_family():
    with pytest.raises(ConfigError, match="^family must be "):
        TrainConfig(d=2, q=1, family="partial")
