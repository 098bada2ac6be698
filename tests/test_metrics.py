"""Metric arithmetic, outlier flagging, split reports, and external-sample
ingestion (chain selection by MAD outliers)."""

import numpy as np
import pytest

from mixedflow import metrics, simulate as sim
from mixedflow.draws import PosteriorDraws
from mixedflow.errors import ConfigError, DataFormatError
from mixedflow.standardize import StandardizationRecord


class TestRecovery:
    def test_perfect(self):
        r, rmse, bias = metrics.recovery(np.array([1.0, 2, 3]), np.array([1.0, 2, 3]))
        assert (r, rmse, bias) == (1.0, 0.0, 0.0)

    def test_constant_shift(self):
        r, rmse, bias = metrics.recovery(np.array([1.0, 2, 3]), np.array([2.0, 3, 4]))
        assert r == pytest.approx(1.0)
        assert rmse == pytest.approx(1.0)
        assert bias == pytest.approx(1.0)

    def test_hand_vectors(self):
        r, rmse, bias = metrics.recovery(np.array([1.0, 2, 3]), np.array([1.0, 2, 4]))
        assert rmse == pytest.approx(np.sqrt(1 / 3))

    def test_zero_variance_sentinel(self):
        r, _, _ = metrics.recovery(np.array([1.0, 1, 1]), np.array([1.0, 2, 3]))
        assert np.isnan(r)


class TestCoverageError:
    def test_all_hits(self):
        assert metrics.coverage_error(np.ones(40, dtype=bool), 0.05) == pytest.approx(0.05)

    def test_exact_nominal(self):
        hits = np.array([True] * 9 + [False])
        assert metrics.coverage_error(hits, 0.1) == pytest.approx(0.0)

    def test_quoted_fixture(self):
        assert metrics.coverage_error(np.array([1, 0, 1, 1], dtype=bool), 0.5) == pytest.approx(0.25)


class TestMadOutliers:
    def test_no_outliers(self):
        flags = metrics.mad_outliers(np.array([1.0, 2, 3, 4, 5]))
        assert not flags.any()

    def test_single_outlier(self):
        flags = metrics.mad_outliers(np.array([1.0, 1, 1, 100]))
        np.testing.assert_array_equal(flags, [False, False, False, True])

    def test_constant_vector(self):
        assert not metrics.mad_outliers(np.full(10, 3.0)).any()


def _draws_at(ds, global_row, alpha=None, k=200, jitter=1e-6, seed=0):
    """Draw cloud tightly concentrated at a given parameter point."""
    rng = np.random.default_rng(seed)
    g = np.tile(global_row, (k, 1)) + rng.normal(0, jitter, size=(k, len(global_row)))
    local = None
    if alpha is not None:
        local = np.tile(alpha, (k, 1, 1)) + rng.normal(0, jitter, size=(k,) + alpha.shape)
    return PosteriorDraws(global_std=g, log_q_global=np.zeros(k), d=ds.d, q=ds.q,
                          infer_noise=True, rec=StandardizationRecord.identity(ds.d),
                          local_std=local,
                          log_q_local=np.zeros((k, ds.m)) if local is not None else None,
                          dataset_id=ds.dataset_id)


def _toy_ds(seed=0, **kw):
    rng = np.random.default_rng(seed)
    return sim.simulate_dataset(2, 1, rng, sim.SimConfig(toy=True, **kw))


class TestEvaluationAndSplits:
    def _eval(self, seed):
        ds = _toy_ds(seed)
        gp, lp = ds.truth.global_params, ds.truth.local_params
        row = np.concatenate([gp.beta, gp.sigma_alpha, [gp.sigma_eps]])
        draws = _draws_at(ds, row, lp.alpha, jitter=1e-3, seed=seed)
        return metrics.evaluate_dataset(ds, draws)

    def test_near_perfect_draws_score_perfectly(self):
        ev = self._eval(10)
        agg = metrics.aggregate([self._eval(s) for s in range(10, 16)])
        assert agg.per_role["fixed"]["r"] > 0.999
        assert agg.per_role["fixed"]["rmse"] < 1e-2
        # a tight cloud around the truth contains it at every level
        for alpha, ce in agg.per_role["fixed"]["ce"].items():
            assert ce == pytest.approx(alpha, abs=1e-9)

    def test_split_by_n_matches_hand_partition(self):
        evals = [self._eval(s) for s in range(20, 28)]
        top, bottom = metrics.split_report(evals, "n")
        ns = sorted(e.n_total for e in evals)
        assert top.descriptors["mean_n"] > bottom.descriptors["mean_n"]
        assert top.n_datasets + bottom.n_datasets == len(evals)

    def test_two_datasets_one_per_half(self):
        evals = [self._eval(30), self._eval(31)]
        top, bottom = metrics.split_report(evals, "snr")
        assert top.n_datasets == bottom.n_datasets == 1

    def test_known_noise_fixed_effects_model_scores_fixed_effects_only(self):
        # no random effects and no noise component: there is no variance role
        evals = []
        for seed in range(3):
            ds = sim.simulate_conjugate_dataset(2, np.random.default_rng(seed), dataset_id=str(seed))
            g = ds.truth.global_params.beta + np.random.default_rng(9).normal(0, 0.1, (50, 2))
            draws = PosteriorDraws(global_std=g, log_q_global=np.zeros(50), d=2, q=0,
                                   infer_noise=False, rec=StandardizationRecord.identity(2))
            evals.append(metrics.evaluate_dataset(ds, draws))
        assert list(evals[0].truths) == list(evals[0].means) == ["fixed"]
        assert {role for role, _ in evals[0].hits} == {"fixed"}
        assert list(metrics.aggregate(evals).per_role) == ["fixed"]

    def test_split_keys_are_exact(self):
        evals = [self._eval(30), self._eval(31)]
        with pytest.raises(ConfigError, match="split key"):
            metrics.split_report(evals, "SNR")

    def test_order_invariance(self):
        evals = [self._eval(s) for s in range(40, 46)]
        a = metrics.aggregate(evals)
        b = metrics.aggregate(list(reversed(evals)))
        assert a.per_role["fixed"]["r"] == pytest.approx(b.per_role["fixed"]["r"], abs=1e-15)
        assert a.per_role["variance"]["rmse"] == pytest.approx(b.per_role["variance"]["rmse"], abs=1e-15)


class TestExternalSamples:
    def _write(self, path, rows):
        import csv
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["chain", "draw", "parameter", "value"])
            writer.writerows(rows)

    def test_single_chain_selected(self, tmp_path):
        path = tmp_path / "samples.csv"
        rows = []
        rng = np.random.default_rng(0)
        for d_ in range(10):
            rows += [("0", d_, "beta[0]", rng.normal()), ("0", d_, "beta[1]", rng.normal()),
                     ("0", d_, "sigma[0]", abs(rng.normal())), ("0", d_, "sigma_eps", abs(rng.normal())),
                     ("0", d_, "alpha[0,0]", rng.normal())]
        self._write(path, rows)
        draws, info = metrics.ingest_external_samples(path)
        assert info["selected_chain"] == "0"
        assert draws.k == 10 and draws.d == 2 and draws.q == 1
        assert draws.local_std.shape == (10, 1, 1)

    def test_outlier_chain_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        rows = []
        rng = np.random.default_rng(1)
        for chain in ("0", "1"):
            for d_ in range(30):
                val = rng.normal()
                if chain == "0" and d_ == 7:
                    val = 1e6  # injected outlier
                rows.append((chain, d_, "beta[0]", val))
                rows.append((chain, d_, "beta[1]", rng.normal()))
        self._write(path, rows)
        draws, info = metrics.ingest_external_samples(path)
        assert info["selected_chain"] == "1"
        assert info["outlier_counts"]["0"] >= 1

    def test_malformed_rows_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w") as fh:
            fh.write("chain,draw,parameter,value\n")
            fh.write("0,0,beta[0],1.0\n")
            fh.write("0,not_an_int,beta[0],1.0\n")
        with pytest.raises(DataFormatError, match=r"\[3\]"):
            metrics.ingest_external_samples(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_is_a_malformed_row(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"chain,draw,parameter,value\n0,0,beta[0],1.0\n0,1,beta[0],{value}\n"
                        "0,2,beta[0],2.0\n")
        with pytest.raises(DataFormatError, match=r"lines \[3\]"):
            metrics.ingest_external_samples(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("a,b,c,d\n0,0,beta[0],1.0\n")
        with pytest.raises(DataFormatError, match="header"):
            metrics.ingest_external_samples(path)

    def test_round_trip_values(self, tmp_path):
        path = tmp_path / "samples.csv"
        vals = [0.5, -1.5, 2.5]
        rows = [("7", i, "beta[0]", v) for i, v in enumerate(vals)]
        self._write(path, rows)
        draws, info = metrics.ingest_external_samples(path)
        np.testing.assert_array_equal(draws.global_std[:, 0], vals)
        assert draws.weights is None  # uniform
