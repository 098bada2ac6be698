"""Record formats: dataset and draw files round-trip losslessly (including
gzip containers), observation CSVs build valid datasets, and manifests
carry the reproducibility fields."""

import json

import numpy as np
import pytest

from mixedflow import io as mfio
from mixedflow import simulate as sim
from mixedflow.draws import PosteriorDraws
from mixedflow.errors import DataFormatError
from mixedflow.standardize import StandardizationRecord


def _datasets(n=3, seed=0):
    out = []
    for i in range(n):
        rng = np.random.default_rng(seed + i)
        out.append(sim.simulate_dataset(3, 2, rng, dataset_id=f"ds-{i}"))
    return out


class TestDatasetFiles:
    @pytest.mark.parametrize("name", ["sets.jsonl", "sets.jsonl.gz"])
    def test_round_trip(self, tmp_path, name):
        datasets = _datasets()
        path = tmp_path / name
        mfio.save_datasets(path, datasets)
        back = mfio.load_datasets(path)
        assert len(back) == len(datasets)
        for a, b in zip(datasets, back):
            assert a.dataset_id == b.dataset_id
            np.testing.assert_array_equal(a.X, b.X)
            np.testing.assert_array_equal(a.y, b.y)
            np.testing.assert_array_equal(a.mask, b.mask)
            np.testing.assert_array_equal(a.truth.noise, b.truth.noise)
            np.testing.assert_array_equal(a.truth.global_params.beta, b.truth.global_params.beta)
            np.testing.assert_array_equal(a.truth.local_params.alpha, b.truth.local_params.alpha)
            # outcomes regenerate identically after the round trip
            np.testing.assert_array_equal(sim.regenerate_outcomes(b), b.y)

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "hier-dataset/1", "d": 2}\n')
        with pytest.raises(DataFormatError, match="bad.jsonl:1"):
            mfio.load_datasets(path)

    @pytest.mark.parametrize("name", ["sets.jsonl", "sets.jsonl.gz"])
    def test_undecodable_line_reported(self, tmp_path, name):
        plain = tmp_path / "plain.jsonl"
        mfio.save_datasets(plain, _datasets())
        lines = plain.read_bytes().splitlines(keepends=True)
        path = tmp_path / name
        with mfio._open(path, "wb") as fh:
            fh.write(b"".join(lines[:2]) + b'{"id": "\xff"}\n' + lines[2])
        with pytest.raises(DataFormatError, match=f"{name}:3: .*UnicodeDecodeError"):
            mfio.load_datasets(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DataFormatError, match="no dataset records"):
            mfio.load_datasets(path)


class TestDrawFiles:
    def _draws(self, seed=1):
        rng = np.random.default_rng(seed)
        k, d, q, m = 20, 2, 1, 3
        return PosteriorDraws(
            global_std=rng.normal(size=(k, d + q + 1)),
            log_q_global=rng.normal(size=k),
            d=d, q=q, infer_noise=True,
            rec=StandardizationRecord(np.array([1.0, 0.3]), np.array([1.0, 2.0]),
                                      0.5, 1.5, np.zeros(2, dtype=bool)),
            local_std=rng.normal(size=(k, m, q)),
            log_q_local=rng.normal(size=(k, m)),
            weights=np.abs(rng.normal(size=k)) + 0.1,
            local_weights=np.abs(rng.normal(size=(k, m))) + 0.1,
            dataset_id="ds-7")

    def test_round_trip_lossless(self, tmp_path):
        draws = self._draws()
        path = tmp_path / "draws.jsonl"
        mfio.save_draws(path, [mfio.draws_to_record(draws, intervals={"0.1": {"x": 1}})])
        (back, rec), = mfio.load_draws(path)
        np.testing.assert_array_equal(back.global_std, draws.global_std)
        np.testing.assert_array_equal(back.local_std, draws.local_std)
        np.testing.assert_array_equal(back.weights, draws.weights)
        np.testing.assert_array_equal(back.local_weights, draws.local_weights)
        assert back.rec.sigma_y == draws.rec.sigma_y
        assert back.dataset_id == "ds-7"
        assert rec["intervals"] == {"0.1": {"x": 1}}
        assert rec["param_names"] == ["beta[0]", "beta[1]", "sigma[0]", "sigma_eps"]

    def test_unweighted_round_trip(self, tmp_path):
        draws = self._draws()
        draws.weights = None
        draws.local_weights = None
        path = tmp_path / "draws.jsonl"
        mfio.save_draws(path, [mfio.draws_to_record(draws)])
        (back, _), = mfio.load_draws(path)
        assert back.weights is None and back.local_weights is None


class TestObservationsCSV:
    def test_build_dataset(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(
            "group_id,y,x_1,x_2\n"
            "a,1.0,0.5,2.0\n"
            "a,2.0,0.6,2.5\n"
            "b,0.0,-1.0,0.0\n"
            "a,3.0,0.7,3.0\n"
        )
        ds = mfio.read_observations_csv(path, q=1)
        assert ds.d == 3 and ds.m == 2
        np.testing.assert_array_equal(ds.group_sizes, [3, 1])
        np.testing.assert_array_equal(ds.X[0, :3, 0], 1.0)
        np.testing.assert_allclose(ds.X[0, 1], [1.0, 0.6, 2.5])
        np.testing.assert_allclose(ds.y[1, 0], 0.0)
        assert np.all(ds.Z[:, :, 1:] == 0)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("group_id,y,x_1\na,1.0,2.0\na,oops,3.0\n")
        with pytest.raises(DataFormatError, match="obs.csv:3"):
            mfio.read_observations_csv(path, q=1)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("g,y,x\na,1,2\n")
        with pytest.raises(DataFormatError, match="header"):
            mfio.read_observations_csv(path, q=1)


class TestManifest:
    def test_fields_present_and_hash_stable(self, tmp_path):
        path = tmp_path / "run.manifest.json"
        m1 = mfio.write_manifest(path, "simulate", {"d": 2, "q": 1}, seed=7,
                                 outputs=["a.jsonl"])
        obj = json.loads(path.read_text())
        assert obj["command"] == "simulate"
        assert obj["seed"] == 7
        assert "mixedflow" in obj["versions"] and "numpy" in obj["versions"]
        m2 = mfio.write_manifest(tmp_path / "again.json", "simulate", {"q": 1, "d": 2}, seed=7)
        assert m1["config_hash"] == m2["config_hash"]  # key order irrelevant
