"""Record formats: dataset and draw files round-trip losslessly (including
gzip containers), numeric blocks are strict JSON that keep every float
bit, both still read version 1, observation CSVs build valid datasets,
conformal tables round-trip, and manifests carry the reproducibility
fields. Every reader refuses a changed field by name or loads the record
(fractional counts, non-finite values, wrong types and lengths, missing
fields). Writes are atomic and reproducible, also when streamed from a
generator (gzip included); each record line is json.dumps of its record,
and saving draws holds a few records' text, not the file's. io.write_file
is the only code in the package that writes a file, and mixedflow.io the
only one that reads JSON."""

import ast
import base64
import copy
import gzip
import json
import math
import os
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import io_oracle
from mixedflow import io as mfio
from mixedflow import refine
from mixedflow import simulate as sim
from mixedflow.draws import PosteriorDraws
from mixedflow.errors import ConfigError, DataFormatError
from mixedflow.standardize import StandardizationRecord


# a NaN with a payload, a signalling NaN with the sign bit, both infinities, -0.0
SPECIAL = np.array([0x7FF8000000000123, 0xFFF0000000000001, 0x7FF0000000000000,
                    0xFFF0000000000000, 0x8000000000000000], dtype=np.uint64).view(np.float64)


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
        mfio.write_file(path, b"".join(lines[:2]) + b'{"id": "\xff"}\n' + lines[2])
        with pytest.raises(DataFormatError, match=f"{name}:3: .*UnicodeDecodeError"):
            mfio.load_datasets(path)

    def test_gzip_bytes_reproducible(self, tmp_path, monkeypatch):
        datasets = _datasets()
        for name, now in [("a.jsonl.gz", 1.0e9), ("b.jsonl.gz", 2.0e9)]:
            monkeypatch.setattr(time, "time", lambda: now)
            mfio.save_datasets(tmp_path / name, datasets)
        mfio.save_datasets(tmp_path / "plain.jsonl", datasets)
        packed = (tmp_path / "a.jsonl.gz").read_bytes()
        assert packed == (tmp_path / "b.jsonl.gz").read_bytes()
        assert gzip.decompress(packed) == (tmp_path / "plain.jsonl").read_bytes()

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "sets.jsonl"
        mfio.save_datasets(path, _datasets())
        before = path.read_bytes()
        to_record, calls = mfio.dataset_to_record, []

        def fail_second(ds):
            calls.append(ds)
            if len(calls) == 2:
                raise RuntimeError("serialization failed")
            return to_record(ds)

        monkeypatch.setattr(mfio, "dataset_to_record", fail_second)
        with pytest.raises(RuntimeError, match="serialization failed"):
            mfio.save_datasets(path, _datasets())
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["sets.jsonl"]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DataFormatError, match="no dataset records"):
            mfio.load_datasets(path)

    @pytest.mark.parametrize("field, change", [
        ("y", lambda rec: {"y": _with_first(rec["y"], np.nan)}),
        ("x", lambda rec: {"x": _with_first(rec["x"], -np.inf)}),
        ("truth.alpha", lambda rec: {"truth": {**rec["truth"],
                                               "alpha": _with_first(rec["truth"]["alpha"], np.nan)}}),
        ("truth.noise", lambda rec: {"truth": {**rec["truth"],
                                               "noise": _with_first(rec["truth"]["noise"], np.inf)}}),
        ("truth.beta", lambda rec: {"truth": {**rec["truth"], "beta": [np.nan, 0.0, 0.0]}}),
    ])
    def test_non_finite_value_names_its_field(self, tmp_path, field, change):
        rec = mfio.dataset_to_record(_datasets(1)[0])
        path = tmp_path / "sets.jsonl"
        path.write_text(json.dumps({**rec, **change(rec)}) + "\n")
        with pytest.raises(DataFormatError,
                           match=f"sets.jsonl:1: .*'{field}' holds .*, not a finite number"):
            mfio.load_datasets(path)

    @pytest.mark.parametrize("field, change", [
        ("q", lambda rec: {"q": 1.5}), ("m", lambda rec: {"m": rec["m"] + 0.9}),
        ("d", lambda rec: {"d": 3.0}), ("d", lambda rec: {"d": True}),
        ("group_sizes", lambda rec: {"group_sizes": [n + 0.5 for n in rec["group_sizes"]]}),
        ("group_sizes", lambda rec: {"group_sizes": [float(n) for n in rec["group_sizes"]]}),
    ], ids=["q-1.5", "m-fraction", "d-float", "d-bool", "sizes-fraction", "sizes-float"])
    def test_counts_must_be_integers(self, field, change):
        rec = mfio.dataset_to_record(_datasets(1)[0])
        with pytest.raises(DataFormatError, match=f"'{field}' holds .*, not an integer"):
            mfio.dataset_from_record({**rec, **change(rec)})


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

    @pytest.mark.parametrize("value", SPECIAL[:4], ids=["nan", "signalling-nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["global", "log_q_global", "local", "log_q_local",
                                       "weights", "local_weights"])
    def test_non_finite_value_names_its_field(self, tmp_path, field, value):
        rec = mfio.draws_to_record(self._draws())
        path = tmp_path / "draws.jsonl"
        mfio.save_draws(path, [{**rec, field: _with_first(rec[field], value)}])
        with pytest.raises(DataFormatError,
                           match=f"draws.jsonl:1: .*'{field}' holds .*, not a finite number"):
            mfio.load_draws(path)

    @pytest.mark.parametrize("field", ["weights", "local_weights"])
    def test_weight_total_that_overflows_names_its_field(self, tmp_path, field):
        # two finite weights of 1e308 sum to inf: refused, with no numpy warning
        draws = self._draws()
        getattr(draws, field)[:2] = 1e308
        path = tmp_path / "draws.jsonl"
        mfio.save_draws(path, [mfio.draws_to_record(draws)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError,
                               match=f"draws.jsonl:1: .*'{field}' has no finite positive total"):
                mfio.load_draws(path)

    def test_unweighted_round_trip(self, tmp_path):
        draws = self._draws()
        draws.weights = None
        draws.local_weights = None
        path = tmp_path / "draws.jsonl"
        mfio.save_draws(path, [mfio.draws_to_record(draws)])
        (back, _), = mfio.load_draws(path)
        assert back.weights is None and back.local_weights is None

    @pytest.mark.parametrize("name", ["draws.jsonl", "draws.jsonl.gz"])
    def test_record_generator_that_raises_keeps_old_file(self, tmp_path, name):
        path = tmp_path / name
        record = mfio.draws_to_record(self._draws())
        mfio.save_draws(path, [record])
        before = path.read_bytes()

        def two_then_fail():
            yield record
            yield record
            raise RuntimeError("inference failed")

        with pytest.raises(RuntimeError, match="inference failed"):
            mfio.save_draws(path, two_then_fail())
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == [name]

    @pytest.mark.parametrize("kind, field, change", [
        ("draws", "global", lambda rec: {"global": _cut(rec["global"], 8)}),
        ("draws", "global", lambda rec: {"global": _cut(rec["global"], 3)}),
        ("draws", "local", lambda rec: {"local": "!" + rec["local"][1:]}),
        ("draws", "log_q_global", lambda rec: {"log_q_global": 1}),
        ("draws", "weights", lambda rec: {"weights": [1.0] * 20}),
        ("draws", "global", lambda rec: {**io_oracle.draws_to_record(mfio.draws_from_record(rec)),
                                         "global": [0.0] * 79}),
        ("dataset", "x", lambda rec: {"x": "!" + rec["x"][1:]}),
        ("dataset", "y", lambda rec: {"y": _cut(rec["y"], 8)}),
        ("dataset", "truth.alpha", lambda rec: {"truth": {**rec["truth"],
                                                          "alpha": _cut(rec["truth"]["alpha"], 3)}}),
        ("dataset", "truth.noise", lambda rec: {"truth": {**rec["truth"], "noise": [0.0]}}),
        ("dataset", "x", lambda rec: {**io_oracle.dataset_to_record(mfio.dataset_from_record(rec)),
                                      "x": [0.0] * 5}),
    ], ids=["cut-8-bytes", "cut-3-bytes", "bang", "number", "list-in-v2", "short-v1-list",
            "dataset-bang", "dataset-cut-8-bytes", "dataset-cut-3-bytes", "dataset-list-in-v2",
            "dataset-short-v1-list"])
    def test_malformed_block_names_its_field(self, kind, field, change):
        to_record, from_record, value = {
            "draws": (mfio.draws_to_record, mfio.draws_from_record, self._draws()),
            "dataset": (mfio.dataset_to_record, mfio.dataset_from_record, _datasets(1)[0]),
        }[kind]
        rec = to_record(value)
        with pytest.raises(DataFormatError, match=f"'{field}'"):
            from_record({**rec, **change(rec)})


# streamed writing -------------------------------------------------------------


def _records_of_every_shape() -> list[dict]:
    """Dataset records with and without truth, one with a non-ASCII id, and
    draw records without local or weight blocks and with an interval table
    that holds a NaN."""
    with_truth, other = _datasets(2)
    draws = TestDrawFiles()._draws()
    bare = replace(draws, local_std=None, log_q_local=None, weights=None, local_weights=None,
                   dataset_id="naïve-δ")
    intervals = {0.1: {"global_std": [[math.nan, 1.0], [-0.5, math.inf]], "local": None}}
    return [mfio.dataset_to_record(with_truth),
            mfio.dataset_to_record(replace(other, truth=None, dataset_id="séance-Ω")),
            mfio.draws_to_record(bare), mfio.draws_to_record(draws, intervals=intervals)]


@pytest.mark.parametrize("name", ["records.jsonl", "records.jsonl.gz"])
def test_each_line_is_json_dumps_of_its_record(tmp_path, name):
    records = _records_of_every_shape()
    path = tmp_path / name
    mfio.save_draws(path, iter(records))
    content = "".join(json.dumps(rec) + "\n" for rec in records).encode("utf-8")
    raw = path.read_bytes()
    assert (gzip.decompress(raw) if name.endswith(".gz") else raw) == content
    if name.endswith(".gz"):
        assert raw == gzip.compress(content, mtime=0)


def test_streamed_gzip_is_gzip_compress(tmp_path):
    rng = np.random.default_rng(5)
    pieces = [b"", "", *(base64.b64encode(rng.bytes(int(n))).decode() + "\n"
                         for n in rng.integers(0, 200_000, size=24)), "é∂\n", b"\x00" * 70_000]
    mfio.write_file(tmp_path / "out.gz", iter(pieces))
    content = b"".join(p.encode("utf-8") if isinstance(p, str) else p for p in pieces)
    assert (tmp_path / "out.gz").read_bytes() == gzip.compress(content, mtime=0)
    mfio.write_file(tmp_path / "whole.gz", content)
    assert (tmp_path / "whole.gz").read_bytes() == gzip.compress(content, mtime=0)


def test_saving_draws_holds_one_record_not_the_file(tmp_path):
    # 40 desk-size records (d=2, q=1, the widest desk set of m=30 groups,
    # k=1000, both weight blocks), made one at a time by a generator: the
    # writer's peak is a few records' text, where joining them holds the file
    rng = np.random.default_rng(6)
    k, m = 1000, 30
    draws = PosteriorDraws(
        global_std=rng.normal(size=(k, 4)), log_q_global=rng.normal(size=k), d=2, q=1,
        infer_noise=True, rec=TestDrawFiles()._draws().rec,
        local_std=rng.normal(size=(k, m, 1)), log_q_local=rng.normal(size=(k, m)),
        weights=rng.exponential(size=k), local_weights=rng.exponential(size=(k, m)),
        dataset_id="desk-00")
    line = len(json.dumps(mfio.draws_to_record(draws))) + 1

    def records():
        for i in range(40):
            yield mfio.draws_to_record(replace(draws, dataset_id=f"desk-{i:02d}"))

    tracemalloc.start()
    try:
        mfio.save_draws(tmp_path / "draws.jsonl", records())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "draws.jsonl").stat().st_size == 40 * line
    assert peak < 3 * line, f"peak {peak / 1e6:.1f} MB for records of {line / 1e6:.2f} MB"


def _cut(block: str, nbytes: int) -> str:
    """A base64 block with its last `nbytes` bytes removed."""
    return base64.b64encode(base64.b64decode(block)[:-nbytes]).decode()


def _with_first(block: str, value: float) -> str:
    """A base64 block with its first value replaced by `value`."""
    values = np.frombuffer(base64.b64decode(block), "<f8").copy()
    values[0] = value
    return mfio._block(values)


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

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("group_id,y,x_1\na,1.0,2.0\na,oops,3.0\n")
        with pytest.raises(DataFormatError, match="obs.csv:3"):
            mfio.read_observations_csv(path, q=1)

    @pytest.mark.parametrize("column, row", [("y", "a,nan,3.0"), ("x_1", "a,1.0,inf"),
                                             ("x_1", "a,1.0,-Infinity")])
    def test_non_finite_value_names_line_and_column(self, tmp_path, column, row):
        path = tmp_path / "obs.csv"
        path.write_text(f"group_id,y,x_1\na,1.0,2.0\n{row}\n")
        with pytest.raises(DataFormatError, match=f"obs.csv:3: {column} is .*not a finite number"):
            mfio.read_observations_csv(path, q=1)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("g,y,x\na,1,2\n")
        with pytest.raises(DataFormatError, match="header"):
            mfio.read_observations_csv(path, q=1)


class TestConformalTable:
    def test_round_trip(self, tmp_path):
        table = refine.build_conformal_table(
            {"fixed": [[0.1] * 120, [0.2] * 120]}, (0.1, 0.5), 120, checkpoint_id="abc")
        mfio.write_json(tmp_path / "t.json", table.to_json())
        back = mfio.load_table(tmp_path / "t.json")
        assert back.alphas == table.alphas
        assert back.adjustments == table.adjustments
        assert (back.checkpoint_id, back.n_calibration, back.low_confidence) == ("abc", 120, False)

    @pytest.mark.parametrize("change, field", [
        ({"alphas": [0.5, 0.1]}, "alphas"), ({"alphas": [0.1, 0.1]}, "alphas"),
        ({"alphas": [0.0, 0.5]}, "alphas"), ({"alphas": [0.1, 1.0]}, "alphas"),
        ({"adjustments": {"slope": [0.1, 0.2]}}, "adjustments"),
        ({"adjustments": {"fixed": [0.1, math.nan]}}, "adjustments.fixed"),
        ({"n_calibration": 2.5}, "n_calibration"), ({"low_confidence": 0}, "low_confidence"),
    ], ids=["reordered", "repeated", "zero", "one", "unknown-role", "nan-entry",
            "fractional-count", "flag-number"])
    def test_malformed_table_names_its_field(self, tmp_path, change, field):
        table = refine.build_conformal_table({"fixed": [[0.1] * 120, [0.2] * 120]}, (0.1, 0.5), 120)
        mfio.write_json(tmp_path / "t.json", {**table.to_json(), **change})
        with pytest.raises(DataFormatError, match=f"t.json:1: .*'{field}'"):
            mfio.load_table(tmp_path / "t.json")


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


# exact round trips of arbitrary records --------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# the program's weights average one, so their totals stay far from overflow
WEIGHTS = st.floats(min_value=0.0, max_value=1e300)
BLOCKS = ("global_std", "log_q_global", "local_std", "log_q_local", "weights", "local_weights")


def _floats(draw, shape, elements=FINITE):
    return draw(hnp.arrays(np.float64, shape, elements=elements))


def _same_bytes(a, b):
    if a is None or b is None:
        assert a is None and b is None
        return
    a, b = np.asarray(a), np.asarray(b)
    assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


@st.composite
def _any_dataset(draw):
    """A simulated layout and truth with arbitrary finite observations."""
    d = draw(st.integers(1, 4))
    q = draw(st.integers(1, min(d, 2)))
    ds = sim.simulate_dataset(d, q, np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                              sim.SimConfig(m_range=(1, 5), n_range=(1, 8),
                                            toy=draw(st.booleans())),
                              dataset_id=draw(st.text(max_size=12)))
    X, y = np.zeros_like(ds.X), np.zeros_like(ds.y)
    X[ds.mask] = _floats(draw, (int(ds.mask.sum()), d))
    y[ds.mask] = _floats(draw, int(ds.mask.sum()))
    return replace(ds, X=X, y=y, truth=ds.truth if draw(st.booleans()) else None)


def _weights(draw, shape):
    """Nonnegative weights with a positive first row, so that every column
    has a positive total."""
    w = _floats(draw, shape, WEIGHTS)
    w[0] = _floats(draw, shape[1:], WEIGHTS.filter(lambda v: v > 0))
    return w


@st.composite
def _any_draws(draw):
    """Arbitrary draws of the kind the program writes: finite blocks and
    standardization moments, positive scales, and nonnegative weights with
    a positive total (per group for the local ones)."""
    k, d, q, m = (draw(st.integers(1, n)) for n in (6, 3, 2, 4))
    q = draw(st.integers(0, min(q, d)))
    infer_noise, local, weighted = (draw(st.booleans()) for _ in range(3))
    local = local and q > 0
    rec = StandardizationRecord(_floats(draw, d), _floats(draw, d, POSITIVE), draw(FINITE),
                                draw(POSITIVE), draw(hnp.arrays(bool, d)), draw(st.booleans()))
    return PosteriorDraws(
        global_std=_floats(draw, (k, d + q + infer_noise)),
        log_q_global=_floats(draw, k),
        d=d, q=q, infer_noise=infer_noise, rec=rec,
        local_std=_floats(draw, (k, m, q)) if local else None,
        log_q_local=_floats(draw, (k, m)) if local else None,
        weights=_weights(draw, (k,)) if weighted else None,
        local_weights=_weights(draw, (k, m)) if local and weighted else None,
        dataset_id=draw(st.text(max_size=12)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(datasets=st.lists(_any_dataset(), min_size=1, max_size=3), gz=st.booleans())
def test_dataset_records_round_trip_exactly(tmp_path_factory, datasets, gz):
    path = tmp_path_factory.mktemp("sets") / ("sets.jsonl.gz" if gz else "sets.jsonl")
    mfio.save_datasets(path, datasets)
    back = mfio.load_datasets(path)
    assert len(back) == len(datasets)
    for a, b in zip(datasets, back):
        assert (a.d, a.q, a.m, a.dataset_id) == (b.d, b.q, b.m, b.dataset_id)
        for name in ("X", "Z", "y", "mask", "group_sizes"):
            _same_bytes(getattr(a, name), getattr(b, name))
        assert (a.truth is None) == (b.truth is None)
        if a.truth is not None:
            for x, y in [(a.truth.prior, b.truth.prior), (a.truth.global_params,
                                                          b.truth.global_params)]:
                for name in vars(x):
                    _same_bytes(getattr(x, name), getattr(y, name))
            _same_bytes(a.truth.local_params.alpha, b.truth.local_params.alpha)
            # the record holds the real cells; simulated padding may be -0.0
            _same_bytes(a.truth.noise[a.mask], b.truth.noise[b.mask])
            assert np.all(b.truth.noise[~b.mask] == 0.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(draws=st.lists(_any_draws(), min_size=1, max_size=3))
def test_draw_records_round_trip_exactly(tmp_path_factory, draws):
    path = tmp_path_factory.mktemp("draws") / "draws.jsonl"
    mfio.save_draws(path, [mfio.draws_to_record(dr) for dr in draws])
    back = mfio.load_draws(path)
    assert len(back) == len(draws)
    for a, (b, _) in zip(draws, back):
        assert (a.d, a.q, a.infer_noise, a.dataset_id) == (b.d, b.q, b.infer_noise, b.dataset_id)
        for name in ("global_std", "log_q_global", "local_std", "log_q_local", "weights",
                     "local_weights"):
            _same_bytes(getattr(a, name), getattr(b, name))
        for name in vars(a.rec):
            _same_bytes(getattr(a.rec, name), getattr(b.rec, name))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(values=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0),
                         elements=st.floats()))
@example(values=SPECIAL)
def test_blocks_are_strict_json_and_keep_every_bit(values):
    text = json.dumps({"block": mfio._block(values)})
    block = json.loads(text, parse_constant=_reject_constant)["block"]
    _same_bytes(np.frombuffer(base64.b64decode(block), "<f8"), values.reshape(-1))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(draws=st.lists(_any_draws(), min_size=1, max_size=3))
def test_version1_records_load_like_version2(tmp_path_factory, draws):
    root = tmp_path_factory.mktemp("draws")
    mfio.save_draws(root / "v1.jsonl", [io_oracle.draws_to_record(dr) for dr in draws])
    mfio.save_draws(root / "v2.jsonl", [mfio.draws_to_record(dr) for dr in draws])
    keys = {"schema", "global", "log_q_global", "local", "log_q_local", "weights",
            "local_weights"}
    for (a, rec1), (b, rec2) in zip(mfio.load_draws(root / "v1.jsonl"),
                                    mfio.load_draws(root / "v2.jsonl"), strict=True):
        assert (rec1["schema"], rec2["schema"]) == ("posterior-draws/1", "posterior-draws/2")
        assert list(rec1) == list(rec2)
        assert {k: v for k, v in rec1.items() if k not in keys} == \
            {k: v for k, v in rec2.items() if k not in keys}
        for name in BLOCKS:
            _same_bytes(getattr(a, name), getattr(b, name))
        for name in vars(a.rec):
            _same_bytes(getattr(a.rec, name), getattr(b.rec, name))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(datasets=st.lists(_any_dataset(), min_size=1, max_size=3))
def test_version1_dataset_records_load_like_version2(tmp_path_factory, datasets):
    root = tmp_path_factory.mktemp("sets")
    mfio.write_file(root / "v1.jsonl", "".join(json.dumps(io_oracle.dataset_to_record(ds)) + "\n"
                                               for ds in datasets))
    mfio.save_datasets(root / "v2.jsonl", datasets)
    records = [[json.loads(line) for line in (root / name).read_text().splitlines()]
               for name in ("v1.jsonl", "v2.jsonl")]
    blocks = {"schema", "x", "y", "alpha", "noise"}
    for rec1, rec2 in zip(*records, strict=True):
        assert (rec1["schema"], rec2["schema"]) == ("hier-dataset/1", "hier-dataset/2")
        assert list(rec1) == list(rec2)
        assert {k: v for k, v in rec1.items() if k not in blocks | {"truth"}} == \
            {k: v for k, v in rec2.items() if k not in blocks | {"truth"}}
        if rec1["truth"] is not None:
            assert list(rec1["truth"]) == list(rec2["truth"])
            assert {k: v for k, v in rec1["truth"].items() if k not in blocks} == \
                {k: v for k, v in rec2["truth"].items() if k not in blocks}
    for a, b in zip(mfio.load_datasets(root / "v1.jsonl"), mfio.load_datasets(root / "v2.jsonl"),
                    strict=True):
        assert (a.q, a.dataset_id) == (b.q, b.dataset_id)
        for name in ("X", "Z", "y", "mask", "group_sizes"):
            _same_bytes(getattr(a, name), getattr(b, name))
        assert (a.truth is None) == (b.truth is None)
        if a.truth is not None:
            for x, y in [(a.truth.prior, b.truth.prior),
                         (a.truth.global_params, b.truth.global_params),
                         (a.truth.local_params, b.truth.local_params)]:
                for name in vars(x):
                    _same_bytes(getattr(x, name), getattr(y, name))
            _same_bytes(a.truth.noise, b.truth.noise)


# one way to write a file ------------------------------------------------------

PACKAGE = Path(mfio.__file__).parent


def _writes(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, call) for each call in `tree` that writes a file: open or
    gzip.open with a mode that is not a read-only literal, .write_text,
    .write_bytes and json.dump (or any other dump to a handle)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name == "open":
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                        node.args[1] if len(node.args) > 1 else ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")):
                found.append((node.lineno, ast.unparse(node)))
        elif name in ("write_text", "write_bytes", "dump"):
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_write_guard_finds_each_write_form():
    src = ('open(p, "w"); open(p, mode="ab"); gzip.open(p, "wt"); open(p, m)\n'
           'p.write_text(s); p.write_bytes(b); json.dump(o, fh); dump(o, fh)\n'
           'open(p); open(p, "rb"); gzip.open(p, "rt"); json.dumps(o)\n')
    assert len(_writes(ast.parse(src))) == 8


def test_write_file_is_the_only_writer():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sanctioned = range(0)  # the open(tmp, "wb") inside io.write_file
        if path == PACKAGE / "io.py":
            fn = next(n for n in tree.body
                      if isinstance(n, ast.FunctionDef) and n.name == "write_file")
            sanctioned = range(fn.lineno, fn.end_lineno + 1)
        offenders += [f"{path.relative_to(PACKAGE)}:{line}: {call}"
                      for line, call in _writes(tree) if line not in sanctioned]
    assert not offenders, "write through io.write_file instead:\n" + "\n".join(offenders)


# one read contract: a changed field is refused by name, or the record loads --

# value of each mutation that replaces a value; "fewer" drops the last
# element of a list or block, "deleted" removes the field
REPLACEMENTS = {"nan": math.nan, "inf": math.inf, "-1": -1, "fraction": 0.5, "huge": 1e300,
                "string": "x", "bool": True}
MUTATIONS = (*REPLACEMENTS, "fewer", "deleted")
# a change to one of these fields may be refused at the field whose size or
# presence it sets: the adjustments count the alphas, the global block's
# width follows infer_noise, and local draws need their group count
COMPANION = {"alphas": "adjustments", "infer_noise": "global", "local": "m"}


def _leaves(rec: dict, at: str = ""):
    """The dotted name of every value in `rec` that is not a non-empty object."""
    for key, value in rec.items():
        if isinstance(value, dict) and value:
            yield from _leaves(value, f"{at}{key}.")
        else:
            yield at + key


def _mutated(rec: dict, field: str, how: str):
    """A copy of `rec` with `field` changed by `how`, or None where `how`
    does not apply (dropping an element of a scalar or of an empty list)."""
    rec = copy.deepcopy(rec)
    *parents, last = field.split(".")
    node = rec
    for part in parents:
        node = node[part]
    if how == "deleted":
        del node[last]
        return rec
    value = node[last]
    block = field in mfio._BLOCKS and isinstance(value, str)
    items = np.frombuffer(base64.b64decode(value), "<f8").tolist() if block else value
    if how == "fewer":
        if not isinstance(items, list) or not items:
            return None
        items = items[:-1]
    elif isinstance(items, list) and items and (not block or how not in ("string", "bool")):
        items = [REPLACEMENTS[how], *items[1:]]
    else:
        node[last] = REPLACEMENTS[how]
        return rec
    node[last] = mfio._block(np.array(items, dtype=np.float64)) if block else items
    return rec


def _read_or_refuse(read, field: str, how: str):
    """read() loads, or refuses naming `field`, a field in it or its
    COMPANION; only a positive prior scale outside PRIOR_SCALE_RANGE is a
    configuration error."""
    try:
        read()
    except DataFormatError as exc:
        names = [field, *([COMPANION[field]] if field in COMPANION else [])]
        assert any(f"'{name}'" in str(exc) or f"'{name}." in str(exc) for name in names), exc
    except ConfigError as exc:
        assert "tau_" in field and how == "huge", exc


def _written_record(draw, kind: str):
    """A record of `kind` as the program writes it, and the reader of a
    file that holds it."""
    if kind == "dataset":
        return mfio.dataset_to_record(draw(_any_dataset())), mfio.load_datasets
    if kind == "draws":
        return mfio.draws_to_record(draw(_any_draws())), mfio.load_draws
    if kind == "table":
        alphas = sorted(draw(st.lists(st.sampled_from(refine.ALPHA_GRID), min_size=1, unique=True)))
        roles = draw(st.lists(st.sampled_from(refine.ROLES), min_size=1, unique=True))
        table = refine.build_conformal_table(
            {r: [draw(st.lists(FINITE, min_size=1, max_size=3)) for _ in alphas] for r in roles},
            tuple(alphas), draw(st.integers(0, 300)), draw(st.text(max_size=8)))
        return table.to_json(), mfio.load_table
    d = draw(st.integers(1, 4))
    q = draw(st.integers(0, min(d, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prior, = sim.sample_priors(1, d, max(q, 1), rng)
    prior = sim.PriorSpec(prior.nu_beta, prior.tau_beta, prior.tau_sigma[:q], prior.tau_eps)
    return prior.to_json(), lambda path: mfio.load_prior(path, d, q)


@pytest.mark.parametrize("kind", ["dataset", "draws", "table", "prior"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_changed_field_is_refused_by_name_or_loads(tmp_path_factory, kind, data):
    rec, read = _written_record(data.draw, kind)
    field = data.draw(st.sampled_from(sorted(_leaves(rec))), label="field")
    how = data.draw(st.sampled_from(MUTATIONS), label="how")
    changed = _mutated(rec, field, how)
    assume(changed is not None)
    path = tmp_path_factory.mktemp(kind) / "rec.json"
    mfio.write_file(path, json.dumps(changed) + "\n")
    _read_or_refuse(lambda: read(path), field, how)


# one way to read JSON ----------------------------------------------------------


def _json_reads(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, code) for each json.load or json.loads call in `tree` whose
    argument is not itself a json.dumps(...) call, and each import of
    load or loads from json."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json" \
                and {alias.name for alias in node.names} & {"load", "loads"}:
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("json.load", "json.loads"):
            arg = node.args[0] if node.args else None
            if not (isinstance(arg, ast.Call) and ast.unparse(arg.func) == "json.dumps"):
                found.append((node.lineno, ast.unparse(node)))
    return found


def test_json_guard_finds_each_read_form():
    src = ("json.load(fh); json.loads(s); from json import loads\n"
           "json.loads(json.dumps(o)); json.dumps(o); pickle.load(fh)\n")
    assert len(_json_reads(ast.parse(src))) == 3


def test_io_is_the_only_json_reader():
    readers = {PACKAGE / "io.py", PACKAGE / "nn" / "checkpoint.py"}
    offenders = [f"{path.relative_to(PACKAGE)}:{line}: {code}"
                 for path in sorted(PACKAGE.rglob("*.py")) if path not in readers
                 for line, code in _json_reads(ast.parse(path.read_text(encoding="utf-8")))]
    assert not offenders, "read JSON through mixedflow.io instead:\n" + "\n".join(offenders)
