"""Record formats: dataset and draw files round-trip losslessly (including
gzip containers), draw files are strict JSON that keep every float bit and
still read version 1, observation CSVs build valid datasets, and manifests
carry the reproducibility fields. Writes are atomic and reproducible, and
io.write_file is the only code in the package that writes a file."""

import ast
import base64
import gzip
import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import io_oracle
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

    @pytest.mark.parametrize("field, change", [
        ("global", lambda rec: {"global": _cut(rec["global"], 8)}),
        ("global", lambda rec: {"global": _cut(rec["global"], 3)}),
        ("local", lambda rec: {"local": "!" + rec["local"][1:]}),
        ("log_q_global", lambda rec: {"log_q_global": 1}),
        ("weights", lambda rec: {"weights": [1.0] * 20}),
        ("global", lambda rec: {**io_oracle.draws_to_record(mfio.draws_from_record(rec)),
                                "global": [0.0] * 79}),
    ], ids=["cut-8-bytes", "cut-3-bytes", "bang", "number", "list-in-v2", "short-v1-list"])
    def test_malformed_block_names_its_field(self, field, change):
        rec = mfio.draws_to_record(self._draws())
        with pytest.raises(DataFormatError, match=f"'{field}'"):
            mfio.draws_from_record({**rec, **change(rec)})


def _cut(block: str, nbytes: int) -> str:
    """A base64 block with its last `nbytes` bytes removed."""
    return base64.b64encode(base64.b64decode(block)[:-nbytes]).decode()


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


# exact round trips of arbitrary records --------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
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
    Z = np.zeros_like(X)
    Z[..., :q] = X[..., :q]
    return replace(ds, X=X, Z=Z, y=y, truth=ds.truth if draw(st.booleans()) else None)


@st.composite
def _any_draws(draw, elements=FINITE):
    """Arbitrary draws whose blocks hold `elements`; the standardization
    record stays finite."""
    k, d, q, m = (draw(st.integers(1, n)) for n in (6, 3, 2, 4))
    q = draw(st.integers(0, q))
    infer_noise, local, weighted = (draw(st.booleans()) for _ in range(3))
    local = local and q > 0
    rec = StandardizationRecord(_floats(draw, d), _floats(draw, d), draw(FINITE), draw(FINITE),
                                draw(hnp.arrays(bool, d)), draw(st.booleans()))
    return PosteriorDraws(
        global_std=_floats(draw, (k, d + q + infer_noise), elements),
        log_q_global=_floats(draw, k, elements),
        d=d, q=q, infer_noise=infer_noise, rec=rec,
        local_std=_floats(draw, (k, m, q), elements) if local else None,
        log_q_local=_floats(draw, (k, m), elements) if local else None,
        weights=_floats(draw, k, elements) if weighted else None,
        local_weights=_floats(draw, (k, m), elements) if local and weighted else None,
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


# a NaN with a payload, a signalling NaN with the sign bit, both infinities, -0.0
SPECIAL = np.array([0x7FF8000000000123, 0xFFF0000000000001, 0x7FF0000000000000,
                    0xFFF0000000000000, 0x8000000000000000], dtype=np.uint64).view(np.float64)


def _special_draws() -> PosteriorDraws:
    """Draws whose every block holds each SPECIAL value."""
    k, m, q = len(SPECIAL), 2, 1
    return PosteriorDraws(
        global_std=np.resize(SPECIAL, (k, 4)), log_q_global=SPECIAL.copy(), d=2, q=q,
        infer_noise=True, rec=StandardizationRecord.identity(2),
        local_std=np.resize(SPECIAL[::-1], (k, m, q)), log_q_local=np.resize(SPECIAL, (k, m)),
        weights=SPECIAL[::-1].copy(), local_weights=np.resize(SPECIAL[1:], (k, m)))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(draws=st.lists(_any_draws(st.floats()), min_size=1, max_size=3))
@example(draws=[_special_draws()])
def test_draw_records_are_strict_json_and_keep_every_bit(tmp_path_factory, draws):
    path = tmp_path_factory.mktemp("draws") / "draws.jsonl"
    mfio.save_draws(path, [mfio.draws_to_record(dr) for dr in draws])
    for line in path.read_text().splitlines():
        json.loads(line, parse_constant=_reject_constant)
    for a, (b, _) in zip(draws, mfio.load_draws(path), strict=True):
        for name in BLOCKS:
            _same_bytes(getattr(a, name), getattr(b, name))


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
