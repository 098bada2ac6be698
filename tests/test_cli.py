"""CLI surface: the full command pipeline on a miniature problem, the
documented exit codes, and reproducibility of draw files."""

import base64
import gzip
import json
import shutil

import numpy as np
import pytest

import io_oracle
from mixedflow.cli import main
from mixedflow import io as mfio
from mixedflow.draws import PosteriorDraws
from mixedflow.nn.checkpoint import load_checkpoint, save_checkpoint
from mixedflow.standardize import StandardizationRecord

TINY_TRAIN = {"width": 16, "summary_blocks": 1, "heads": 2, "flow_blocks": 2,
              "flow_hidden": 16, "eval_every": 10, "val_sets": 8, "warmup_steps": 5}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "train.json"
    cfg.write_text(json.dumps(TINY_TRAIN))
    assert main(["simulate", "--d", "2", "--q", "1", "--count", "12", "--seed", "5",
                 "--toy", "--out", str(root / "sets.jsonl")]) == 0
    assert main(["train", "--d", "2", "--q", "1", "--budget", "160", "--batch", "8",
                 "--seed", "5", "--toy", "--config", str(cfg),
                 "--out", str(root / "run")]) == 0
    return root


class TestPipeline:
    def test_simulate_outputs(self, workdir):
        sets = mfio.load_datasets(workdir / "sets.jsonl")
        assert len(sets) == 12
        assert (workdir / "sets.jsonl.manifest.json").exists()

    def test_train_artifacts(self, workdir):
        assert (workdir / "run" / "best.ckpt").exists()
        assert (workdir / "run" / "curve.csv").exists()
        manifest = json.loads((workdir / "run" / "manifest.json").read_text())
        assert manifest["command"] == "train"

    def test_infer_and_determinism(self, workdir):
        out1, out2 = workdir / "draws1.jsonl", workdir / "draws2.jsonl"
        input_bytes = (workdir / "sets.jsonl").read_bytes()
        base = ["infer", "--checkpoint", str(workdir / "run" / "best.ckpt"),
                "--data", str(workdir / "sets.jsonl"), "--k", "50", "--seed", "9"]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (workdir / "sets.jsonl").read_bytes() == input_bytes  # inputs untouched
        draws = mfio.load_draws(out1)
        assert len(draws) == 12
        assert draws[0][0].global_std.shape == (50, 4)

    def test_calibrate_then_conformal_infer(self, workdir):
        table_path = workdir / "table.json"
        assert main(["calibrate", "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--sets", str(workdir / "sets.jsonl"), "--k", "40",
                     "--seed", "11", "--out", str(table_path)]) == 0
        table = json.loads(table_path.read_text())
        assert set(table["adjustments"]) <= {"fixed", "variance", "random"}
        assert table["low_confidence"]  # only 12 calibration sets
        out = workdir / "draws_conformal.jsonl"
        assert main(["infer", "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(workdir / "sets.jsonl"), "--k", "40", "--seed", "9",
                     "--refine", "conformal", "--conformal-table", str(table_path),
                     "--out", str(out)]) == 0

    def test_importance_refined_infer(self, workdir):
        out = workdir / "draws_is.jsonl"
        assert main(["infer", "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(workdir / "sets.jsonl"), "--k", "40", "--seed", "9",
                     "--refine", "is", "--out", str(out)]) == 0
        (draws, rec), *_ = mfio.load_draws(out)
        assert draws.weights is not None
        assert abs(draws.weights.sum() - draws.k) < 1e-8

    def test_evaluate_and_report(self, workdir):
        eval_dir = workdir / "eval"
        assert main(["evaluate", "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(workdir / "sets.jsonl"), "--k", "40", "--seed", "13",
                     "--out", str(eval_dir)]) == 0
        assert (eval_dir / "report.csv").exists()
        assert (eval_dir / "recovery_fixed.svg").exists()
        assert (eval_dir / "coverage_fixed.svg").exists()
        report_dir = workdir / "report"
        assert main(["report", "--draws", f"mine={workdir / 'draws1.jsonl'}",
                     "--data", str(workdir / "sets.jsonl"),
                     "--out", str(report_dir)]) == 0
        text = (report_dir / "report.txt").read_text()
        assert "mine:r" in text.splitlines()[0]
        assert (report_dir / "split_n_mine.csv").exists()

    def test_report_reads_version1_draw_files_alike(self, workdir, tmp_path):
        draws = tmp_path / "x.jsonl"
        assert main(_infer(workdir, tmp_path, None, "--refine", "is")) == 0
        reports = []
        for version in (2, 1):
            if version == 1:
                mfio.save_draws(draws, [io_oracle.draws_to_record(dr, rec["intervals"])
                                        for dr, rec in mfio.load_draws(draws)])
            out = tmp_path / f"rep{version}"
            assert main(["report", "--draws", f"mine={draws}", "--data",
                         str(workdir / "sets.jsonl"), "--out", str(out)]) == 0
            reports.append({f.name: f.read_bytes() for f in sorted(out.iterdir())
                            if f.name != "manifest.json"})
        assert '"posterior-draws/1"' in draws.read_text()
        assert "report.csv" in reports[0] and reports[0] == reports[1]

    def test_csv_inference(self, workdir, tmp_path):
        obs = tmp_path / "obs.csv"
        rows = ["group_id,y,x_1"]
        rng = np.random.default_rng(0)
        for g in ("a", "b", "c"):
            for _ in range(8):
                rows.append(f"{g},{rng.normal():.4f},{rng.normal():.4f}")
        obs.write_text("\n".join(rows) + "\n")
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"nu_beta": [0.0, 0.0], "tau_beta": [2.0, 2.0],
                                     "tau_sigma": [1.0], "tau_eps": 1.0}))
        out = tmp_path / "csv_draws.jsonl"
        assert main(["infer", "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(obs), "--q", "1", "--prior", str(prior),
                     "--k", "30", "--seed", "3", "--out", str(out)]) == 0
        (draws, _), = mfio.load_draws(out)
        assert draws.global_std.shape == (30, 4)

    def test_evaluate_builds_intervals_once_per_dataset(self, workdir, tmp_path, monkeypatch):
        calls = []
        borders = PosteriorDraws.interval_borders

        def count(draws, alphas):
            calls.append(draws.dataset_id)
            return borders(draws, alphas)

        monkeypatch.setattr(PosteriorDraws, "interval_borders", count)
        assert main(["evaluate", "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(workdir / "sets.jsonl"), "--k", "40", "--seed", "13",
                     "--out", str(tmp_path / "eval")]) == 0
        ids = [ds.dataset_id for ds in mfio.load_datasets(workdir / "sets.jsonl")]
        assert calls == ids


def _first_record(workdir) -> dict:
    return json.loads((workdir / "sets.jsonl").read_text().splitlines()[0])


def _write(path, content) -> str:
    (path.write_bytes if isinstance(content, bytes) else path.write_text)(content)
    return str(path)


def _infer(workdir, tmp_path, data=None, *extra):
    return ["infer", "--checkpoint", str(workdir / "run" / "best.ckpt"),
            "--data", data or str(workdir / "sets.jsonl"), "--k", "8",
            "--out", str(tmp_path / "x.jsonl"), *extra]


def _train(tmp_path, config, *extra):
    return ["train", "--d", "2", "--q", "1", "--budget", "160", "--batch", "8",
            "--seed", "5", "--toy", "--config", config, "--out", str(tmp_path / "run"), *extra]


def _report(workdir, tmp_path, draws: str):
    return ["report", "--draws", draws, "--data", str(workdir / "sets.jsonl"),
            "--out", str(tmp_path / "rep")]


def _draw_record(**changes) -> str:
    draws = PosteriorDraws(global_std=np.ones((3, 4)), log_q_global=np.zeros(3), d=2, q=1,
                           infer_noise=True, rec=StandardizationRecord.identity(2))
    return json.dumps({**mfio.draws_to_record(draws), **changes}) + "\n"


def _changed_global(change) -> str:
    """A draw record whose global block text went through `change`."""
    return _draw_record(**{"global": change(json.loads(_draw_record())["global"])})


def _resume_with_optimizer(change):
    """Resume from a last.ckpt whose optimizer arrays went through `change`."""
    def make(workdir, tmp_path):
        shutil.copytree(workdir / "run", tmp_path / "run")
        manifest, arrays, _ = load_checkpoint(tmp_path / "run" / "last.ckpt")
        save_checkpoint(tmp_path / "run" / "last.ckpt", manifest, change(arrays))
        return _train(tmp_path, _write(tmp_path / "c.json", json.dumps(TINY_TRAIN)), "--resume")
    return make


def _reshape_one_v(arrays):
    name = next(k for k in arrays if k.startswith("opt.v."))
    return {**arrays, name: arrays[name].reshape(1, 1, -1)}


def _resume_with_curve(workdir, tmp_path):
    shutil.copytree(workdir / "run", tmp_path / "run")
    _write(tmp_path / "run" / "curve.csv", "step,global_loss,local_loss,val_loss\n10,x,1,1\n")
    return _train(tmp_path, _write(tmp_path / "c.json", json.dumps(TINY_TRAIN)), "--resume")


# malformed inputs, one per reader: (id, argv from (workdir, tmp_path), exit code)
MALFORMED = [
    ("table-not-json", lambda w, t: _infer(w, t, None, "--refine", "conformal",
                                           "--conformal-table", _write(t / "t.json", "{")), 4),
    ("table-no-adjustments", lambda w, t: _infer(
        w, t, None, "--refine", "conformal", "--conformal-table",
        _write(t / "t.json", json.dumps({"alphas": [0.1]}))), 4),
    ("table-short-adjustments", lambda w, t: _infer(
        w, t, None, "--refine", "conformal", "--conformal-table", _write(t / "t.json", json.dumps(
            {"alphas": [0.1, 0.5], "adjustments": {"fixed": [0.1], "variance": [0.1, 0.1],
                                                   "random": [0.1, 0.1]}}))), 4),
    ("prior-not-json", lambda w, t: _infer(w, t, None, "--prior", _write(t / "p.json", "nu")), 4),
    ("prior-bad-number", lambda w, t: _infer(w, t, None, "--prior", _write(t / "p.json", json.dumps(
        {"nu_beta": [0, 0], "tau_beta": [1, 1], "tau_sigma": [1], "tau_eps": "x"}))), 4),
    ("train-config-not-json", lambda w, t: _train(t, _write(t / "c.json", "{width")), 4),
    ("train-config-unknown-field", lambda w, t: _train(
        t, _write(t / "c.json", json.dumps({"widht": 16}))), 2),
    ("train-config-unknown-optimizer", lambda w, t: _train(
        t, _write(t / "c.json", json.dumps({"optimizer": "adamw"}))), 2),
    ("dataset-bad-dim", lambda w, t: _infer(w, t, _write(t / "d.jsonl", json.dumps(
        {**_first_record(w), "d": "two"}) + "\n")), 4),
    ("dataset-not-utf8", lambda w, t: _infer(w, t, _write(t / "d.jsonl", b'{"schema": "\xff"}\n')), 4),
    ("calibrate-dataset-not-utf8", lambda w, t: [
        "calibrate", "--checkpoint", str(w / "run" / "best.ckpt"),
        "--sets", _write(t / "d.jsonl", b"\xfe\xff\n"), "--out", str(t / "t.json")], 4),
    ("dataset-gzip-cut", lambda w, t: _infer(w, t, _write(t / "d.jsonl.gz", gzip.compress(
        (w / "sets.jsonl").read_bytes())[:2000])), 4),
    ("draws-null-k", lambda w, t: _report(w, t, _write(t / "x.jsonl", _draw_record(k=None))), 4),
    ("draws-not-utf8", lambda w, t: _report(w, t, _write(t / "x.jsonl", b"\xff\n")), 4),
    ("draws-global-cut-8-bytes", lambda w, t: _report(w, t, _write(t / "x.jsonl", _changed_global(
        lambda b: base64.b64encode(base64.b64decode(b)[:-8]).decode()))), 4),
    ("draws-global-not-base64", lambda w, t: _report(w, t, _write(t / "x.jsonl", _changed_global(
        lambda b: "!" + b[1:]))), 4),
    ("draws-block-number", lambda w, t: _report(w, t, _write(t / "x.jsonl", _draw_record(
        log_q_global=1))), 4),
    ("draws-v1-short-global", lambda w, t: _report(w, t, _write(t / "x.jsonl", _draw_record(
        schema="posterior-draws/1", log_q_global=[0.0] * 3, **{"global": [1.0] * 11}))), 4),
    ("resume-optimizer-renamed", _resume_with_optimizer(lambda arrays: {
        k.replace("opt.z.", "opt.m.", 1): v for k, v in arrays.items()}), 4),
    ("resume-optimizer-reshaped", _resume_with_optimizer(_reshape_one_v), 4),
    ("resume-bad-curve", _resume_with_curve, 4),
]


class TestExitCodes:
    @pytest.mark.parametrize("make_argv, code", [m[1:] for m in MALFORMED],
                             ids=[m[0] for m in MALFORMED])
    def test_malformed_input(self, workdir, tmp_path, make_argv, code):
        assert main(make_argv(workdir, tmp_path)) == code

    def test_evaluate_conformal_without_table_is_2(self, workdir, tmp_path):
        code = main(["evaluate", "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(workdir / "sets.jsonl"), "--refine", "conformal",
                     "--out", str(tmp_path / "eval")])
        assert code == 2

    @pytest.mark.parametrize("refine", ["none", "is"])
    def test_infer_ignores_unused_table(self, workdir, tmp_path, refine):
        table = _write(tmp_path / "t.json", "{")
        assert main(_infer(workdir, tmp_path, None, "--refine", refine,
                           "--conformal-table", table)) == 0

    @pytest.mark.parametrize("refine", ["conformal", "both"])
    def test_infer_conformal_without_table_is_2_before_loading(self, tmp_path, refine):
        # the checkpoint does not exist: loading it first would exit 4
        code = main(["infer", "--checkpoint", str(tmp_path / "missing.ckpt"),
                     "--data", str(tmp_path / "missing.jsonl"), "--refine", refine,
                     "--out", str(tmp_path / "x.jsonl")])
        assert code == 2

    def test_config_error_is_2(self, workdir, tmp_path):
        # dimension mismatch: checkpoint (d=2) vs d=3 CSV data
        obs = tmp_path / "obs3.csv"
        obs.write_text("group_id,y,x_1,x_2\na,1.0,0.5,0.2\na,2.0,0.1,0.4\n")
        prior = tmp_path / "p.json"
        prior.write_text(json.dumps({"nu_beta": [0, 0, 0], "tau_beta": [1, 1, 1],
                                     "tau_sigma": [1], "tau_eps": 1.0}))
        code = main(["infer", "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(obs), "--q", "1", "--prior", str(prior),
                     "--out", str(tmp_path / "x.jsonl")])
        assert code == 2

    def test_io_error_is_4(self, workdir, tmp_path):
        code = main(["infer", "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "x.jsonl")])
        assert code == 4

    def test_bad_format_is_4(self, workdir, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        code = main(["infer", "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(bad), "--out", str(tmp_path / "x.jsonl")])
        assert code == 4
