"""CLI surface: the full command pipeline on a miniature problem, the
documented exit codes, and reproducibility of draw files."""

import base64
import gzip
import json
import logging
import re
import shutil

import numpy as np
import pytest

import io_oracle
from mixedflow.cli import main
from mixedflow import io as mfio
from mixedflow import refine
from mixedflow.metrics import evaluate_dataset
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

    def test_train_progress_goes_to_stderr(self, tmp_path, capsys):
        assert main(_train(tmp_path, _write(tmp_path / "c.json", json.dumps(TINY_TRAIN)))) == 0
        out, err = capsys.readouterr()
        assert re.search(r"^step 10/\d+ train ", err, re.M) and "step 10/" not in out
        assert out.startswith("best validation loss")
        train_log = logging.getLogger("mixedflow.train")
        assert not train_log.handlers and train_log.level == logging.NOTSET

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

    def test_calibrate_alphas_are_sorted_and_distinct(self, workdir, tmp_path):
        out = tmp_path / "t.json"
        assert main(["calibrate", "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--sets", str(workdir / "sets.jsonl"), "--k", "20", "--seed", "11",
                     "--alphas", "0.5,0.1,0.1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["alphas"] == [0.1, 0.5]
        assert mfio.load_table(out).alphas == (0.1, 0.5)

    def test_inverting_table_empties_intervals_and_keeps_hits(self, workdir, tmp_path):
        alphas = (0.1, 0.5)
        table_path = _table_file(tmp_path, adjustments={
            "fixed": [-5.0, 0.0], "variance": [0.0, -0.05], "random": [0.0, -5.0]})
        args = ["--refine", "conformal", "--conformal-table", table_path, "--alphas", "0.1,0.5"]
        assert main(_infer(workdir, tmp_path, None, *args)) == 0
        emptied = 0
        for _, rec in mfio.load_draws(tmp_path / "x.jsonl"):
            for intervals in rec["intervals"].values():
                for borders in map(np.asarray, intervals.values()):
                    assert (borders[..., 0] <= borders[..., 1]).all()
                    emptied += (borders[..., 0] == borders[..., 1]).sum()
        assert emptied > 0
        assert main(["evaluate", "--checkpoint", str(workdir / "run" / "best.ckpt"), "--data",
                     str(workdir / "sets.jsonl"), "--k", "20", *args,
                     "--out", str(tmp_path / "eval")]) == 0
        # the hits of the borders before the midpoint rule: inverted ones miss too
        table, sets = mfio.load_table(table_path), mfio.load_datasets(workdir / "sets.jsonl")
        hits = {}
        for (draws, _), ds in zip(mfio.load_draws(tmp_path / "eval" / "draws.jsonl"), sets,
                                  strict=True):
            b_global, b_local = draws.interval_borders(alphas)
            adj = np.array([[table.adjustment(role, a) for _, role in draws.layout]
                            for a in alphas])
            rand = np.array([table.adjustment("random", a) for a in alphas])[:, None, None, None]
            scores = refine.border_scores(
                draws, (b_global + adj[..., None] * [-1, 1], b_local + rand * [-1, 1]),
                ds.truth.global_params, ds.truth.local_params)
            ours = evaluate_dataset(ds, draws, table, alphas).hits
            for role, s in scores.items():
                for i, a in enumerate(alphas):
                    np.testing.assert_array_equal(ours[(role, a)], s[i] <= 0)
                    hits.setdefault((role, a), []).append(s[i] <= 0)
        rows = (tmp_path / "eval" / "coverage.csv").read_text().splitlines()[1:]
        assert sorted(rows) == sorted(f"model,{role},{a},{np.concatenate(h).mean():.4f}"
                                      for (role, a), h in hits.items())

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

    def test_manifests_list_every_output(self, workdir, tmp_path):
        eval_dir, report_dir = tmp_path / "eval", tmp_path / "rep"
        assert main(["evaluate", "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(workdir / "sets.jsonl"), "--k", "20", "--seed", "13",
                     "--out", str(eval_dir)]) == 0
        assert main(["report", "--draws", f"mine={eval_dir / 'draws.jsonl'}",
                     "--data", str(workdir / "sets.jsonl"), "--out", str(report_dir)]) == 0
        for out in (eval_dir, report_dir):
            listed = json.loads((out / "manifest.json").read_text())["outputs"]
            written = [str(f) for f in out.iterdir() if f.name != "manifest.json"]
            assert sorted(listed) == sorted(written)
        assert str(report_dir / "split_snr_mine.csv") in listed

    def test_report_scores_chain_csv_named_after_a_set(self, workdir, tmp_path):
        ds = mfio.load_datasets(workdir / "sets.jsonl")[0]
        gp, alpha = ds.truth.global_params, ds.truth.local_params.alpha
        truth = {f"beta[{j}]": b for j, b in enumerate(gp.beta)}
        truth |= {f"sigma[{j}]": s for j, s in enumerate(gp.sigma_alpha)}
        truth |= {f"alpha[{i},0]": a for i, a in enumerate(alpha[:, 0])}
        truth["sigma_eps"] = gp.sigma_eps
        noise = np.random.default_rng(3).normal(0.0, 0.05, size=(2, 30, len(truth)))
        rows = ["chain,draw,parameter,value"]
        rows += [f'{c},{i},"{p}",{float(v + noise[c, i, j])!r}' for c in range(2) for i in range(30)
                 for j, (p, v) in enumerate(truth.items())]
        chains = _write(tmp_path / f"{ds.dataset_id}.csv", "\n".join(rows) + "\n")
        out = tmp_path / "rep"
        assert main(["report", "--draws", f"hmc={chains}", "--data",
                     str(workdir / "sets.jsonl"), "--out", str(out)]) == 0
        assert "hmc" in (out / "report.csv").read_text()

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


def _evaluate(workdir, tmp_path, *extra):
    return ["evaluate", "--checkpoint", str(workdir / "run" / "best.ckpt"), "--k", "8",
            "--data", str(workdir / "sets.jsonl"), "--out", str(tmp_path / "eval"), *extra]


def _train(tmp_path, config, *extra):
    return ["train", "--d", "2", "--q", "1", "--budget", "160", "--batch", "8",
            "--seed", "5", "--toy", "--config", config, "--out", str(tmp_path / "run"), *extra]


def _simulate(tmp_path, *extra):
    return ["simulate", "--d", "2", "--q", "1", "--count", "2", "--toy",
            "--out", str(tmp_path / "s.jsonl"), *extra]


def _exit_code(argv) -> int:
    """main's return value, or the code argparse exits with on a bad argument."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _report(workdir, tmp_path, draws: str):
    return ["report", "--draws", draws, "--data", str(workdir / "sets.jsonl"),
            "--out", str(tmp_path / "rep")]


def _chains(*params) -> str:
    """An external-sample CSV: one chain, three draws of each quoted name."""
    return "chain,draw,parameter,value\n" + "".join(
        f'0,{i},"{p}",{0.1 * i}\n' for p in params for i in range(3))


def _draw_record(**changes) -> str:
    draws = PosteriorDraws(global_std=np.ones((3, 4)), log_q_global=np.zeros(3), d=2, q=1,
                           infer_noise=True, rec=StandardizationRecord.identity(2))
    return json.dumps({**mfio.draws_to_record(draws), **changes}) + "\n"


def _matching_draws(workdir, tmp_path, **changes):
    """Report a draw record for the first simulated set, after `changes`."""
    return _report(workdir, tmp_path, _write(tmp_path / "x.jsonl", _draw_record(
        dataset_id=_first_record(workdir)["id"], **changes)))


def _table_file(tmp_path, **changes) -> str:
    """A conformal table file for alphas 0.1 and 0.5, after `changes`."""
    table = {"alphas": [0.1, 0.5], "adjustments": {r: [0.1, 0.1] for r in refine.ROLES},
             "checkpoint_id": "", "n_calibration": 120, "low_confidence": False}
    return _write(tmp_path / "t.json", json.dumps({**table, **changes}))


def _conformal_infer(workdir, tmp_path, **changes):
    return _infer(workdir, tmp_path, None, "--refine", "conformal", "--conformal-table",
                  _table_file(tmp_path, **changes))


def _changed_set(workdir, tmp_path, change) -> str:
    """A dataset file holding the first simulated set's record after `change`."""
    return _write(tmp_path / "d.jsonl", json.dumps(change(_first_record(workdir))) + "\n")


def _edited(block: str, edit) -> str:
    """A base64 float64 block whose decoded values went through `edit`."""
    return mfio._block(edit(np.frombuffer(base64.b64decode(block), "<f8").copy()))


def _empty_first_group(rec: dict) -> dict:
    """The record with its first group's observations removed and its size
    set to 0, every other length consistent."""
    n0, d = rec["group_sizes"][0], rec["d"]
    return {**rec, "group_sizes": [0] + rec["group_sizes"][1:],
            "x": _edited(rec["x"], lambda x: x[n0 * d:]), "y": _edited(rec["y"], lambda y: y[n0:]),
            "truth": {**rec["truth"], "noise": _edited(rec["truth"]["noise"], lambda e: e[n0:])}}


def _nan_first_y(rec: dict) -> dict:
    return {**rec, "y": _edited(rec["y"], lambda y: np.r_[np.nan, y[1:]])}


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


def _tree(root) -> dict:
    """Every path under root, with its bytes if it is a file."""
    return {p: p.is_file() and p.read_bytes() for p in root.rglob("*")}


def _legacy_checkpoint(workdir, tmp_path, **keys) -> str:
    """The run's best.ckpt with `keys` added to its manifest."""
    manifest, arrays, _ = load_checkpoint(workdir / "run" / "best.ckpt")
    save_checkpoint(tmp_path / "legacy.ckpt", {**manifest, **keys}, arrays)
    return str(tmp_path / "legacy.ckpt")


# values that the draw and table readers used to take, each with exit 0
# (a negative weight: 2): (id, argv from (workdir, tmp_path), file, field)
ACCEPTED_BEFORE = [
    ("draws-weight-nan", lambda w, t: _matching_draws(
        w, t, weights=mfio._block([np.nan, 1.0, 1.0])), "x.jsonl", "weights"),
    ("draws-global-inf", lambda w, t: _matching_draws(
        w, t, **{"global": mfio._block(np.r_[np.inf, np.ones(11)])}), "x.jsonl", "global"),
    ("draws-weight-negative", lambda w, t: _matching_draws(
        w, t, weights=mfio._block([-1.0, 1.0, 1.0])), "x.jsonl", "weights"),
    ("draws-weight-total-overflows", lambda w, t: _matching_draws(
        w, t, weights=mfio._block([1e308, 1e308, 1.0])), "x.jsonl", "weights"),
    ("draws-infer-noise-string", lambda w, t: _matching_draws(w, t, infer_noise="no"),
     "x.jsonl", "infer_noise"),
    ("draws-k-fractional", lambda w, t: _matching_draws(w, t, k=3.7), "x.jsonl", "k"),
    ("table-entry-nan", lambda w, t: _conformal_infer(w, t, adjustments={
        r: [0.1, np.nan if r == "fixed" else 0.1] for r in refine.ROLES}),
     "t.json", "adjustments.fixed"),
    ("table-alphas-reordered", lambda w, t: _conformal_infer(w, t, alphas=[0.5, 0.1]),
     "t.json", "alphas"),
    ("table-n-calibration-fractional", lambda w, t: _conformal_infer(w, t, n_calibration=2.5),
     "t.json", "n_calibration"),
]

# `train --config` values of the wrong JSON type: (id, overrides); each used
# to train (toy "no", lr true) or end in a traceback (seed "abc", d 2.5)
MISTYPED = [("toy-string", {"toy": "no"}), ("seed-string", {"seed": "abc"}),
            ("d-fraction", {"d": 2.5}), ("lr-bool", {"lr": True})]

# malformed inputs, one per reader: (id, argv from (workdir, tmp_path), exit code);
# each is refused before anything is written
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
    ("prior-scale-square-overflows", lambda w, t: _infer(w, t, None, "--prior", _write(
        t / "p.json", json.dumps({"nu_beta": [0, 0], "tau_beta": [1, 1e300], "tau_sigma": [1],
                                  "tau_eps": 1}))), 2),
    ("train-config-not-json", lambda w, t: _train(t, _write(t / "c.json", "{width")), 4),
    ("train-config-unknown-field", lambda w, t: _train(
        t, _write(t / "c.json", json.dumps({"widht": 16}))), 2),
    ("train-config-unknown-optimizer", lambda w, t: _train(
        t, _write(t / "c.json", json.dumps({"optimizer": "adamw"}))), 2),
    ("train-config-heads-not-dividing-width", lambda w, t: _train(
        t, _write(t / "c.json", json.dumps({**TINY_TRAIN, "heads": 3}))), 2),
    ("dataset-bad-dim", lambda w, t: _infer(w, t, _write(t / "d.jsonl", json.dumps(
        {**_first_record(w), "d": "two"}) + "\n")), 4),
    ("dataset-q-negative", lambda w, t: _infer(w, t, _changed_set(
        w, t, lambda rec: {**rec, "q": -1})), 4),
    ("report-truth-beta-extra", lambda w, t: [
        "report", "--draws", _write(t / "x.jsonl", _draw_record(
            dataset_id=_first_record(w)["id"])),
        "--data", _changed_set(w, t, lambda rec: {
            **rec, "truth": {**rec["truth"], "beta": rec["truth"]["beta"] + [0.5]}}),
        "--out", str(t / "rep")], 4),
    ("evaluate-truth-sigma-alpha-empty", lambda w, t: [
        "evaluate", "--checkpoint", str(w / "run" / "best.ckpt"), "--k", "8",
        "--data", _changed_set(w, t, lambda rec: {
            **rec, "truth": {**rec["truth"], "sigma_alpha": []}}),
        "--out", str(t / "eval")], 4),
    ("evaluate-truth-sigma-eps-negative", lambda w, t: [
        "evaluate", "--checkpoint", str(w / "run" / "best.ckpt"), "--k", "8",
        "--data", _changed_set(w, t, lambda rec: {
            **rec, "truth": {**rec["truth"], "sigma_eps": -1.0}}),
        "--out", str(t / "eval")], 4),
    ("evaluate-truth-sigma-alpha-infinite", lambda w, t: [
        "evaluate", "--checkpoint", str(w / "run" / "best.ckpt"), "--k", "8",
        "--data", _changed_set(w, t, lambda rec: {
            **rec, "truth": {**rec["truth"], "sigma_alpha": [float("inf")]}}),
        "--out", str(t / "eval")], 4),
    ("dataset-empty-group", lambda w, t: _infer(w, t, _changed_set(w, t, _empty_first_group)), 4),
    ("dataset-y-nan", lambda w, t: _infer(w, t, _changed_set(w, t, _nan_first_y)), 4),
    ("dataset-group-size-fractional", lambda w, t: _infer(w, t, _changed_set(
        w, t, lambda rec: {**rec, "group_sizes": [n + 0.5 for n in rec["group_sizes"]]})), 4),
    ("dataset-x-not-base64", lambda w, t: _infer(w, t, _changed_set(
        w, t, lambda rec: {**rec, "x": "!" + rec["x"][1:]})), 4),
    ("observations-csv-nan", lambda w, t: _infer(
        w, t, _write(t / "nan.csv", "group_id,y,x_1\na,1.0,0.5\na,nan,0.5\n")), 4),
    ("observations-csv-inf", lambda w, t: _infer(
        w, t, _write(t / "inf.csv", "group_id,y,x_1\na,1.0,inf\n")), 4),
    ("dataset-not-utf8", lambda w, t: _infer(w, t, _write(t / "d.jsonl", b'{"schema": "\xff"}\n')), 4),
    ("calibrate-dataset-not-utf8", lambda w, t: [
        "calibrate", "--checkpoint", str(w / "run" / "best.ckpt"),
        "--sets", _write(t / "d.jsonl", b"\xfe\xff\n"), "--out", str(t / "t.json")], 4),
    ("observations-csv-no-rows", lambda w, t: _infer(
        w, t, _write(t / "empty.csv", "group_id,y,x_1\n")), 4),
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
    ("chains-bad-index", lambda w, t: _report(w, t, _write(t / "c.csv", _chains("beta[x]"))), 4),
    ("chains-value-nan", lambda w, t: _report(w, t, _write(t / "c.csv", _chains(
        "beta[0]", "beta[1]", "sigma[0]", "sigma_eps").replace(",0.1\n", ",nan\n", 1))), 4),
    *((name, make, 4) for name, make, _, _ in ACCEPTED_BEFORE),
    ("chains-beta-gap", lambda w, t: _report(w, t, _write(t / "c.csv", _chains(
        "beta[0]", "beta[2]"))), 4),
    ("chains-alpha-without-sigma", lambda w, t: _report(w, t, _write(t / "c.csv", _chains(
        "beta[0]", "alpha[0,3]"))), 4),
    ("resume-optimizer-renamed", _resume_with_optimizer(lambda arrays: {
        k.replace("opt.z.", "opt.m.", 1): v for k, v in arrays.items()}), 4),
    ("resume-optimizer-reshaped", _resume_with_optimizer(_reshape_one_v), 4),
    ("resume-bad-curve", _resume_with_curve, 4),
    ("simulate-m-range-reversed", lambda w, t: _simulate(t, "--m-range", "30,5"), 2),
    ("simulate-count-zero", lambda w, t: _simulate(t, "--count", "0"), 2),
    ("infer-k-negative", lambda w, t: _infer(w, t, None, "--k", "-3"), 2),
    ("infer-k-zero", lambda w, t: _infer(w, t, None, "--k", "0"), 2),
    ("checkpoint-float64", lambda w, t: _infer(
        w, t, None, "--checkpoint", _legacy_checkpoint(w, t, dtype="float64")), 4),
    ("checkpoint-unstandardized", lambda w, t: _infer(
        w, t, None, "--checkpoint", _legacy_checkpoint(w, t, standardize=False)), 4),
    # a table (here not even JSON) that the refine mode would drop
    *((f"infer-table-unused-{refine}", lambda w, t, refine=refine: _infer(
        w, t, None, "--refine", refine, "--conformal-table", _write(t / "t.json", "{")), 2)
      for refine in ("none", "is")),
    ("evaluate-table-unused-none", lambda w, t: _evaluate(
        w, t, "--refine", "none", "--conformal-table", _write(t / "t.json", "{")), 2),
    # a table calibrated on another checkpoint (an empty id applies to any)
    ("infer-table-other-checkpoint", lambda w, t: _conformal_infer(
        w, t, checkpoint_id="0" * 64), 2),
    ("evaluate-table-other-checkpoint", lambda w, t: _evaluate(
        w, t, "--refine", "both", "--conformal-table", _table_file(t, checkpoint_id="0" * 64)), 2),
    *((f"train-config-{name}", lambda w, t, fields=fields: _train(
        t, _write(t / "c.json", json.dumps({**TINY_TRAIN, **fields}))), 2)
      for name, fields in [("batch-size-0", {"batch_size": 0}), ("eval-every-0", {"eval_every": 0}),
                           ("val-sets-0", {"val_sets": 0}), ("patience-0", {"patience": 0}),
                           ("m-range-reversed", {"m_range": [30, 5]}),
                           ("m-range-one-number", {"m_range": [5]}),
                           ("width-not-a-number", {"width": "abc"}),
                           ("width-0", {"width": 0, "heads": 1}),
                           ("dropout-2", {"dropout": 2.0}), ("dropout-1", {"dropout": 1.0}),
                           ("dropout-negative", {"dropout": -0.1}),
                           ("lr-not-a-number", {"lr": "x"}), ("lr-negative", {"lr": -1.0}),
                           ("lr-0", {"lr": 0}), ("lr-infinite", {"lr": float("inf")}),
                           ("warmup-negative", {"warmup_steps": -5}),
                           *MISTYPED]),
]


class TestExitCodes:
    @pytest.mark.parametrize("make_argv, code", [m[1:] for m in MALFORMED],
                             ids=[m[0] for m in MALFORMED])
    def test_malformed_input(self, workdir, tmp_path, make_argv, code):
        argv = make_argv(workdir, tmp_path)
        before = _tree(tmp_path)
        assert _exit_code(argv) == code
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("make_argv, name, field", [c[1:] for c in ACCEPTED_BEFORE],
                             ids=[c[0] for c in ACCEPTED_BEFORE])
    def test_record_error_names_file_line_and_field(self, workdir, tmp_path, capsys, make_argv,
                                                    name, field):
        assert main(make_argv(workdir, tmp_path)) == 4
        err = capsys.readouterr().err
        assert err.startswith("format error: ") and f"{tmp_path / name}:1:" in err
        assert f"'{field}'" in err

    def test_k_zero_names_k(self, workdir, tmp_path, capsys):
        assert _exit_code(_infer(workdir, tmp_path, None, "--k", "0")) == 2
        assert "argument --k: expected a positive integer, got '0'" in capsys.readouterr().err

    def test_format_error_names_file_and_line(self, workdir, tmp_path, capsys):
        draws = _write(tmp_path / "x.jsonl", _draw_record(**{"global": "AAAA!"}))
        assert main(_report(workdir, tmp_path, draws)) == 4
        err = capsys.readouterr().err
        assert err.startswith("format error: ") and f"{draws}:1:" in err

    @pytest.mark.parametrize("change, field", [
        (_nan_first_y, "'y' holds nan, not a finite number"),
        (lambda rec: {**rec, "x": "!" + rec["x"][1:]}, "'x' is not base64"),
        (lambda rec: {**rec, "q": 0.5}, "'q' holds 0.5, not an integer"),
    ], ids=["y-nan", "x-not-base64", "q-fraction"])
    def test_dataset_error_names_file_line_and_field(self, workdir, tmp_path, capsys, change,
                                                     field):
        data = _changed_set(workdir, tmp_path, change)
        assert main(_infer(workdir, tmp_path, data)) == 4
        err = capsys.readouterr().err
        assert err.startswith("format error: ") and f"{data}:1:" in err and field in err

    def test_chain_csv_error_names_file_and_parameter(self, workdir, tmp_path, capsys):
        chains = _write(tmp_path / "c.csv", _chains("lp__", "beta[0]", "beta[2]", "sigma_eps"))
        assert main(_report(workdir, tmp_path, chains)) == 4
        err = capsys.readouterr().err
        assert err.startswith("format error: ") and chains in err and "beta[1]" in err

    def test_chain_csv_alpha_gap_names_file_and_entry(self, workdir, tmp_path, capsys):
        ds = mfio.load_datasets(workdir / "sets.jsonl")[0]
        chains = _write(tmp_path / f"{ds.dataset_id}.csv", _chains(
            "beta[0]", "beta[1]", "sigma[0]", "sigma_eps", "alpha[0,0]", "alpha[2,0]"))
        assert main(_report(workdir, tmp_path, chains)) == 4
        err = capsys.readouterr().err
        assert err.startswith("format error: ") and chains in err and "alpha[1,0]" in err

    def test_draws_with_fewer_groups_than_their_set_are_4(self, workdir, tmp_path, capsys):
        ds = mfio.load_datasets(workdir / "sets.jsonl")[0]
        assert ds.m > 3
        chains = _write(tmp_path / f"{ds.dataset_id}.csv", _chains(
            "beta[0]", "beta[1]", "sigma[0]", "sigma_eps", "alpha[0,0]", "alpha[1,0]", "alpha[2,0]"))
        assert main(_report(workdir, tmp_path, chains)) == 4
        err = capsys.readouterr().err
        assert err.startswith("format error: ") and chains in err
        assert f"have 3 groups, the dataset has {ds.m}" in err

    @pytest.mark.parametrize("command, argv", [
        ("infer", ["--checkpoint", "missing.ckpt", "--data", "missing.jsonl"]),
        ("calibrate", ["--checkpoint", "missing.ckpt", "--sets", "missing.jsonl"]),
        ("evaluate", ["--checkpoint", "missing.ckpt", "--data", "missing.jsonl"]),
        ("report", ["--draws", "missing.jsonl", "--data", "missing.jsonl"]),
    ])
    def test_alphas_outside_the_unit_interval_are_2(self, tmp_path, capsys, command, argv):
        argv = [command, *(str(tmp_path / a) if "." in a else a for a in argv),
                "--out", str(tmp_path / "out")]
        # with valid alphas the same line fails later, on the missing files
        assert main([*argv, "--alphas", "0.1,0.5"]) == 4
        for alphas in ("1.5,-0.2", "2", "0", "1", "nan"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--alphas", alphas])
            assert exc.value.code == 2
        assert "(0, 1)" in capsys.readouterr().err

    def test_evaluate_conformal_without_table_is_2(self, workdir, tmp_path):
        code = main(["evaluate", "--checkpoint", str(workdir / "run" / "best.ckpt"),
                     "--data", str(workdir / "sets.jsonl"), "--refine", "conformal",
                     "--out", str(tmp_path / "eval")])
        assert code == 2

    @pytest.mark.parametrize("overrides", [m[1] for m in MISTYPED], ids=[m[0] for m in MISTYPED])
    def test_mistyped_train_config_names_its_field(self, tmp_path, capsys, overrides):
        config = _write(tmp_path / "c.json", json.dumps({**TINY_TRAIN, **overrides}))
        assert main(_train(tmp_path, config)) == 2
        (name,) = overrides
        assert capsys.readouterr().err.startswith(f"configuration error: {name} must be ")

    @pytest.mark.parametrize("refine", ["none", "is"])
    def test_unused_table_names_the_refine_mode(self, workdir, tmp_path, capsys, refine):
        table = _write(tmp_path / "t.json", "{")
        assert main(_infer(workdir, tmp_path, None, "--refine", refine,
                           "--conformal-table", table)) == 2
        assert f"--refine {refine} takes no --conformal-table" in capsys.readouterr().err

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
