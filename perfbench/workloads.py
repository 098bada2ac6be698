"""The benchmark's workloads: input fixtures, set-up, one op and its checks.

Inputs are generated from the run's seed with `simulate` (training data
inside `train`, by `train.make_training_dataset` from a seed the run
derives) and written with the package's own writers; set-up reads them
back with `load_model` / `load_datasets`, as a user would. The models are built from a fixed seed and left untrained (flow
heads zero-initialised): every timed layer does dense work whose cost does
not depend on the weight values.

Calls into mixedflow go through module attributes (`pipeline.infer_one`,
`refine.calibrate`, ...), so the traced run's patches are the ones called.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import mixedflow.io as mfio
import mixedflow.model as mfmodel
import mixedflow.pipeline as pipeline
import mixedflow.refine as refine
import mixedflow.train as mftrain
from mixedflow.nn.tensor import no_grad
from mixedflow.seeding import substream
from mixedflow.simulate import SimConfig, simulate_dataset

MODEL_SEED = 20251007          # fixture models do not depend on --seed
REFERENCE = Path(__file__).resolve().parent / "encode_reference.json"
ENCODE_RTOL = ENCODE_ATOL = 1e-4   # float32 tolerance for summaries of order one
WEIGHT_MEAN_TOL = 1e-10            # the acceptance contract's bound on IS weights


def desk_train_config(seed: int) -> mftrain.TrainConfig:
    """Acceptance DESK_CONFIG architecture and batch size, with a budget of
    two steps, one validation pass over 16 sets and one checkpoint write."""
    return mftrain.TrainConfig(
        d=2, q=1, budget=32, batch_size=16, seed=seed, toy=True,
        width=64, summary_blocks=2, heads=4, flow_blocks=4, flow_hidden=64,
        eval_every=2, val_sets=16, warmup_steps=100)


PAPER_CONFIG = mfmodel.ModelConfig(d=5, q=1)
DESK_CONFIG = desk_train_config(0).model_config()
PAPER_SIM = SimConfig(m_range=(30, 30), n_range=(70, 70))


def desk_sets(seed: int, purpose: str, count: int) -> list:
    """Sets from the acceptance desk distribution (toy, d=2, q=1, n_i
    uniform on 5..70), except that set i has m = 5 + 7i mod 26 groups: any
    run of consecutive sets spreads evenly over 5..30, so the op mix, and
    with it the median op time, does not hang on the seed's draw of m."""
    return [simulate_dataset(2, 1, substream(seed, purpose, i),
                             SimConfig(m_range=(m, m), n_range=(5, 70), toy=True),
                             dataset_id=f"{purpose}-{seed}-{i}")
            for i, m in enumerate(5 + (7 * np.arange(count)) % 26)]


def build_model(key: str) -> mfmodel.PosteriorModel:
    cfg = PAPER_CONFIG if key == "paper" else DESK_CONFIG
    return mfmodel.PosteriorModel(cfg, substream(MODEL_SEED, key, "model"))


def reference_batch(cfg: mfmodel.ModelConfig) -> mfmodel.Batch:
    datasets = [simulate_dataset(cfg.d, cfg.q, substream(MODEL_SEED, "reference", i),
                                 SimConfig(m_range=(3, 3), n_range=(4, 9), toy=True))
                for i in range(2)]
    return mfmodel.make_batch(datasets, cfg)


def encode(model: mfmodel.PosteriorModel) -> dict[str, np.ndarray]:
    """Summaries of the fixed reference inputs, in inference mode."""
    model.set_training(False)
    with no_grad():
        s_local, s_global = model.encode(reference_batch(model.cfg))
    return {"local": s_local.data, "global": s_global.data}


def check_encode(model: mfmodel.PosteriorModel, key: str) -> list[str]:
    with open(REFERENCE) as fh:
        ref = json.load(fh)[key]
    problems = []
    for part, got in encode(model).items():
        want = np.asarray(ref[part], dtype=np.float64)
        if got.shape != want.shape or not np.allclose(got, want, rtol=ENCODE_RTOL,
                                                      atol=ENCODE_ATOL):
            problems.append(f"model.encode {key} {part} summary differs from the reference")
    return problems


def fingerprint(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        if a is not None:
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@dataclass
class OpResult:
    seconds: float          # the timed call: infer_one, calibrate or train
    wall: float             # the whole op, writing its outputs included
    datasets: int           # datasets inferred, calibrated or trained on
    fingerprint: str = ""
    ess_share: float | None = None
    problems: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# inference


def _serializable(intervals: dict) -> dict:
    """Interval tables in the form `mixedflow infer` writes them."""
    def rows(table):
        return table and [[list(b) for b in row] for row in table]
    return {str(a): {"global_std": [list(b) for b in iv["global_std"]],
                     "global": [list(b) for b in iv["global"]],
                     "local_std": rows(iv["local_std"]), "local": rows(iv["local"])}
            for a, iv in intervals.items()}


def check_draws(draws, refine_mode: str) -> list[str]:
    problems = []
    k = draws.k
    if draws.global_std.shape != (k, draws.p_global) or not np.all(np.isfinite(draws.global_std)):
        problems.append("global draws not finite with shape (k, p_global)")
    if draws.local_std is None or draws.local_std.shape != (k, draws.m, draws.q) \
            or not np.all(np.isfinite(draws.local_std)):
        problems.append("local draws not finite with shape (k, m, q)")
    if refine_mode in ("is", "both"):
        if draws.weights is None or abs(draws.weights.mean() - 1.0) > WEIGHT_MEAN_TOL:
            problems.append("global IS weights do not have mean one")
        if draws.local_weights is None or \
                np.max(np.abs(draws.local_weights.mean(axis=0) - 1.0)) > WEIGHT_MEAN_TOL:
            problems.append("local IS weights do not have mean one per group")
    return problems


def ess_share(draws) -> float:
    """Kish effective sample size of the global weights over k."""
    if draws.weights is None:
        return 1.0
    w = draws.weights
    return float(w.sum() ** 2 / (w ** 2).sum() / w.size)


class InferenceWorkload:
    """A closed loop of `infer_one` calls, each writing its draw record."""

    model_key = ""
    refine_mode = "none"
    k = 1000
    warmup_ops = 1

    def build(self, work: Path, seed: int):
        mfmodel.save_model(work / "model.ckpt", build_model(self.model_key))
        mfio.save_datasets(work / "sets.jsonl", self.make_sets(seed))

    def make_sets(self, seed: int) -> list:
        raise NotImplementedError

    def load(self, work: Path) -> dict:
        model, _, _ = mfmodel.load_model(work / "model.ckpt")
        return {"work": work, "model": model,
                "sets": mfio.load_datasets(work / "sets.jsonl"), "table": None}

    def check_model(self, state: dict) -> list[str]:
        return check_encode(state["model"], self.model_key)

    def prepare(self, state: dict, seed: int) -> OpResult | None:
        """Work the op loop needs first, timed as an op of its own."""
        return None

    def op(self, state: dict, seed: int, index: int) -> OpResult:
        sets = state["sets"]
        ds = sets[index % len(sets)]
        t0 = perf_counter()
        draws, intervals = pipeline.infer_one(
            state["model"], ds, self.k, substream(seed, "infer", index),
            refine=self.refine_mode, table=state["table"])
        t1 = perf_counter()
        record = mfio.draws_to_record(draws, intervals=_serializable(intervals))
        mfio.save_draws(state["work"] / "draws.jsonl", [record])
        t2 = perf_counter()
        return OpResult(t1 - t0, t2 - t0, 1,
                        fingerprint(draws.global_std, draws.local_std, draws.log_q_global,
                                    draws.log_q_local, draws.weights, draws.local_weights),
                        ess_share(draws), check_draws(draws, self.refine_mode))


class PaperAmortized(InferenceWorkload):
    name = "paper-amortized"
    model_key = "paper"
    op_name = "infer_one(refine=none, k=1000), paper size"

    def make_sets(self, seed):
        return [simulate_dataset(5, 1, substream(seed, "paper", i), PAPER_SIM,
                                 dataset_id=f"paper-{seed}-{i}") for i in range(16)]


class DeskRefined(InferenceWorkload):
    name = "desk-refined"
    model_key = "desk"
    refine_mode = "both"
    op_name = "infer_one(refine=both, k=1000), desk sets"
    calibration_sets = 26   # one per group count in 5..30
    calibration_k = 500

    def make_sets(self, seed):
        return desk_sets(seed, "test", 64)

    def build(self, work, seed):
        super().build(work, seed)
        mfio.save_datasets(work / "cal.jsonl", desk_sets(seed, "cal", self.calibration_sets))

    def load(self, work):
        state = super().load(work)
        state["cal"] = mfio.load_datasets(work / "cal.jsonl")
        return state

    def prepare(self, state, seed):
        t0 = perf_counter()
        table = refine.calibrate(state["model"], state["cal"], k=self.calibration_k,
                                 seed=seed, refine="is")
        seconds = perf_counter() - t0
        state["table"] = table
        values = np.array([v for adj in table.adjustments.values() for v in adj])
        problems = [] if np.all(np.isfinite(values)) else ["conformal table not finite"]
        return OpResult(seconds, seconds, len(state["cal"]), fingerprint(values),
                        problems=problems)


# ---------------------------------------------------------------------------
# training


class DeskTrain:
    """A closed loop of short `train` runs, each on its own data seed."""

    name = "desk-train"
    op_name = "train(desk architecture, batch 16, 2 steps, 16 val sets)"
    # the heap grows over the first few runs of about 2 GB each (page
    # faults per run fall from ~300k to tens of thousands): time the
    # steady state
    warmup_ops = 5

    def build(self, work: Path, seed: int):
        mfmodel.save_model(work / "model.ckpt", build_model("desk"))

    def load(self, work: Path) -> dict:
        return {"work": work}

    def check_model(self, state: dict) -> list[str]:
        model, _, _ = mfmodel.load_model(state["work"] / "model.ckpt")
        return check_encode(model, "desk")

    def prepare(self, state, seed):
        return None

    def op(self, state: dict, seed: int, index: int) -> OpResult:
        cfg = desk_train_config(int(substream(seed, "train", index).integers(2 ** 31)))
        out = state["work"] / "train"
        shutil.rmtree(out, ignore_errors=True)
        t0 = perf_counter()
        result = mftrain.train(cfg, out)
        seconds = perf_counter() - t0
        with open(result.curve_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        losses = [float(r[c]) for r in rows for c in ("global_loss", "local_loss", "val_loss")]
        problems = []
        if not rows or not all(math.isfinite(x) for x in losses + [result.best_val]):
            problems.append("training ended without a finite curve row")
        return OpResult(seconds, seconds, cfg.budget,
                        f"{fingerprint(np.array(losses))}:{result.checkpoint_id}",
                        problems=problems)


WORKLOADS = {wl.name: wl for wl in (PaperAmortized(), DeskRefined(), DeskTrain())}
