"""End-to-end training of the summary + flow networks.

Fresh datasets are simulated for every batch (the model amortizes over the
whole generative distribution, so there is no epoch bookkeeping and no
overfitting to a fixed corpus); a fixed validation set is drawn once at
run start. Every random stream is keyed by (seed, purpose, index), which
makes runs deterministic and resume-exact regardless of scheduling.

The local loss is teacher-forced on the true global parameters and summed
over groups; the total per-dataset loss is that sum plus the global
negative log density, averaged over the batch.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import time
from dataclasses import asdict, dataclass, fields
from io import StringIO
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, NumericError
from .io import write_file
from .model import (Architecture, Batch, ModelConfig, PosteriorModel, load_model, make_batch,
                    save_model)
from .nn.optim import ScheduleFreeAdamW
from .nn.tensor import Tensor, no_grad
from .seeding import substream
from .simulate import HierDataset, SimConfig, permute_columns, simulate_dataset

log = logging.getLogger(__name__)

__all__ = ["TrainConfig", "TrainResult", "train", "make_training_dataset", "train_code"]

# the package sources whose bytes decide what a training run computes;
# `train_code` in every checkpoint manifest train writes is their sha256
TRAIN_SOURCES = ("train.py", "model.py", "summary.py", "flow.py", "simulate.py",
                 "standardize.py", "seeding.py", "nn/tensor.py", "nn/layers.py", "nn/optim.py")

# divergence guard: stop once the loss stays above DIVERGENCE_FACTOR times
# the first step's (at least 1) for DIVERGENCE_STEPS steps in a row
DIVERGENCE_FACTOR = 10.0
DIVERGENCE_STEPS = 1000


@dataclass(kw_only=True)
class TrainConfig(Architecture, SimConfig):
    """A run: the model's sizes, the simulator's settings and the run's own.
    The conjugate family trains a known-noise model without random effects."""

    d: int
    q: int
    budget: int = 100_000          # total simulated datasets
    batch_size: int = 32
    seed: int = 0
    # optimization (conventional choices, nothing prescribes them); the other
    # hyperparameters are the module constants of nn/optim.py
    lr: float = 1e-3
    warmup_steps: int = 200
    # evaluation / stopping
    eval_every: int = 100
    val_sets: int = 512
    patience: int = 20             # evaluations without improvement
    LOW = {"budget": 1, "batch_size": 1, "eval_every": 1, "val_sets": 1, "patience": 1,
           "warmup_steps": 0}   # the run's; ModelConfig bounds the rest

    def __post_init__(self):
        super().__post_init__()   # SimConfig's: every field's type, the bounds, the family
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr!r}")
        if self.budget < self.batch_size:
            raise ConfigError("dataset budget is smaller than one batch")
        if self.family == "conjugate":
            self.q = 0  # a single group without random effects
        self.model_config()   # the model's own checks run here, before any run starts

    @property
    def steps(self) -> int:
        return self.budget // self.batch_size

    def model_config(self) -> ModelConfig:
        return ModelConfig(d=self.d, q=self.q, infer_noise=self.family != "conjugate",
                           **{f.name: getattr(self, f.name) for f in fields(Architecture)})


@dataclass
class TrainResult:
    best_path: str
    last_path: str
    curve_path: str
    best_val: float
    steps_run: int
    checkpoint_id: str
    stopped_early: bool = False


def make_training_dataset(cfg: TrainConfig, index: int, purpose: str = "data") -> HierDataset:
    """Dataset `index` of the stream; reproducible independent of order."""
    rng = substream(cfg.seed, purpose, index)
    ds = simulate_dataset(cfg.d, cfg.q, rng, cfg, dataset_id=f"{purpose}-{cfg.seed}-{index}")
    if cfg.family == "full" and cfg.d > 2:
        perm = np.arange(cfg.d)
        if cfg.q > 1:
            perm[1:cfg.q] = 1 + rng.permutation(cfg.q - 1)
        if cfg.d - cfg.q > 1:
            perm[cfg.q:] = cfg.q + rng.permutation(cfg.d - cfg.q)
        ds = permute_columns(ds, perm)
    return ds


def train_code(root=Path(__file__).parent) -> str:
    """sha256 over the TRAIN_SOURCES under the package directory `root`,
    each as its name, a NUL and its bytes."""
    h = hashlib.sha256()
    for name in TRAIN_SOURCES:
        h.update(name.encode() + b"\0")
        h.update((Path(root) / name).read_bytes())
    return h.hexdigest()


def _validation_loss(model: PosteriorModel, val_batches: list[Batch]) -> float:
    """Mean per-dataset loss at the parameters the model holds."""
    total, count = 0.0, 0
    with no_grad():
        for batch in val_batches:
            g, l = model.loss_components(batch)
            total += float((g + l).sum().item())
            count += batch.size
    return total / count


def train(cfg: TrainConfig, out_dir, resume: bool = False) -> TrainResult:
    """Run the training loop; writes best/last checkpoints and a CSV curve
    (step, global loss, local loss, validation loss) into out_dir. Each
    evaluation logs one progress line to `mixedflow.train` at INFO.

    Both manifests record the hash of the training code (`train_code`).
    Every evaluation records in both manifests whether the run stopped on
    patience (`stopped_early`) and whether it is over (`complete`: budget
    used or patience reached); `last.ckpt` holds the record of the run.
    `resume` continues from `last.ckpt` with the budget and patience cfg
    leaves, so resuming a complete run runs nothing; a cfg that differs from
    the run's recorded one in anything but budget is a ConfigError."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    best_path, last_path = out / "best.ckpt", out / "last.ckpt"
    curve_path = out / "curve.csv"

    mcfg = cfg.model_config()
    code = train_code()
    start_step, best_val, stale_evals = 0, float("inf"), 0
    curve: list[tuple[int, float, float, float]] = []
    if resume:
        if not last_path.exists():
            raise ConfigError(f"cannot resume: {last_path} does not exist")
        model, manifest, opt_arrays = load_model(last_path)
        if not opt_arrays:
            raise ConfigError("resume checkpoint carries no optimizer state")
        recorded, current = manifest.get("train_config", {}), json.loads(json.dumps(asdict(cfg)))
        changed = sorted(k for k in recorded.keys() | current.keys()
                         if k != "budget" and recorded.get(k) != current.get(k))
        if changed:
            raise ConfigError(f"cannot resume {last_path}: its run was trained with other "
                              f"{', '.join(changed)} (only budget may change)")
        start_step = int(manifest["step"])
        best = manifest.get("best_val")   # null: no finite validation loss yet
        best_val = float("inf") if best is None else float(best)
        stale_evals = int(manifest.get("stale_evals", 0))
        if curve_path.exists():
            try:
                with open(curve_path, encoding="utf-8") as fh:
                    rows = [(int(row["step"]), float(row["global_loss"]),
                             float(row["local_loss"]), float(row["val_loss"]))
                            for row in csv.DictReader(fh)]
                # the curve is written before the checkpoints: drop any row
                # of an evaluation whose checkpoint was never written
                curve = [row for row in rows if row[0] <= start_step]
            except (ValueError, KeyError, TypeError) as exc:
                raise DataFormatError(f"{curve_path}: bad training curve "
                                      f"({type(exc).__name__}: {exc})") from None
    else:
        model, opt_arrays = PosteriorModel(mcfg, substream(cfg.seed, "init")), None
    opt = ScheduleFreeAdamW(list(model.named_parameters()), lr=cfg.lr,
                            warmup_steps=cfg.warmup_steps)
    if opt_arrays:
        opt.load_state(opt_arrays)

    log.info("building %d validation datasets", cfg.val_sets)
    val_sets = [make_training_dataset(cfg, i, "val") for i in range(cfg.val_sets)]
    val_batches = [make_batch(val_sets[i:i + 32], mcfg)
                   for i in range(0, len(val_sets), 32)]

    initial_loss: float | None = None
    divergent_streak, skipped = 0, 0
    stopped_early = stale_evals >= cfg.patience
    t_start = time.time()

    # parameters at the gradient point y before the first step: a fresh
    # optimizer holds x = z, and beta1*x + (1-beta1)*z is not bitwise x
    opt.train_mode()
    model.set_training(True)
    step = start_step - 1  # a complete run resumes to zero steps
    for step in range(start_step, start_step if stopped_early else cfg.steps):
        datasets = [make_training_dataset(cfg, step * cfg.batch_size + j)
                    for j in range(cfg.batch_size)]
        batch = make_batch(datasets, mcfg)
        model.zero_grad()
        drop_rng = substream(cfg.seed, "dropout", step)
        g, l = model.loss_components(batch, drop_rng)
        loss = (g + l).mean()
        g, l = Tensor(g.data), Tensor(l.data)   # the curve reads values only; the graph is loss's
        loss_val = float(loss.item())
        if not np.isfinite(loss_val):
            log.warning("step %d: non-finite loss, batch skipped", step)
            skipped += 1
        else:
            loss.backward()
            opt.step()
            if initial_loss is None:
                initial_loss = loss_val
            if loss_val > DIVERGENCE_FACTOR * max(abs(initial_loss), 1.0):
                divergent_streak += 1
                if divergent_streak >= DIVERGENCE_STEPS:
                    raise NumericError(
                        f"training diverged: loss {loss_val:.3g} stayed above "
                        f"{DIVERGENCE_FACTOR} x initial ({initial_loss:.3g}) for "
                        f"{divergent_streak} steps")
            else:
                divergent_streak = 0
        del loss   # a skipped step's graph was never swept: drop it before the next batch

        # a skipped batch still evaluates on schedule, so the last step is recorded
        if (step + 1) % cfg.eval_every == 0 or step + 1 == cfg.steps:
            # validation and both checkpoints read the averaged iterate x, so
            # one window holds x in the parameters for all three; the next
            # step needs y back, dropout included
            opt.eval_mode()
            model.set_training(False)
            val = _validation_loss(model, val_batches)
            curve.append((step + 1, float(g.mean().item()), float(l.mean().item()), val))
            _write_curve(curve_path, curve)
            improved = val < best_val
            if improved:
                best_val = val
                stale_evals = 0
            else:
                stale_evals += 1
            stopped_early = stale_evals >= cfg.patience
            meta = {"step": step + 1, "seed": cfg.seed,
                    "best_val": best_val if np.isfinite(best_val) else None,
                    "stale_evals": stale_evals, "stopped_early": stopped_early,
                    "complete": stopped_early or step + 1 == cfg.steps,
                    "train_config": asdict(cfg), "train_code": code}
            if improved or best_val == float("inf"):  # no finite validation loss yet
                save_model(best_path, model, meta)
            save_model(last_path, model, meta, opt_arrays=opt.state_arrays())
            opt.train_mode()
            model.set_training(True)
            rate = (step + 1 - start_step) / max(time.time() - t_start, 1e-9)
            log.info("step %d/%d train %.3f val %.3f best %.3f (%.2f steps/s); last grad "
                     "norm %.3g before clipping, %d steps rejected, %d batches skipped",
                     step + 1, cfg.steps, loss_val, val, best_val, rate, opt.grad_norm,
                     opt.rejected, skipped)
            if stopped_early:
                log.info("no validation improvement in %d evaluations, stopping", stale_evals)
                break

    from .nn.checkpoint import checkpoint_id
    return TrainResult(
        best_path=str(best_path), last_path=str(last_path), curve_path=str(curve_path),
        best_val=best_val, steps_run=step + 1 - start_step,
        checkpoint_id=checkpoint_id(best_path), stopped_early=stopped_early)


def _write_curve(path, rows):
    buf = StringIO()
    writer = csv.writer(buf)
    writer.writerow(["step", "global_loss", "local_loss", "val_loss"])
    writer.writerows(rows)
    write_file(path, buf.getvalue())
