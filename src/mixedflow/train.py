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
import logging
import time
from dataclasses import dataclass, asdict
from io import StringIO
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, NumericError
from .io import write_file
from .model import Batch, ModelConfig, PosteriorModel, load_model, make_batch, save_model
from .nn.optim import ScheduleFreeAdamW
from .nn.tensor import no_grad
from .seeding import substream
from .simulate import (HierDataset, SimConfig, permute_columns, simulate_conjugate_dataset,
                       simulate_dataset)

log = logging.getLogger(__name__)

__all__ = ["TrainConfig", "TrainResult", "train", "make_training_dataset",
           "global_loss", "local_loss", "total_loss"]


@dataclass
class TrainConfig:
    d: int
    q: int
    budget: int = 100_000          # total simulated datasets
    batch_size: int = 32
    seed: int = 0
    # architecture
    width: int = 128
    summary_blocks: int = 4
    heads: int = 8
    flow_blocks: int = 4
    flow_hidden: int = 128
    dropout: float = 0.01
    dtype: str = "float32"
    # data
    toy: bool = False
    family: str = "full"           # "full" | "conjugate"
    m_range: tuple[int, int] = (5, 30)
    n_range: tuple[int, int] = (5, 70)
    permute_slopes: bool = True
    standardize: bool = True
    # optimization (defaults are conventional choices, nothing prescribes them);
    # "schedule_free" is the only optimizer
    optimizer: str = "schedule_free"
    lr: float = 1e-3
    weight_decay: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    warmup_steps: int = 200
    clip_norm: float | None = 10.0
    # evaluation / stopping
    eval_every: int = 100
    val_sets: int = 512
    patience: int = 20             # evaluations without improvement
    divergence_factor: float = 10.0
    divergence_steps: int = 1000

    def __post_init__(self):
        if self.budget < self.batch_size:
            raise ConfigError("dataset budget is smaller than one batch")
        if self.family not in ("full", "conjugate"):
            raise ConfigError(f"unknown training family {self.family!r}")
        if self.optimizer != "schedule_free":
            raise ConfigError(f"unknown optimizer kind {self.optimizer!r}")
        if self.family == "conjugate":
            # single group, no random effects, known noise, raw scale
            self.q = 0
            self.standardize = False

    @property
    def infer_noise(self) -> bool:
        return self.family != "conjugate"

    @property
    def steps(self) -> int:
        return self.budget // self.batch_size

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            d=self.d, q=self.q, width=self.width, summary_blocks=self.summary_blocks,
            heads=self.heads, flow_blocks=self.flow_blocks, flow_hidden=self.flow_hidden,
            dropout=self.dropout, infer_noise=self.infer_noise,
            standardize=self.standardize, dtype=self.dtype)

    def sim_config(self) -> SimConfig:
        return SimConfig(m_range=self.m_range, n_range=self.n_range, toy=self.toy)


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
    ds_id = f"{purpose}-{cfg.seed}-{index}"
    if cfg.family == "conjugate":
        return simulate_conjugate_dataset(cfg.d, rng, n_range=cfg.n_range, dataset_id=ds_id)
    ds = simulate_dataset(cfg.d, cfg.q, rng, cfg.sim_config(), dataset_id=ds_id)
    if cfg.permute_slopes and cfg.d > 2:
        perm = np.arange(cfg.d)
        if cfg.q > 1:
            perm[1:cfg.q] = 1 + rng.permutation(cfg.q - 1)
        if cfg.d - cfg.q > 1:
            perm[cfg.q:] = cfg.q + rng.permutation(cfg.d - cfg.q)
        ds = permute_columns(ds, perm)
    return ds


# spec-surface wrappers over the model's loss pieces -------------------------

def global_loss(model: PosteriorModel, batch: Batch,
                rng: np.random.Generator | None = None) -> float:
    _, s_global = model.encode(batch, rng)
    return float(model.global_nll(batch, s_global, rng).mean().item())


def local_loss(model: PosteriorModel, batch: Batch,
               rng: np.random.Generator | None = None) -> float:
    s_local, _ = model.encode(batch, rng)
    return float(model.local_nll(batch, s_local, rng).mean().item())


def total_loss(model: PosteriorModel, batch: Batch,
               rng: np.random.Generator | None = None) -> float:
    return float(model.loss(batch, rng).item())


def _validation_loss(model: PosteriorModel, opt: ScheduleFreeAdamW,
                     val_batches: list[Batch]) -> float:
    """Mean per-dataset loss at the optimizer's averaged iterate; leaves the
    model and optimizer in training mode."""
    opt.eval_mode()
    model.set_training(False)
    total, count = 0.0, 0
    try:
        with no_grad():
            for batch in val_batches:
                g, l = model.loss_components(batch)
                total += float((g + l).sum().item())
                count += batch.size
    finally:
        opt.train_mode()
        model.set_training(True)
    return total / count


def train(cfg: TrainConfig, out_dir, resume: bool = False,
          progress: bool = False) -> TrainResult:
    """Run the training loop; writes best/last checkpoints and a CSV curve
    (step, global loss, local loss, validation loss) into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    best_path, last_path = out / "best.ckpt", out / "last.ckpt"
    curve_path = out / "curve.csv"

    mcfg = cfg.model_config()
    start_step = 0
    best_val = float("inf")
    curve: list[tuple[int, float, float, float]] = []
    if resume:
        if not last_path.exists():
            raise ConfigError(f"cannot resume: {last_path} does not exist")
        model, manifest, opt_arrays = load_model(last_path)
        if not opt_arrays:
            raise ConfigError("resume checkpoint carries no optimizer state")
        start_step = int(manifest["step"])
        best_val = float(manifest.get("best_val", float("inf")))
        if curve_path.exists():
            try:
                with open(curve_path, encoding="utf-8") as fh:
                    for row in csv.DictReader(fh):
                        curve.append((int(row["step"]), float(row["global_loss"]),
                                      float(row["local_loss"]), float(row["val_loss"])))
            except (ValueError, KeyError, TypeError) as exc:
                raise DataFormatError(f"{curve_path}: bad training curve "
                                      f"({type(exc).__name__}: {exc})") from None
    else:
        model, opt_arrays = PosteriorModel(mcfg, substream(cfg.seed, "init")), None
    opt = ScheduleFreeAdamW(
        list(model.named_parameters()), lr=cfg.lr, betas=(cfg.beta1, cfg.beta2),
        eps=cfg.eps, weight_decay=cfg.weight_decay, warmup_steps=cfg.warmup_steps,
        clip_norm=cfg.clip_norm)
    if opt_arrays:
        opt.load_state(opt_arrays)

    log.info("building %d validation datasets", cfg.val_sets)
    val_sets = [make_training_dataset(cfg, i, "val") for i in range(cfg.val_sets)]
    val_batches = [make_batch(val_sets[i:i + 32], mcfg)
                   for i in range(0, len(val_sets), 32)]

    initial_loss: float | None = None
    divergent_streak = 0
    stale_evals = 0
    stopped_early = False
    t_start = time.time()

    step = start_step
    for step in range(start_step, cfg.steps):
        datasets = [make_training_dataset(cfg, step * cfg.batch_size + j)
                    for j in range(cfg.batch_size)]
        batch = make_batch(datasets, mcfg)
        opt.train_mode()
        model.set_training(True)
        model.zero_grad()
        drop_rng = substream(cfg.seed, "dropout", step)
        g, l = model.loss_components(batch, drop_rng)
        loss = (g + l).mean()
        loss_val = float(loss.item())
        if not np.isfinite(loss_val):
            log.warning("step %d: non-finite loss, batch skipped", step)
            continue
        loss.backward()
        opt.step()
        if model.local_flow is not None and model.last_local_conditioning != "truth":
            raise NumericError("teacher forcing violated: local flow saw inferred globals")

        if initial_loss is None:
            initial_loss = loss_val
        if loss_val > cfg.divergence_factor * max(abs(initial_loss), 1.0):
            divergent_streak += 1
            if divergent_streak >= cfg.divergence_steps:
                raise NumericError(
                    f"training diverged: loss {loss_val:.3g} stayed above "
                    f"{cfg.divergence_factor} x initial ({initial_loss:.3g}) for "
                    f"{divergent_streak} steps")
        else:
            divergent_streak = 0

        if (step + 1) % cfg.eval_every == 0 or step + 1 == cfg.steps:
            val = _validation_loss(model, opt, val_batches)
            curve.append((step + 1, float(g.mean().item()), float(l.mean().item()), val))
            _write_curve(curve_path, curve)
            improved = val < best_val
            if improved:
                best_val = val
                stale_evals = 0
            else:
                stale_evals += 1
            meta = {"step": step + 1, "seed": cfg.seed, "best_val": best_val,
                    "train_config": asdict(cfg)}
            opt.eval_mode()
            if improved:
                save_model(best_path, model, meta)
            save_model(last_path, model, meta, opt_arrays=opt.state_arrays())
            opt.train_mode()
            if progress:
                rate = (step + 1 - start_step) / max(time.time() - t_start, 1e-9)
                print(f"step {step + 1}/{cfg.steps} train {loss_val:.3f} "
                      f"val {val:.3f} best {best_val:.3f} ({rate:.2f} steps/s)",
                      flush=True)
            if stale_evals >= cfg.patience:
                log.info("no validation improvement in %d evaluations, stopping", stale_evals)
                stopped_early = True
                break

    if not best_path.exists():  # budget smaller than one eval interval
        opt.eval_mode()
        save_model(best_path, model, {"step": step + 1, "seed": cfg.seed,
                                      "best_val": best_val, "train_config": asdict(cfg)})
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
