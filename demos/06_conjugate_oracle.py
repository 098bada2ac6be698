"""End-to-end correctness against a closed-form Bayesian oracle.

Restricting the family to a single group, no random effects, a known noise
level and a Gaussian prior on the fixed effects makes the true posterior
Gaussian and exactly computable. A model trained on this family alone
should land its posterior means and spreads on the closed form.
"""

import logging
import pathlib

import numpy as np

from mixedflow.model import load_model
from mixedflow.seeding import substream
from mixedflow.simulate import conjugate_posterior
from mixedflow.train import TrainConfig, make_training_dataset, train

logging.basicConfig(level=logging.INFO, format="%(message)s")   # training progress
OUT = pathlib.Path(__file__).parent / "_artifacts" / "conjugate_demo"

# group size held fixed: summaries are means over observations, so the
# dataset size itself is invisible to the network and posterior widths
# (which scale like 1/sqrt(n)) would be unidentifiable if n varied
cfg = TrainConfig(
    d=2, q=0, budget=16_000, batch_size=32, seed=2, family="conjugate",
    n_range=(40, 40),
    width=48, summary_blocks=2, heads=4, flow_blocks=4, flow_hidden=48,
    eval_every=50, val_sets=128, warmup_steps=100, dropout=0.0,
)
if not (OUT / "best.ckpt").exists():
    print("training on the conjugate family (~4 min) ...")
    train(cfg, OUT)
model, _, _ = load_model(OUT / "best.ckpt")

print("\nmodel vs closed form on fresh test sets:")
errs_mean, errs_std = [], []
for i in range(30):
    ds = make_training_dataset(cfg, i, "demo-test")
    mean, cov = conjugate_posterior(ds)
    draws = model.posterior(ds, k=2000, rng=substream(23, "oracle", i))
    m_hat = draws.global_mean()
    s_hat = draws.global_std.std(axis=0)
    errs_mean.append(np.abs(m_hat - mean))
    errs_std.append(np.abs(s_hat - np.sqrt(np.diag(cov))) / np.sqrt(np.diag(cov)))
    if i < 5:
        print(f"  set {i}: oracle mean {np.round(mean, 3)}  model {np.round(m_hat, 3)}"
              f"  oracle std {np.round(np.sqrt(np.diag(cov)), 3)}  model {np.round(s_hat, 3)}")
print(f"\nmean |mean error|      : {np.mean(errs_mean):.4f}")
print(f"mean relative std error: {np.mean(errs_std):.2%}")
print("(the acceptance run trains longer and passes 0.05 / 20% bars)")
