"""Train a small posterior model on the toy family (d=2, q=1: intercept,
one standard-normal slope, a random intercept, tightly bounded priors).

Three hundred steps are enough to watch the validation loss fall well
below its initialization value. The full desk-scale run used by the
acceptance suite is the same call with budget=20000 and width 64.
"""

import logging
import pathlib
import time

from mixedflow.train import TrainConfig, train

logging.basicConfig(level=logging.INFO, format="%(message)s")   # training progress
OUT = pathlib.Path(__file__).parent / "_artifacts" / "toy-demo-48"

cfg = TrainConfig(
    d=2, q=1, budget=4800, batch_size=16, seed=1, toy=True,
    width=48, summary_blocks=2, heads=4, flow_blocks=4, flow_hidden=48,
    eval_every=50, val_sets=128, warmup_steps=50,
)

t0 = time.time()
result = train(cfg, OUT)
print(f"\ntrained {result.steps_run} steps in {time.time() - t0:.0f}s")
print(f"best validation loss {result.best_val:.3f}")
print(f"checkpoint: {result.best_path}")
print(f"curve:      {result.curve_path}")
print("\ncurve tail:")
print("\n".join(pathlib.Path(result.curve_path).read_text().strip().splitlines()[-4:]))
