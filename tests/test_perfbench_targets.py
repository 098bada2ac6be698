"""The traced benchmark run (`perfbench/run.py --trace 1`) wraps the
functions listed in `perfbench/tracing.py` TARGETS in place; each must be
defined where it is patched, or traced runs fail with a KeyError. Its
per-layer view of the local encoder (embedding spans, the real-row share)
must match what the summary network does."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from helpers import RowCounter
from mixedflow.model import ModelConfig, PosteriorModel, make_batch
from mixedflow.nn.tensor import no_grad
from mixedflow.seeding import substream
from mixedflow.simulate import SimConfig, simulate_dataset
from mixedflow.summary import size_buckets

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
TARGETS = [(owner, attr) for owner, attr, *_ in tracing.TARGETS]


@pytest.mark.parametrize("owner, attr", TARGETS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr in TARGETS])
def test_tracing_target_defined(owner, attr):
    assert attr in vars(owner)


def test_local_spans_and_row_counter_follow_the_local_encoder():
    cfg = ModelConfig(d=2, q=1, width=16, summary_blocks=1, heads=2, flow_blocks=1,
                      flow_hidden=8)
    model = PosteriorModel(cfg, np.random.default_rng(0)).set_training(False)
    sets = [simulate_dataset(2, 1, substream(3, "ragged", i),
                             SimConfig(m_range=(5, 30), n_range=(5, 70), toy=True))
            for i in range(4)]
    batch = make_batch(sets, cfg)
    counter = RowCounter(model.summary.local_encoder.blocks[0])
    model.summary.local_encoder.blocks[0] = counter
    tracer = tracing.Tracer()
    with no_grad(), tracer.op("encode", 0):
        model.encode(batch)
    embeds = [s for s in tracer.spans if s[0] == "summary.embed_rows"]
    assert len(embeds) == len(size_buckets(batch.mask.sum(axis=-1)[batch.group_mask])) > 1
    assert all(tracer.spans[s[3]][0] == tracing.LOCAL_SPAN for s in embeds)
    assert (tracer.local_rows_real, tracer.local_rows_total) == (counter.real, counter.total)
    assert counter.real == batch.mask[batch.group_mask].sum()
