"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files: while a traced op runs,
the public functions and methods that callers look up are replaced by
wrappers that open and close a span around the original call. A span is
``[name, start, end, parent, op, bytes]``; ``parent`` is the index of the
enclosing span (-1 for an op root) and ``op`` the op id shared by every
span of one op. Nothing is patched outside ``Tracer.op``.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import mixedflow.draws as mfdraws
import mixedflow.io as mfio
import mixedflow.model as mfmodel
import mixedflow.pipeline as pipeline
import mixedflow.refine as refine
import mixedflow.standardize as standardize
import mixedflow.train as mftrain
from mixedflow.flow import CouplingFlow
from mixedflow.nn.layers import EncoderStack
from mixedflow.nn.optim import ScheduleFreeAdamW
from mixedflow.nn.tensor import Tensor
from mixedflow.summary import SummaryNetwork

LOCAL_SPAN = "summary.summarize_local"

# (owner, attribute, span name, record the size of the file in args[0]);
# functions are patched in every namespace a caller reads them from
TARGETS = [
    (pipeline, "infer_one", "pipeline.infer_one", False),
    (pipeline, "intervals_to_data_scale", "pipeline.intervals_to_data_scale", False),
    (pipeline, "apply_calibration", "refine.apply_calibration", False),
    (pipeline, "alternating_refine", "refine.alternating_refine", False),
    (refine, "alternating_refine", "refine.alternating_refine", False),
    (refine, "importance_weights", "refine.importance_weights", False),
    (refine, "calibrate", "refine.calibrate", False),
    (pipeline, "standardize_data", "standardize.standardize_data", False),
    (mfmodel, "standardize_data", "standardize.standardize_data", False),
    (standardize, "standardize_data", "standardize.standardize_data", False),
    (mfdraws, "weighted_quantile", "draws.weighted_quantile", False),
    (mfmodel.PosteriorModel, "posterior", "model.posterior", False),
    (mfmodel.PosteriorModel, "loss_components", "model.loss_components", False),
    (mfmodel, "make_batch", "model.make_batch", False),
    (mftrain, "make_batch", "model.make_batch", False),
    (mftrain, "simulate_dataset", "simulate.simulate_dataset", False),
    (mftrain, "train", "train.train", False),
    (SummaryNetwork, "embed_rows", "summary.embed_rows", False),
    (SummaryNetwork, "summarize_local", LOCAL_SPAN, False),
    (SummaryNetwork, "summarize_global", "summary.summarize_global", False),
    (CouplingFlow, "sample", "flow.sample", False),
    (CouplingFlow, "sample_grouped", "flow.sample_grouped", False),
    (CouplingFlow, "log_prob", "flow.log_prob", False),
    (Tensor, "backward", "nn.backward", False),
    (ScheduleFreeAdamW, "step", "nn.optim.step", False),
    (mfmodel, "save_checkpoint", "nn.checkpoint.save", True),
    (mfmodel, "load_checkpoint", "nn.checkpoint.load", True),
    (mfio, "load_datasets", "io.load_datasets", True),
    (mfio, "save_draws", "io.save_draws", True),
    (mfio, "draws_to_record", "io.draws_to_record", False),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        # rows entering the local encoder stack, after bucketing
        self.local_rows_real = 0
        self.local_rows_total = 0

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self._op, 0])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, sized: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if sized and os.path.exists(args[0]):
                    self.spans[idx][5] = os.path.getsize(args[0])
        return wrapper

    def _count_local_rows(self, fn):
        @functools.wraps(fn)
        def wrapper(stack, x, mask, *args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == LOCAL_SPAN:
                rows = np.asarray(mask, dtype=bool)
                self.local_rows_real += int(rows.sum())
                self.local_rows_total += rows.size
            return fn(stack, x, mask, *args, **kwargs)
        return wrapper

    @contextmanager
    def _patched(self):
        saved = []
        try:
            for owner, attr, name, sized in TARGETS:
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, self._wrap(vars(owner)[attr], name, sized))
            saved.append((EncoderStack, "__call__", EncoderStack.__call__))
            EncoderStack.__call__ = self._count_local_rows(EncoderStack.__call__)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def op(self, kind: str, op_id: int):
        """Trace everything the block calls as op `op_id`, rooted at a
        span named `kind`."""
        self._op = op_id
        with self._patched():
            idx = self._open(kind)
            try:
                yield
            finally:
                self._close(idx)


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the durations of its direct children, seconds."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own
