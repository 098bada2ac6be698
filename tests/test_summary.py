"""Permutation-invariance contracts of the hierarchical summaries, their
independence from padding contents, and the size-bucketed local encoding
against the unpadded per-group oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import layers_oracle as oracle
from helpers import RowCounter, rel_err
from mixedflow.errors import ConfigError
from mixedflow.model import make_batch
from mixedflow.nn.tensor import Tensor, no_grad
from mixedflow.summary import BUCKET_ROWS, SummaryConfig, SummaryNetwork, size_buckets
from mixedflow.train import TrainConfig, make_training_dataset


CFG = SummaryConfig(width=16, blocks=2, heads=2, dropout=0.0)


def make_net(d=2, seed=0):
    return SummaryNetwork(d, CFG, np.random.default_rng(seed), dtype=np.float64)


def random_batch(seed=1, b=2, m=4, n=6, d=2, phantom=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(b, m, n, d))
    Z = X.copy()
    y = rng.normal(size=(b, m, n))
    mask = rng.random((b, m, n)) < 0.8
    mask[:, :, 0] = True  # no empty groups
    group_mask = np.ones((b, m), dtype=bool)
    if phantom:
        group_mask[:, -1] = False
        mask[:, -1] = False
    X *= mask[..., None]
    Z *= mask[..., None]
    y *= mask
    return X, Z, y, mask, group_mask


class TestEmbedding:
    def test_zero_row_embeds_to_bias(self):
        net = make_net()
        net.embed.b.data = np.random.default_rng(99).normal(size=CFG.width)
        X, Z, y, mask, gm = random_batch()
        emb = net.embed_rows(np.zeros_like(X), np.zeros_like(Z), np.zeros_like(y), mask)
        expected = np.tile(net.embed.b.data, (int(mask.sum()), 1))
        np.testing.assert_allclose(emb.data[mask], expected, atol=1e-12)

    def test_padded_rows_embed_to_zero(self):
        net = make_net()
        X, Z, y, mask, gm = random_batch()
        emb = net.embed_rows(X, Z, y, mask)
        np.testing.assert_array_equal(emb.data[~mask], 0.0)

    def test_wrong_d_rejected(self):
        net = make_net(d=2)
        X, Z, y, mask, gm = random_batch(d=3)
        with pytest.raises(ConfigError):
            net.embed_rows(X, Z, y, mask)


class TestLocalSummaries:
    def test_within_group_permutation_invariance(self):
        net = make_net()
        X, Z, y, mask, gm = random_batch(seed=2)
        base = net(X, Z, y, mask, gm)[0].data
        rng = np.random.default_rng(3)
        for _ in range(5):
            Xp, Zp, yp, maskp = X.copy(), Z.copy(), y.copy(), mask.copy()
            for b in range(X.shape[0]):
                for i in range(X.shape[1]):
                    perm = rng.permutation(X.shape[2])
                    Xp[b, i] = Xp[b, i][perm]
                    Zp[b, i] = Zp[b, i][perm]
                    yp[b, i] = yp[b, i][perm]
                    maskp[b, i] = maskp[b, i][perm]
            out = net(Xp, Zp, yp, maskp, gm)[0].data
            np.testing.assert_allclose(out, base, atol=1e-5)

    def test_single_observation_group(self):
        net = make_net()
        rng = np.random.default_rng(4)
        X = rng.normal(size=(1, 1, 1, 2))
        y = rng.normal(size=(1, 1, 1))
        emb = net.embed_rows(X, X.copy(), y, np.ones((1, 1, 1), bool))
        s = net.summarize_local(X, X.copy(), y, np.ones((1, 1, 1), bool))
        enc = net.local_encoder(emb.reshape(1, 1, CFG.width), np.ones((1, 1), bool))
        np.testing.assert_allclose(s.data[0, 0], enc.data[0, 0], atol=1e-12)

    def test_duplicating_observations_keeps_mean(self):
        net = make_net()
        rng = np.random.default_rng(5)
        n = 4
        X = rng.normal(size=(1, 1, n, 2))
        y = rng.normal(size=(1, 1, n))
        mask = np.ones((1, 1, n), bool)
        s1 = net(X, X.copy(), y, mask)[0].data
        X2 = np.concatenate([X, X], axis=2)
        y2 = np.concatenate([y, y], axis=2)
        mask2 = np.ones((1, 1, 2 * n), bool)
        s2 = net(X2, X2.copy(), y2, mask2)[0].data
        np.testing.assert_allclose(s2, s1, atol=1e-5)

    def test_empty_group_rejected_without_group_mask(self):
        net = make_net()
        X, Z, y, mask, gm = random_batch(seed=6)
        mask[0, 1] = False
        with pytest.raises(ConfigError):
            net.summarize_local(X, Z, y, mask)


class TestGlobalSummary:
    def test_group_permutation_invariance(self):
        net = make_net()
        X, Z, y, mask, gm = random_batch(seed=7)
        base = net(X, Z, y, mask, gm)[1].data
        rng = np.random.default_rng(8)
        for _ in range(5):
            perm = rng.permutation(X.shape[1])
            out = net(X[:, perm], Z[:, perm], y[:, perm], mask[:, perm], gm)[1].data
            np.testing.assert_allclose(out, base, atol=1e-5)

    def test_single_group(self):
        net = make_net()
        rng = np.random.default_rng(9)
        s_local = Tensor(rng.normal(size=(1, 1, CFG.width)))
        out = net.summarize_global(s_local)
        enc = net.global_encoder(s_local, np.ones((1, 1), bool))
        np.testing.assert_allclose(out.data[0], enc.data[0, 0], atol=1e-12)

    def test_phantom_groups_do_not_matter(self):
        net = make_net()
        X, Z, y, mask, gm = random_batch(seed=10, phantom=True)
        s_local, s_global = net(X, Z, y, mask, gm)
        # rewrite phantom-group contents wildly
        X2, Z2, y2 = X.copy(), Z.copy(), y.copy()
        X2[:, -1] = 37.0
        Z2[:, -1] = -11.0
        y2[:, -1] = 5.0
        s_local2, s_global2 = net(X2, Z2, y2, mask, gm)
        np.testing.assert_allclose(s_global2.data, s_global.data, atol=1e-10)
        np.testing.assert_allclose(s_local2.data[:, :-1], s_local.data[:, :-1], atol=1e-10)

    def test_pad_content_randomization(self):
        net = make_net()
        X, Z, y, mask, gm = random_batch(seed=11)
        base_local, base_global = net(X, Z, y, mask, gm)
        rng = np.random.default_rng(12)
        X2, Z2, y2 = X.copy(), Z.copy(), y.copy()
        X2[~mask] = rng.normal(size=(~mask).sum() * 2).reshape(-1, 2) * 100
        Z2[~mask] = rng.normal(size=(~mask).sum() * 2).reshape(-1, 2) * 100
        y2[~mask] = rng.normal(size=(~mask).sum()) * 100
        out_local, out_global = net(X2, Z2, y2, mask, gm)
        np.testing.assert_allclose(out_local.data, base_local.data, atol=1e-10)
        np.testing.assert_allclose(out_global.data, base_global.data, atol=1e-10)


# the acceptance desk distribution and architecture, without dropout
DESK = TrainConfig(d=2, q=1, budget=320, batch_size=16, seed=101, toy=True,
                   width=64, summary_blocks=2, heads=4, dropout=0.0)


def desk_net(width=DESK.width):
    cfg = SummaryConfig(width, DESK.summary_blocks, DESK.heads, dropout=0.0)
    return SummaryNetwork(DESK.d, cfg, np.random.default_rng(13))


def desk_batch(start, count=6):
    b = make_batch([make_training_dataset(DESK, start + j) for j in range(count)],
                   DESK.model_config())
    return b.X, b.Z, b.y, b.mask, b.group_mask


def sized_batch(sizes, seed=0):
    """float32 arrays (d=2, q=1) with groups of the given (B, m) sizes,
    real rows first; size 0 is a phantom group."""
    sizes = np.asarray(sizes)
    rng = np.random.default_rng(seed)
    mask = np.arange(sizes.max()) < sizes[..., None]
    X = rng.normal(size=mask.shape + (2,)) * mask[..., None]
    Z = X * [1.0, 0.0]
    y = rng.normal(size=mask.shape) * mask
    return X.astype(np.float32), Z.astype(np.float32), y.astype(np.float32), mask, sizes > 0


def rows_last(X, Z, y, mask, gm):
    """The same groups with their real rows at the end of the row axis."""
    return X[:, :, ::-1], Z[:, :, ::-1], y[:, :, ::-1], mask[:, :, ::-1], gm


BATCHES = {
    "desk-phantom": lambda: desk_batch(0),
    "size-one": lambda: sized_batch([[1, 1, 7, 1, 2], [1, 30, 1, 0, 0]]),
    "rows-last": lambda: rows_last(*sized_batch([[1, 1, 7, 1, 2], [1, 30, 1, 0, 0]])),
    "equal": lambda: sized_batch(np.full((3, 5), 9)),
    "many-sizes": lambda: sized_batch(np.random.default_rng(1).permutation(
        np.arange(1, 41)).reshape(2, 20)),
}


def _local(net, X, Z, y, mask, gm, rng=None):
    return net.summarize_local(X, Z, y, mask, gm, rng)


class _EmbedLeaf:
    """The embedding layer, with every input it sees made a tape leaf."""

    def __init__(self, linear):
        self.linear, self.inputs = linear, []

    def __getattr__(self, name):
        return getattr(self.linear, name)

    def __call__(self, x):
        x.requires_grad = True
        self.inputs.append(x)
        return self.linear(x)


def _with_grads(net, arrays, local):
    """Training-mode forward and backward of a weighted sum of both
    summaries, with the embedding inputs as tape leaves. Returns the
    gradients of the real rows' features (in batch order, found by the
    feature row) and of every parameter."""
    X, Z, y, mask, gm = arrays
    net.set_training(True).zero_grad()
    embed = net.embed
    net.embed = leaf = _EmbedLeaf(embed)
    try:
        s_local = local(net, X, Z, y, mask, gm, np.random.default_rng(7))
        s_global = net.summarize_global(s_local, gm, np.random.default_rng(7))
        r = np.random.default_rng(5)
        loss = (s_local * Tensor(r.normal(size=s_local.shape).astype(np.float32))).sum() \
            + (s_global * Tensor(r.normal(size=s_global.shape).astype(np.float32))).sum()
        loss.backward()
    finally:
        net.embed = embed
    by_row = {}
    for x in leaf.inputs:
        w = x.shape[-1]
        for row, g in zip(x.data.reshape(-1, w), x.grad.reshape(-1, w)):
            by_row[row.tobytes()] = by_row.get(row.tobytes(), 0.0) + g
    feats = np.concatenate([y[..., None], X, Z], axis=-1).astype(np.float32)[mask & gm[..., None]]
    gx = np.stack([by_row[row.tobytes()] for row in feats])
    return gx, {name: p.grad.copy() for name, p in net.named_parameters()}


class TestBucketedLocalEncoding:
    @pytest.mark.parametrize("case", BATCHES)
    def test_summaries_match_per_group_oracle(self, case):
        net = desk_net().set_training(False)
        X, Z, y, mask, gm = BATCHES[case]()
        n_buckets = len(size_buckets(mask.sum(axis=-1)[gm]))
        assert n_buckets == 1 if case == "equal" else n_buckets > 1
        with no_grad():
            s_local, s_global = net(X, Z, y, mask, gm)
            ref_local = oracle.per_group_local(net, X, Z, y, mask, gm)
            ref_global = net.summarize_global(ref_local, gm)
        np.testing.assert_allclose(s_local.data, ref_local.data, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(s_global.data, ref_global.data, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("case", BATCHES)
    def test_gradients_match_per_group_oracle(self, case):
        net = desk_net()
        arrays = BATCHES[case]()
        gx, grads = _with_grads(net, arrays, _local)
        gx_o, grads_o = _with_grads(net, arrays, oracle.per_group_local)
        assert rel_err(gx, gx_o) < 1e-5
        # the key-projection bias cancels in the softmax: its gradient is pure
        # roundoff on both sides, so errors are measured on the network's scale
        scale = max(np.abs(g).max() for g in grads_o.values())
        for name, want in grads_o.items():
            err = np.abs(grads[name] - want).max() / max(np.abs(want).max(), 0.1 * scale)
            assert err < 1e-5, (name, err)

    def test_group_order_invariance_ragged(self):
        net = desk_net().set_training(False)
        X, Z, y, mask, gm = desk_batch(40)
        with no_grad():
            base_local, base_global = net(X, Z, y, mask, gm)
            rng = np.random.default_rng(8)
            for _ in range(3):
                perm = np.stack([rng.permutation(gm.shape[1]) for _ in gm])
                rows = np.arange(len(gm))[:, None], perm
                out_local, out_global = net(X[rows], Z[rows], y[rows], mask[rows], gm[rows])
                np.testing.assert_allclose(out_local.data, base_local.data[rows],
                                           rtol=1e-4, atol=1e-5)
                np.testing.assert_allclose(out_global.data, base_global.data,
                                           rtol=1e-4, atol=1e-5)

    def test_real_row_share_on_desk_batches(self):
        # 20 training batches of 16 desk sets; rows counted as they enter
        # the local encoder (one bucket pads every group to the longest: 0.54)
        net = desk_net(width=8).set_training(False)
        counter = RowCounter(net.local_encoder.blocks[0])
        net.local_encoder.blocks[0] = counter
        with no_grad():
            for step in range(20):
                net(*desk_batch(16 * step, count=16))
        assert counter.real / counter.total >= 0.85


def _cost(sizes, buckets) -> int:
    return sum(len(b) * sizes[b].max() - sizes[b].sum() + BUCKET_ROWS for b in buckets)


def _brute_force_cost(sizes) -> int:
    """Least padded rows plus per-bucket cost over every contiguous
    partition of the sorted sizes."""
    s = np.sort(sizes)
    best = None
    for cuts in itertools.product((False, True), repeat=len(s) - 1):
        edges = [0] + [i + 1 for i, cut in enumerate(cuts) if cut] + [len(s)]
        cost = sum((hi - lo) * s[hi - 1] - s[lo:hi].sum() + BUCKET_ROWS
                   for lo, hi in zip(edges, edges[1:]))
        best = cost if best is None else min(best, cost)
    return best


GROUP_SIZES = st.lists(st.integers(1, 200), min_size=1, max_size=60).map(np.array)


class TestSizeBuckets:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sizes=GROUP_SIZES)
    def test_partition_contiguous_in_size(self, sizes):
        buckets = size_buckets(sizes)
        assert sorted(np.concatenate(buckets).tolist()) == list(range(len(sizes)))
        assert all(len(b) for b in buckets)
        for lo, hi in zip(buckets, buckets[1:]):
            assert sizes[lo].max() <= sizes[hi].min()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sizes=st.lists(st.integers(1, 200), min_size=1, max_size=10).map(np.array))
    def test_cost_is_brute_force_minimum(self, sizes):
        assert _cost(sizes, size_buckets(sizes)) == _brute_force_cost(sizes)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(size=st.integers(1, 500), count=st.integers(1, 200))
    def test_equal_sizes_one_bucket(self, size, count):
        buckets = size_buckets(np.full(count, size))
        assert len(buckets) == 1 and len(buckets[0]) == count
