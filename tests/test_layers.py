"""Layer contracts: the linear identity/bias cases, mask semantics of
attention and encoder blocks, eval-mode determinism, and finite-difference
gradients through whole blocks."""

import numpy as np
import pytest

from helpers import check_param_grads

from mixedflow.errors import ConfigError, DimensionError
from mixedflow.nn import EncoderBlock, LayerNorm, Linear, MultiheadAttention, masked_mean
from mixedflow.nn.tensor import Tensor


def make_rng(seed=0):
    return np.random.default_rng(seed)


class TestLinear:
    def test_identity_case(self):
        rng = make_rng()
        lin = Linear(2, 2, rng, dtype=np.float64)
        lin.w.data = np.eye(2)
        lin.b.data = np.zeros(2)
        x = np.eye(2)
        np.testing.assert_allclose(lin(Tensor(x)).data, x)

    def test_bias_only(self):
        rng = make_rng()
        lin = Linear(3, 2, rng, dtype=np.float64)
        lin.w.data = np.zeros((3, 2))
        lin.b.data = np.array([1.0, 2.0])
        out = lin(Tensor(np.ones((5, 3)))).data
        np.testing.assert_allclose(out, np.tile([1.0, 2.0], (5, 1)))

    def test_shape_mismatch(self):
        lin = Linear(3, 2, make_rng())
        with pytest.raises(DimensionError):
            lin(Tensor(np.ones((5, 4))))

    def test_grad_matches_finite_differences(self):
        rng = make_rng(1)
        lin = Linear(4, 3, rng, dtype=np.float64)
        x = Tensor(rng.normal(size=(6, 4)))
        target = rng.normal(size=(6, 3))
        check_param_grads(
            lambda: ((lin(x) - Tensor(target)) ** 2).sum(),
            list(lin.named_parameters()),
        )


class TestAttention:
    def test_heads_must_divide_width(self):
        with pytest.raises(ConfigError):
            MultiheadAttention(10, 3, make_rng())

    def test_single_token_is_value_projection(self):
        rng = make_rng(2)
        attn = MultiheadAttention(8, 2, rng, dtype=np.float64)
        x = rng.normal(size=(1, 8))
        out = attn(Tensor(x), np.array([True]))
        v = attn.wv(Tensor(x)).data
        expected = attn.wo(Tensor(v)).data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_all_masked_gives_zero(self):
        rng = make_rng(3)
        attn = MultiheadAttention(8, 2, rng, dtype=np.float64)
        out = attn(Tensor(rng.normal(size=(5, 8))), np.zeros(5, dtype=bool))
        np.testing.assert_allclose(out.data, 0.0)

    def test_permutation_equivariance(self):
        rng = make_rng(4)
        attn = MultiheadAttention(16, 4, rng, dtype=np.float64)
        n = 7
        x = rng.normal(size=(n, 16))
        mask = np.ones(n, dtype=bool)
        base = attn(Tensor(x), mask).data
        for _ in range(5):
            perm = rng.permutation(n)
            permuted = attn(Tensor(x[perm]), mask).data
            np.testing.assert_allclose(permuted, base[perm], atol=1e-10)

    def test_masked_rows_do_not_influence_others(self):
        rng = make_rng(5)
        attn = MultiheadAttention(8, 2, rng, dtype=np.float64)
        x = rng.normal(size=(6, 8))
        mask = np.array([True, True, False, True, False, True])
        out1 = attn(Tensor(x), mask).data
        x2 = x.copy()
        x2[~mask] = rng.normal(size=(2, 8)) * 100.0
        out2 = attn(Tensor(x2), mask).data
        np.testing.assert_allclose(out1[mask], out2[mask], atol=1e-10)


class TestEncoderBlock:
    def test_eval_mode_deterministic(self):
        rng = make_rng(6)
        blk = EncoderBlock(8, 2, rng, dropout_rate=0.5, dtype=np.float64)
        blk.set_training(False)
        x = Tensor(rng.normal(size=(2, 5, 8)))
        mask = np.ones((2, 5), dtype=bool)
        out1 = blk(x, mask, rng=make_rng(7)).data
        out2 = blk(x, mask, rng=make_rng(8)).data
        np.testing.assert_array_equal(out1, out2)

    def test_masked_rows_stay_zero(self):
        rng = make_rng(9)
        blk = EncoderBlock(8, 2, rng, dtype=np.float64)
        x = rng.normal(size=(1, 6, 8))
        mask = np.array([[True, False, True, True, False, True]])
        x[0, ~mask[0]] = 0.0
        out = blk(Tensor(x), mask).data
        np.testing.assert_allclose(out[0, ~mask[0]], 0.0)

    def test_pad_contents_do_not_change_valid_rows(self):
        rng = make_rng(10)
        blk = EncoderBlock(8, 2, rng, dtype=np.float64)
        x = rng.normal(size=(1, 6, 8))
        mask = np.array([[True, True, False, True, False, True]])
        base = blk(Tensor(x), mask).data
        x2 = x.copy()
        x2[0, ~mask[0]] = 1e3
        out = blk(Tensor(x2), mask).data
        np.testing.assert_allclose(out[0, mask[0]], base[0, mask[0]], atol=1e-10)

    def test_block_gradients_match_finite_differences(self):
        rng = make_rng(11)
        blk = EncoderBlock(4, 2, rng, dtype=np.float64)
        blk.set_training(False)
        x = Tensor(rng.normal(size=(1, 3, 4)))
        mask = np.array([[True, True, False]])
        check_param_grads(
            lambda: (blk(x, mask) ** 2).sum(),
            list(blk.named_parameters()),
            tol=1e-3,
        )

    def test_two_dim_input_is_a_batch_of_one(self):
        rng = make_rng(14)
        blk = EncoderBlock(8, 2, rng, dropout_rate=0.3, dtype=np.float64).set_training(True)
        x = rng.normal(size=(6, 8))
        mask = np.array([True, True, False, True, False, True])
        out = blk(Tensor(x), mask, make_rng(15)).data
        want = blk(Tensor(x[None]), mask[None], make_rng(15)).data[0]
        np.testing.assert_array_equal(out, want)

    def test_nonfinite_activation_names_the_block(self):
        from mixedflow.errors import NumericError
        rng = make_rng(13)
        blk = EncoderBlock(8, 2, rng, dtype=np.float64, name="local[3]")
        x = rng.normal(size=(1, 4, 8))
        x[0, 1, 2] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match=r"local\[3\]"):
                blk(Tensor(x), np.ones((1, 4), dtype=bool))


class TestPooling:
    def test_masked_mean_ignores_padding(self):
        x = np.arange(12, dtype=np.float64).reshape(1, 4, 3)
        mask = np.array([[True, True, False, False]])
        out = masked_mean(Tensor(x), mask, axis=1).data
        np.testing.assert_allclose(out[0], x[0, :2].mean(axis=0))

    def test_layernorm_normalizes_last_axis(self):
        rng = make_rng(12)
        ln = LayerNorm(6, dtype=np.float64)
        out = ln(Tensor(rng.normal(size=(4, 6)))).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)
