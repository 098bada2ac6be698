"""Hierarchical permutation-invariant dataset summaries.

Rows are embedded as the concatenation [y, X-row, Z-row] projected to the
working width (no positional encoding and no group identity features: an
extra tensor axis carries group membership). A local encoder pools each
group's observations into one summary per group; a separate global encoder
pools the local summaries across groups. Pooling is the arithmetic mean
over unmasked positions, taken after the last encoder block.

The local encoder runs once per size bucket. The real groups, sorted by
size, are cut into contiguous buckets that minimise padded rows plus
BUCKET_ROWS per bucket, exactly (`size_buckets`); equal sizes form one
bucket. Each bucket gathers its groups' real rows from the raw arrays,
truncated to its longest group, and only then embeds them: the padded
(B, m, n_max) grid is never embedded, and no backward pass fills it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .nn.layers import EncoderStack, Linear, Module, masked_mean
from .nn.tensor import Tensor, cat as tensor_cat

__all__ = ["SummaryConfig", "SummaryNetwork", "size_buckets"]

# Fixed cost of one local-encoder pass, in padded rows. A desk `train` op (2
# steps and a 16-set validation; 2-CPU host, one BLAS thread) took 1040-1080
# ms for costs of 16 to 256, 1350 ms at 1024 and 2230 ms with one bucket.
BUCKET_ROWS = 64


def size_buckets(sizes: np.ndarray) -> list[np.ndarray]:
    """Indices of the groups in each bucket, smallest sizes first. Buckets
    are contiguous in ascending size and minimise padded rows plus
    BUCKET_ROWS per bucket, exactly: a cut between equal sizes never pays,
    so a dynamic programme runs over the distinct sizes."""
    order = np.argsort(sizes, kind="stable")
    vals, counts = np.unique(sizes, return_counts=True)
    ends = np.concatenate([[0], np.cumsum(counts)])
    best, cut = np.zeros(len(vals) + 1), np.zeros(len(vals) + 1, dtype=int)
    for j in range(1, len(vals) + 1):
        # last bucket: distinct sizes i..j-1, each group padded to vals[j-1]
        cost = best[:j] + (ends[j] - ends[:j]) * vals[j - 1] + BUCKET_ROWS
        cut[j] = np.argmin(cost)
        best[j] = cost[cut[j]]
    bounds = [len(vals)]
    while bounds[-1]:
        bounds.append(cut[bounds[-1]])
    return [order[ends[lo]:ends[hi]] for hi, lo in zip(bounds, bounds[1:])][::-1]


@dataclass
class SummaryConfig:
    width: int = 128
    blocks: int = 4
    heads: int = 8
    dropout: float = 0.01

    def __post_init__(self):
        if self.heads < 1 or self.width % self.heads != 0:
            raise ConfigError(f"width {self.width} not divisible by heads {self.heads}")


class SummaryNetwork(Module):
    def __init__(self, d: int, cfg: SummaryConfig, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.d = d
        self.cfg = cfg
        self.feature_dim = 1 + 2 * d  # [y, X-row, Z-row]
        self.embed = self.register("embed", Linear(self.feature_dim, cfg.width, rng, dtype))
        self.local_encoder = self.register(
            "local", EncoderStack(cfg.width, cfg.blocks, cfg.heads, rng, cfg.dropout, dtype, name="local"))
        self.global_encoder = self.register(
            "global", EncoderStack(cfg.width, cfg.blocks, cfg.heads, rng, cfg.dropout, dtype, name="global"))

    # -- stages --------------------------------------------------------------

    def embed_rows(self, X: np.ndarray, Z: np.ndarray, y: np.ndarray,
                   mask: np.ndarray) -> Tensor:
        """(..., n, 1+2d) concatenated features projected to width; padded
        rows come out exactly zero. `summarize_local` calls it once per
        size bucket, on that bucket's gathered groups only."""
        if X.shape[-1] != self.d:
            raise ConfigError(f"network built for d={self.d}, data has d={X.shape[-1]}")
        feats = np.concatenate([y[..., None], X, Z], axis=-1)
        dt = self.embed.w.data.dtype
        emb = self.embed(Tensor(feats.astype(dt)))
        return emb * Tensor(mask[..., None].astype(dt))

    def summarize_local(self, X: np.ndarray, Z: np.ndarray, y: np.ndarray,
                        mask: np.ndarray, group_mask: np.ndarray | None = None,
                        rng: np.random.Generator | None = None) -> Tensor:
        """Per-group summaries (B, m, width): embedding, encoder blocks over
        the observation axis, then a masked mean, one size bucket at a time.

        Without an explicit group_mask every group is treated as real, and
        a group with zero unmasked rows is an error; with one, phantom
        (padding) groups produce zero summaries.
        """
        b, m, n = mask.shape
        rows = np.asarray(mask, dtype=bool).reshape(b * m, n)
        real = np.ones(b * m, dtype=bool) if group_mask is None \
            else np.asarray(group_mask, dtype=bool).reshape(b * m)
        sizes = rows.sum(axis=1)
        if np.any((sizes == 0) & real):
            raise ConfigError("a group with zero observations cannot be summarized")
        idx = np.flatnonzero(real)
        # each group's real rows first, so a bucket truncates to its longest
        first = np.argsort(~rows, axis=1, kind="stable")
        X, Z, y = X.reshape(b * m, n, -1), Z.reshape(b * m, n, -1), y.reshape(b * m, n)
        parts, order = [], []
        for bucket in size_buckets(sizes[idx]):
            g = idx[bucket]
            at = (g[:, None], first[g, :int(sizes[g].max())])
            keep = rows[at]
            emb = self.embed_rows(X[at], Z[at], y[at], keep)
            parts.append(masked_mean(self.local_encoder(emb, keep, rng), keep, axis=1))
            order.append(g)
        pooled = parts[0] if len(parts) == 1 else tensor_cat(parts, axis=0)
        return pooled.scatter_rows(np.concatenate(order), b * m).reshape(b, m, -1)

    def summarize_global(self, s_local: Tensor, group_mask: np.ndarray | None = None,
                         rng: np.random.Generator | None = None) -> Tensor:
        """Cross-group summary (B, width): encoder blocks over the group
        axis, then a masked mean; invariant to group order."""
        b, m, w = s_local.shape
        if group_mask is None:
            group_mask = np.ones((b, m), dtype=bool)
        group_mask = np.asarray(group_mask, dtype=bool)
        if np.any(group_mask.sum(axis=-1) < 1):
            raise DimensionError("need at least one group per dataset")
        encoded = self.global_encoder(s_local, group_mask, rng)
        return masked_mean(encoded, group_mask, axis=1)

    def __call__(self, X, Z, y, mask, group_mask=None,
                 rng: np.random.Generator | None = None) -> tuple[Tensor, Tensor]:
        s_local = self.summarize_local(X, Z, y, mask, group_mask, rng)
        s_global = self.summarize_global(s_local, group_mask, rng)
        return s_local, s_global
