"""Hierarchical permutation-invariant dataset summaries.

Rows are embedded as the concatenation [y, X-row, Z-row] projected to the
working width (no positional encoding and no group identity features: an
extra tensor axis carries group membership). A local encoder pools each
group's observations into one summary per group; a separate global encoder
pools the local summaries across groups. Pooling is the arithmetic mean
over unmasked positions, taken after the last encoder block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .nn.layers import EncoderStack, Linear, Module, masked_mean
from .nn.tensor import Tensor, cat as tensor_cat

__all__ = ["SummaryConfig", "SummaryNetwork"]


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
        """(B, m, n, 1+2d) concatenated features projected to width; padded
        rows come out exactly zero."""
        if X.shape[-1] != self.d:
            raise ConfigError(f"network built for d={self.d}, data has d={X.shape[-1]}")
        feats = np.concatenate([y[..., None], X, Z], axis=-1)
        dt = self.embed.w.data.dtype
        emb = self.embed(Tensor(feats.astype(dt)))
        return emb * Tensor(mask[..., None].astype(dt))

    def summarize_local(self, emb: Tensor, mask: np.ndarray,
                        group_mask: np.ndarray | None = None,
                        rng: np.random.Generator | None = None) -> Tensor:
        """Per-group summaries (B, m, width): encoder blocks over the
        observation axis, then a masked mean.

        Without an explicit group_mask every group is treated as real, and
        a group with zero unmasked rows is an error; with one, phantom
        (padding) groups produce zero summaries.
        """
        b, m, n, w = emb.shape
        rows = np.asarray(mask, dtype=bool)
        real = np.ones((b, m), dtype=bool) if group_mask is None \
            else np.asarray(group_mask, dtype=bool)
        if np.any((rows.sum(axis=-1) == 0) & real):
            raise ConfigError("a group with zero observations cannot be summarized")
        flat = emb.reshape(b * m, n, w)
        rows_flat = rows.reshape(b * m, n)
        real_flat = real.reshape(b * m)
        # run only the real groups through the encoder, bucketed by group
        # size so short groups do not pay for the longest one's padding;
        # phantom padding groups come back as zero summaries
        idx = np.flatnonzero(real_flat)
        sizes = rows_flat[idx].sum(axis=1)
        n_buckets = 2 if (idx.size >= 8 and sizes.max() > 2 * max(sizes.min(), 1)) else 1
        order = np.argsort(sizes, kind="stable")
        parts, part_idx = [], []
        for chunk in np.array_split(order, n_buckets):
            if chunk.size == 0:
                continue
            rows_chunk = rows_flat[idx[chunk]]
            n_chunk = int(rows_chunk.sum(axis=1).max())
            sub = flat.take_rows(idx[chunk])[:, :n_chunk]
            encoded = self.local_encoder(sub, rows_chunk[:, :n_chunk], rng)
            parts.append(masked_mean(encoded, rows_chunk[:, :n_chunk], axis=1))
            part_idx.append(idx[chunk])
        pooled = parts[0] if len(parts) == 1 else tensor_cat(parts, axis=0)
        return pooled.scatter_rows(np.concatenate(part_idx), b * m).reshape(b, m, w)

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
        emb = self.embed_rows(X, Z, y, mask)
        s_local = self.summarize_local(emb, mask, group_mask, rng)
        s_global = self.summarize_global(s_local, group_mask, rng)
        return s_local, s_global
