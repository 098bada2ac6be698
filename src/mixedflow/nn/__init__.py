"""Differentiable-computation substrate: tensors with reverse-mode
gradients, layer primitives, the optimizer and the checkpoint container."""

from .checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from .layers import (EncoderBlock, EncoderStack, FeedForward, LayerNorm,
                     Linear, Module, MultiheadAttention, dropout, masked_mean)
from .optim import ScheduleFreeAdamW
from .tensor import Tensor, as_tensor, cat, no_grad

__all__ = [
    "Tensor", "as_tensor", "cat", "no_grad",
    "Module", "Linear", "LayerNorm", "FeedForward", "MultiheadAttention",
    "EncoderBlock", "EncoderStack", "dropout", "masked_mean",
    "ScheduleFreeAdamW",
    "save_checkpoint", "load_checkpoint", "FORMAT_VERSION",
]
