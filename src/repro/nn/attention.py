"""Multi-head self-attention and transformer encoder blocks.

This module implements the attention machinery described in Sec. II-C of the
Bioformers paper:

* :class:`MultiHeadSelfAttention` — H parallel heads, each projecting the
  ``C``-dimensional tokens to a ``P``-dimensional query/key/value space,
  scaled dot-product attention, and an output block that merges the heads.
* :class:`FeedForward` — the two linear layers ("orange rectangle" in the
  paper's Fig. 1) that project each token to a hidden space and back to
  ``R^C``.
* :class:`TransformerEncoderBlock` — pre-norm residual block combining the
  two, the unit repeated ``depth`` times in a Bioformer.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import functional as F
from . import init
from .layers import Dropout, Linear
from .layers import LayerNorm
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["MultiHeadSelfAttention", "FeedForward", "TransformerEncoderBlock"]


class MultiHeadSelfAttention(Module):
    """Multi-head self-attention over a ``(batch, sequence, channels)`` input.

    Parameters
    ----------
    embed_dim:
        Token dimensionality ``C`` (64 in every Bioformer).
    num_heads:
        Number of parallel attention heads ``H``.
    head_dim:
        Per-head projection size ``P`` (32 in every Bioformer).  Unlike the
        common convention ``P = C / H``, the paper fixes ``P`` independently
        of ``H``, so the total projection width is ``H * P``.
    dropout:
        Dropout applied to the attention matrix during training.
    rng:
        Random generator used to initialise the projection weights.
    """

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        head_dim: Optional[int] = None,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        generator = rng if rng is not None else np.random.default_rng()
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = head_dim if head_dim is not None else embed_dim // num_heads
        if self.head_dim <= 0:
            raise ValueError("head_dim must be positive")
        total_dim = self.num_heads * self.head_dim

        self.query_projection = Linear(embed_dim, total_dim, rng=generator)
        self.key_projection = Linear(embed_dim, total_dim, rng=generator)
        self.value_projection = Linear(embed_dim, total_dim, rng=generator)
        self.output_projection = Linear(total_dim, embed_dim, rng=generator)
        self.attention_dropout = Dropout(dropout, rng=generator)
        # Exposed for inspection (tests / attention-map analysis); filled on
        # every forward pass with the detached attention probabilities.
        self.last_attention: Optional[np.ndarray] = None

    def _split_heads(self, x: Tensor, batch: int, sequence: int) -> Tensor:
        """Reshape ``(B, S, H*P)`` to ``(B, H, S, P)``."""
        return x.reshape((batch, sequence, self.num_heads, self.head_dim)).transpose((0, 2, 1, 3))

    def forward(self, x: Tensor) -> Tensor:
        batch, sequence, channels = x.shape
        if channels != self.embed_dim:
            raise ValueError(
                f"expected embedding dimension {self.embed_dim}, got {channels}"
            )
        queries = self._split_heads(self.query_projection(x), batch, sequence)
        keys = self._split_heads(self.key_projection(x), batch, sequence)
        values = self._split_heads(self.value_projection(x), batch, sequence)

        scale = 1.0 / math.sqrt(self.head_dim)
        scores = queries.matmul(keys.transpose((0, 1, 3, 2))) * scale
        attention = F.softmax(scores, axis=-1)
        self.last_attention = attention.data.copy()
        attention = self.attention_dropout(attention)

        context = attention.matmul(values)  # (B, H, S, P)
        context = context.transpose((0, 2, 1, 3)).reshape(
            (batch, sequence, self.num_heads * self.head_dim)
        )
        return self.output_projection(context)

    def __repr__(self) -> str:
        return (
            f"MultiHeadSelfAttention(embed_dim={self.embed_dim}, num_heads={self.num_heads}, "
            f"head_dim={self.head_dim})"
        )


class FeedForward(Module):
    """Position-wise two-layer MLP: ``C -> hidden -> C`` with GELU."""

    def __init__(
        self,
        embed_dim: int,
        hidden_dim: int,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        generator = rng if rng is not None else np.random.default_rng()
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.expand = Linear(embed_dim, hidden_dim, rng=generator)
        self.contract = Linear(hidden_dim, embed_dim, rng=generator)
        self.dropout = Dropout(dropout, rng=generator)

    def forward(self, x: Tensor) -> Tensor:
        hidden = F.gelu(self.expand(x))
        hidden = self.dropout(hidden)
        return self.contract(hidden)

    def __repr__(self) -> str:
        return f"FeedForward(embed_dim={self.embed_dim}, hidden_dim={self.hidden_dim})"


class TransformerEncoderBlock(Module):
    """Pre-norm transformer encoder block (MHSA + FFN with residuals).

    This is the repeating unit of the Bioformer: ``depth`` such blocks are
    stacked after the 1-D convolutional patch embedding.  The hidden space
    of the feed-forward part is 128 in every configuration the paper
    evaluates.
    """

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        head_dim: int,
        hidden_dim: int,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        generator = rng if rng is not None else np.random.default_rng()
        self.attention_norm = LayerNorm(embed_dim)
        self.attention = MultiHeadSelfAttention(
            embed_dim, num_heads, head_dim=head_dim, dropout=dropout, rng=generator
        )
        self.feedforward_norm = LayerNorm(embed_dim)
        self.feedforward = FeedForward(embed_dim, hidden_dim, dropout=dropout, rng=generator)
        self.residual_dropout = Dropout(dropout, rng=generator)

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.residual_dropout(self.attention(self.attention_norm(x)))
        x = x + self.residual_dropout(self.feedforward(self.feedforward_norm(x)))
        return x
