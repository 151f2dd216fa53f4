"""The Bioformer architecture (the paper's primary contribution).

A Bioformer is a ViT-inspired transformer scaled down to TinyML budgets:

1. **1-D convolutional patch embedding** — a ``Conv1d`` with ``kernel ==
   stride == patch_size`` and no padding aggregates non-overlapping chunks
   of the raw 14-channel sEMG window into ``N`` tokens of dimension 64.
   The patch size (the paper's "filter dimension", swept over
   ``{1, 5, 10, 20, 30}``) trades sequence length — and therefore attention
   cost — against accuracy (Fig. 4).  With ``patch_size == 1`` the layer
   degenerates into a per-sample fully-connected embedding.
2. **Class token** — a learnable 64-dimensional token appended to the
   sequence; its output is the only one fed to the classifier, following
   ViT.
3. **Transformer encoder** — ``depth`` pre-norm blocks of multi-head
   self-attention (head dimension ``P = 32``) and a feed-forward hidden
   space of 128.
4. **Classification head** — LayerNorm + Linear over the class-token
   output.

The two variants benchmarked by the paper are :func:`bioformer_bio1`
(8 heads, depth 1) and :func:`bioformer_bio2` (2 heads, depth 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor
from ..utils.rng import derive_rng

__all__ = ["BioformerConfig", "Bioformer", "bioformer_bio1", "bioformer_bio2"]


@dataclass
class BioformerConfig:
    """Hyper-parameters of a Bioformer instance.

    The defaults are the shared settings of every architecture in the paper
    (token dimension 64, head dimension 32, FFN hidden 128, 8 classes,
    14-channel / 300-sample input windows).
    """

    num_channels: int = 14
    window_samples: int = 300
    num_classes: int = 8
    patch_size: int = 10
    embed_dim: int = 64
    depth: int = 1
    num_heads: int = 8
    head_dim: int = 32
    hidden_dim: int = 128
    dropout: float = 0.1
    #: Learned positional embedding added to the token sequence.  The paper
    #: follows ViT; disabling it is exercised by the ablation benchmarks.
    use_positional_embedding: bool = True
    #: ``"class_token"`` (paper) or ``"mean"`` pooling for the classifier
    #: input; the class-token choice is one of the paper's design points.
    pooling: str = "class_token"
    seed: int = 0

    @property
    def num_tokens(self) -> int:
        """Number of patch tokens ``N`` produced by the front-end."""
        return self.window_samples // self.patch_size

    @property
    def sequence_length(self) -> int:
        """Transformer sequence length (patch tokens + class token)."""
        return self.num_tokens + (1 if self.pooling == "class_token" else 0)

    def validate(self) -> None:
        """Raise ``ValueError`` for inconsistent settings."""
        if self.patch_size <= 0:
            raise ValueError("patch_size must be positive")
        if self.window_samples < self.patch_size:
            raise ValueError(
                f"window of {self.window_samples} samples is shorter than one patch "
                f"({self.patch_size})"
            )
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if self.num_heads < 1 or self.head_dim < 1:
            raise ValueError("num_heads and head_dim must be positive")
        if self.pooling not in ("class_token", "mean"):
            raise ValueError("pooling must be 'class_token' or 'mean'")

    def with_patch_size(self, patch_size: int) -> "BioformerConfig":
        """Return a copy of this config with a different front-end filter."""
        return replace(self, patch_size=patch_size)

    def describe(self) -> str:
        """Short architecture tag, e.g. ``Bioformer(h=8,d=1,f=10)``."""
        return f"Bioformer(h={self.num_heads},d={self.depth},f={self.patch_size})"


class Bioformer(Module):
    """Bioformer model; consumes ``(batch, channels, samples)`` windows."""

    def __init__(self, config: Optional[BioformerConfig] = None) -> None:
        super().__init__()
        self.config = config if config is not None else BioformerConfig()
        self.config.validate()
        cfg = self.config
        rng = derive_rng("bioformer", cfg.num_heads, cfg.depth, cfg.patch_size, seed=cfg.seed)

        # 1. Non-overlapping 1-D convolutional patch embedding.
        self.patch_embedding = nn.Conv1d(
            cfg.num_channels,
            cfg.embed_dim,
            kernel_size=cfg.patch_size,
            stride=cfg.patch_size,
            padding=0,
            rng=rng,
        )

        # 2. Class token and positional embedding.
        if cfg.pooling == "class_token":
            self.class_token = Parameter(
                nn.init.normal((1, 1, cfg.embed_dim), rng, std=0.02), name="class_token"
            )
        if cfg.use_positional_embedding:
            self.positional_embedding = Parameter(
                nn.init.normal((1, cfg.sequence_length, cfg.embed_dim), rng, std=0.02),
                name="positional_embedding",
            )

        # 3. Transformer encoder.
        self.blocks = nn.ModuleList(
            [
                nn.TransformerEncoderBlock(
                    cfg.embed_dim,
                    cfg.num_heads,
                    cfg.head_dim,
                    cfg.hidden_dim,
                    dropout=cfg.dropout,
                    rng=rng,
                )
                for _ in range(cfg.depth)
            ]
        )
        self.final_norm = nn.LayerNorm(cfg.embed_dim)

        # 4. Classification head.
        self.head = nn.Linear(cfg.embed_dim, cfg.num_classes, rng=rng)
        self.embedding_dropout = nn.Dropout(cfg.dropout, rng=rng)

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def embed(self, x: Tensor) -> Tensor:
        """Run the front-end: patches -> tokens (+ class token + positions)."""
        cfg = self.config
        if x.ndim != 3 or x.shape[1] != cfg.num_channels:
            raise ValueError(
                f"expected input of shape (batch, {cfg.num_channels}, samples), got {x.shape}"
            )
        tokens = self.patch_embedding(x)  # (B, embed_dim, N)
        tokens = tokens.transpose((0, 2, 1))  # (B, N, embed_dim)
        if cfg.pooling == "class_token":
            batch = tokens.shape[0]
            class_tokens = self.class_token * Tensor(np.ones((batch, 1, 1)))
            tokens = tokens.concat(class_tokens, axis=1)
        if cfg.use_positional_embedding:
            tokens = tokens + self.positional_embedding
        return self.embedding_dropout(tokens)

    def features(self, x: Tensor) -> Tensor:
        """Return the pooled feature vector fed to the classification head."""
        tokens = self.embed(x)
        for block in self.blocks:
            tokens = block(tokens)
        tokens = self.final_norm(tokens)
        if self.config.pooling == "class_token":
            return tokens[:, -1, :]
        return tokens.mean(axis=1)

    def forward(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        return self.head(self.features(x))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Architecture tag used in reports and benchmark tables."""
        return self.config.describe()

    def attention_maps(self) -> list:
        """Attention probabilities of every block from the last forward pass."""
        return [block.attention.last_attention for block in self.blocks]


def bioformer_bio1(
    patch_size: int = 10,
    num_channels: int = 14,
    window_samples: int = 300,
    num_classes: int = 8,
    seed: int = 0,
    **overrides,
) -> Bioformer:
    """Bio1 — the paper's most accurate Bioformer: 8 heads, depth 1."""
    config = BioformerConfig(
        num_channels=num_channels,
        window_samples=window_samples,
        num_classes=num_classes,
        patch_size=patch_size,
        depth=1,
        num_heads=8,
        seed=seed,
        **overrides,
    )
    return Bioformer(config)


def bioformer_bio2(
    patch_size: int = 10,
    num_channels: int = 14,
    window_samples: int = 300,
    num_classes: int = 8,
    seed: int = 0,
    **overrides,
) -> Bioformer:
    """Bio2 — the paper's lightest Bioformer: 2 heads, depth 2."""
    config = BioformerConfig(
        num_channels=num_channels,
        window_samples=window_samples,
        num_classes=num_classes,
        patch_size=patch_size,
        depth=2,
        num_heads=2,
        seed=seed,
        **overrides,
    )
    return Bioformer(config)
