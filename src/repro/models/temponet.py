"""TEMPONet — the temporal convolutional network baseline.

TEMPONet (Zanghieri et al., *IEEE TBioCAS* 2019) is the state-of-the-art
embedded sEMG classifier the paper compares every Bioformer against.  It is
a Temporal Convolutional Network organised in three blocks; each block
stacks two dilated temporal convolutions, a strided convolution and an
average-pooling stage, with channel width doubling from block to block
(32 -> 64 -> 128).  The convolutional feature extractor is followed by a
fully connected classifier.

The original network is described for 300-sample (150 ms @ 2 kHz) windows
and, quantised to 8 bits, occupies roughly 460 kB and 16 MMAC — the numbers
reported in the paper's Table I.  This re-implementation follows that
topology; the exact parameter count of the original is not published layer
by layer, so the traced graph reports the count of *this* implementation, which
lands in the same range (see EXPERIMENTS.md).

The implementation adapts its classifier input size to the configured
window length so the reduced-scale presets (shorter synthetic windows) can
train the same topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .. import nn
from ..nn.module import Module
from ..nn.tensor import Tensor
from ..utils.rng import derive_rng

__all__ = ["TEMPONetConfig", "TEMPONet", "temponet"]


@dataclass
class TEMPONetConfig:
    """Hyper-parameters of the TEMPONet baseline."""

    num_channels: int = 14
    window_samples: int = 300
    num_classes: int = 8
    #: Output channels of the three convolutional blocks.
    block_channels: Tuple[int, int, int] = (32, 64, 128)
    #: Dilation of the two temporal convolutions inside each block.
    block_dilations: Tuple[int, int, int] = (2, 4, 8)
    #: Stride of the convolution closing each block (the early blocks keep
    #: full temporal resolution, as in the original TEMPONet).
    block_strides: Tuple[int, int, int] = (1, 1, 2)
    #: Kernel size of the dilated temporal convolutions.
    kernel_size: int = 3
    #: Kernel size of the strided convolution closing each block.
    strided_kernel_size: int = 5
    #: Hidden sizes of the fully connected classifier.  Together with
    #: ``block_strides`` these are chosen so that the 300-sample int8 model
    #: lands on the ~461 kB / ~16 MMAC reported for TEMPONet in Table I.
    fc_hidden: Tuple[int, int] = (100, 128)
    dropout: float = 0.2
    seed: int = 0

    def validate(self) -> None:
        """Raise ``ValueError`` for inconsistent settings."""
        if not (len(self.block_channels) == len(self.block_dilations) == len(self.block_strides)):
            raise ValueError(
                "block_channels, block_dilations and block_strides must have the same length"
            )
        length = self.window_samples
        for stride in self.block_strides:
            length = ((length + stride - 1) // stride) // 2
        if length < 1:
            raise ValueError(
                f"window of {self.window_samples} samples collapses to zero length "
                f"after the {len(self.block_channels)} blocks"
            )

    def describe(self) -> str:
        """Short architecture tag used in reports."""
        return "TEMPONet"


class _TemporalBlock(Module):
    """One TEMPONet block: two dilated convs, a strided conv, average pooling."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        dilation: int,
        stride: int,
        kernel_size: int,
        strided_kernel_size: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        padding = dilation * (kernel_size - 1) // 2
        self.conv1 = nn.Conv1d(
            in_channels, out_channels, kernel_size, padding=padding, dilation=dilation, rng=rng
        )
        self.bn1 = nn.BatchNorm1d(out_channels)
        self.conv2 = nn.Conv1d(
            out_channels, out_channels, kernel_size, padding=padding, dilation=dilation, rng=rng
        )
        self.bn2 = nn.BatchNorm1d(out_channels)
        self.strided_conv = nn.Conv1d(
            out_channels,
            out_channels,
            strided_kernel_size,
            stride=stride,
            padding=strided_kernel_size // 2,
            rng=rng,
        )
        self.bn3 = nn.BatchNorm1d(out_channels)
        self.pool = nn.AvgPool1d(kernel_size=2, stride=2)
        self.relu = nn.ReLU()

    def forward(self, x: Tensor) -> Tensor:
        x = self.relu(self.bn1(self.conv1(x)))
        x = self.relu(self.bn2(self.conv2(x)))
        x = self.relu(self.bn3(self.strided_conv(x)))
        return self.pool(x)


class TEMPONet(Module):
    """TEMPONet TCN; consumes ``(batch, channels, samples)`` windows."""

    def __init__(self, config: Optional[TEMPONetConfig] = None) -> None:
        super().__init__()
        self.config = config if config is not None else TEMPONetConfig()
        self.config.validate()
        cfg = self.config
        rng = derive_rng("temponet", cfg.window_samples, seed=cfg.seed)

        blocks: List[Module] = []
        in_channels = cfg.num_channels
        length = cfg.window_samples
        for out_channels, dilation, stride in zip(
            cfg.block_channels, cfg.block_dilations, cfg.block_strides
        ):
            blocks.append(
                _TemporalBlock(
                    in_channels,
                    out_channels,
                    dilation,
                    stride,
                    cfg.kernel_size,
                    cfg.strided_kernel_size,
                    rng,
                )
            )
            in_channels = out_channels
            # Strided conv (ceil division with same padding) then pool by two.
            length = (length + stride - 1) // stride
            length = length // 2
        self.blocks = nn.ModuleList(blocks)
        self.flatten_length = length
        self.flatten_features = in_channels * length

        hidden1, hidden2 = cfg.fc_hidden
        self.classifier = nn.Sequential(
            nn.Flatten(start_dim=1),
            nn.Linear(self.flatten_features, hidden1, rng=rng),
            nn.ReLU(),
            nn.Dropout(cfg.dropout, rng=rng),
            nn.Linear(hidden1, hidden2, rng=rng),
            nn.ReLU(),
            nn.Dropout(cfg.dropout, rng=rng),
            nn.Linear(hidden2, cfg.num_classes, rng=rng),
        )

    def features(self, x: Tensor) -> Tensor:
        """Return the convolutional feature map ``(batch, channels, length)``."""
        for block in self.blocks:
            x = block(x)
        return x

    def forward(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        cfg = self.config
        if x.ndim != 3 or x.shape[1] != cfg.num_channels:
            raise ValueError(
                f"expected input of shape (batch, {cfg.num_channels}, samples), got {x.shape}"
            )
        return self.classifier(self.features(x))

    @property
    def name(self) -> str:
        """Architecture tag used in reports and benchmark tables."""
        return self.config.describe()


def temponet(
    num_channels: int = 14,
    window_samples: int = 300,
    num_classes: int = 8,
    seed: int = 0,
    **overrides,
) -> TEMPONet:
    """Build the TEMPONet baseline for the given input geometry."""
    config = TEMPONetConfig(
        num_channels=num_channels,
        window_samples=window_samples,
        num_classes=num_classes,
        seed=seed,
        **overrides,
    )
    return TEMPONet(config)
