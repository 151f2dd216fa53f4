"""Reproducible corruption scenarios for robustness evaluation.

A :class:`Scenario` is a named, seeded corruption applied to a
:class:`~repro.eval.recordings.SyntheticRecording`'s signal — never to its
labels or boundaries, so the ground truth of a corrupted recording stays
exactly that of the clean one.  The corruptions reuse the training-time
augmentation primitives of :mod:`repro.data.augmentation` wherever one
exists (noise via :func:`~repro.data.augmentation.jitter`, random
electrode loss via :func:`~repro.data.augmentation.channel_dropout`), so
the robustness study stresses the serving tier with the *same* physical
perturbation model the training tier augments against.

Scenario taxonomy (``kind``):

``clean``
    Identity — the baseline every corrupted number is read against.
``noise``
    Additive Gaussian measurement noise of strength ``noise_sigma``
    (:func:`repro.data.augmentation.jitter` on the whole recording).
``dead_electrodes``
    ``num_dead`` channels flatline to
    :data:`~repro.data.augmentation.CHANNEL_FILL_VALUE` for the whole
    recording — the corruption the session layer's dead-electrode
    detector is built to catch, so its decisions are expected to come
    back ``degraded=True`` (:attr:`Scenario.expects_degraded`).
``dropout``
    Intermittent electrode loss: per-chunk random channel dropout with
    probability ``dropout_probability``, the streaming analogue of the
    training transform.  Short flatline bursts below the session layer's
    ``dead_channel_min_samples`` stay *undetected* by design.
``drift``
    Session-to-session transfer: a per-channel gain (around 1, spread
    ``drift_gain_sigma``) and offset (spread ``drift_offset_sigma``)
    drawn once per recording and applied throughout — the donning/
    doffing covariate shift between recording sessions.

Every scenario draws exclusively from a generator seeded with
``(scenario seed, recording seed-material)``, so a given
(scenario, recording) pair corrupts bitwise-identically across runs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..data.augmentation import CHANNEL_FILL_VALUE, channel_dropout, jitter
from .recordings import SyntheticRecording

__all__ = ["Scenario", "ScenarioSuite", "SCENARIO_KINDS"]

#: Every corruption kind :class:`Scenario` understands.
SCENARIO_KINDS = ("clean", "noise", "dead_electrodes", "dropout", "drift")


@dataclass(frozen=True)
class Scenario:
    """One named, seeded corruption of a labelled recording."""

    name: str
    kind: str = "clean"
    #: ``noise``: std-dev of the additive Gaussian noise.
    noise_sigma: float = 0.25
    #: ``dead_electrodes``: how many channels flatline (lowest indices
    #: are chosen deterministically when ``dead_channels`` is None).
    num_dead: int = 1
    #: ``dead_electrodes``: explicit channel indices; overrides ``num_dead``.
    dead_channels: Optional[Tuple[int, ...]] = None
    #: ``dropout``: per-chunk, per-channel loss probability.
    dropout_probability: float = 0.15
    #: ``dropout``: chunk granularity of the intermittent loss (samples).
    dropout_chunk_samples: int = 16
    #: ``drift``: std-dev of the per-channel multiplicative gain around 1.
    drift_gain_sigma: float = 0.15
    #: ``drift``: std-dev of the per-channel additive offset.
    drift_offset_sigma: float = 0.2
    #: Base seed mixed with the recording identity for reproducibility.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(
                f"unknown scenario kind '{self.kind}'; expected one of {SCENARIO_KINDS}"
            )
        if self.kind == "noise" and self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if self.kind == "dead_electrodes" and self.dead_channels is None and self.num_dead < 1:
            raise ValueError("dead_electrodes needs num_dead >= 1 or explicit channels")
        if self.kind == "dropout":
            if not 0.0 <= self.dropout_probability < 1.0:
                raise ValueError("dropout_probability must lie in [0, 1)")
            if self.dropout_chunk_samples < 1:
                raise ValueError("dropout_chunk_samples must be >= 1")

    @property
    def expects_degraded(self) -> bool:
        """Whether the session layer is *expected* to flag decisions degraded.

        Only whole-recording flatlines trip the dead-electrode detector by
        construction; intermittent dropout may or may not, depending on
        burst length versus ``dead_channel_min_samples``.
        """
        return self.kind == "dead_electrodes"

    def _rng(self, recording: SyntheticRecording) -> np.random.Generator:
        # Mix the scenario seed with the recording's identity (name) so
        # the same pair always corrupts identically, while two recordings
        # under one scenario stay decorrelated.
        return np.random.default_rng(
            (self.seed, zlib.crc32(recording.name.encode("utf-8")))
        )

    def dead_channel_indices(self, num_channels: int) -> Tuple[int, ...]:
        """The channels a ``dead_electrodes`` scenario flatlines."""
        if self.kind != "dead_electrodes":
            return ()
        if self.dead_channels is not None:
            channels = tuple(int(c) for c in self.dead_channels)
        else:
            channels = tuple(range(min(self.num_dead, num_channels)))
        for channel in channels:
            if not 0 <= channel < num_channels:
                raise ValueError(
                    f"dead channel {channel} outside [0, {num_channels})"
                )
        return channels

    def apply(self, recording: SyntheticRecording) -> SyntheticRecording:
        """The corrupted copy of ``recording`` (labels untouched)."""
        corrupted_name = f"{recording.name}/{self.name}"
        if self.kind == "clean":
            return recording.with_signal(recording.signal, name=corrupted_name)
        rng = self._rng(recording)
        signal = recording.signal
        if self.kind == "noise":
            # jitter operates on (windows, channels, samples) batches;
            # the whole recording is one "window".
            corrupted = jitter(signal[None], rng, sigma=self.noise_sigma)[0]
        elif self.kind == "dead_electrodes":
            corrupted = signal.copy()
            corrupted[list(self.dead_channel_indices(recording.num_channels))] = (
                CHANNEL_FILL_VALUE
            )
        elif self.kind == "dropout":
            # Chop the recording into short chunks and run the training
            # transform over them as a batch: each chunk independently
            # loses channels, giving intermittent (not permanent) loss.
            chunk = self.dropout_chunk_samples
            total = signal.shape[1]
            full = (total // chunk) * chunk
            if full:
                chunks = signal[:, :full].reshape(
                    signal.shape[0], full // chunk, chunk
                )
                chunks = np.transpose(chunks, (1, 0, 2))
                dropped = channel_dropout(
                    chunks, rng, probability=self.dropout_probability
                )
                head = np.transpose(dropped, (1, 0, 2)).reshape(signal.shape[0], full)
            else:
                head = signal[:, :0]
            corrupted = np.concatenate([head, signal[:, full:]], axis=1)
        elif self.kind == "drift":
            gains = rng.normal(
                loc=1.0, scale=self.drift_gain_sigma, size=(recording.num_channels, 1)
            )
            offsets = rng.normal(
                scale=self.drift_offset_sigma, size=(recording.num_channels, 1)
            )
            corrupted = signal * np.clip(gains, 0.1, None) + offsets
        else:  # pragma: no cover - guarded by __post_init__
            raise AssertionError(self.kind)
        return recording.with_signal(corrupted, name=corrupted_name)


class ScenarioSuite:
    """An ordered, name-addressable collection of scenarios."""

    def __init__(self, scenarios: Sequence[Scenario]) -> None:
        self._scenarios: Dict[str, Scenario] = {}
        for scenario in scenarios:
            if scenario.name in self._scenarios:
                raise ValueError(f"duplicate scenario name '{scenario.name}'")
            self._scenarios[scenario.name] = scenario
        if not self._scenarios:
            raise ValueError("a suite needs at least one scenario")

    @classmethod
    def default(cls, *, seed: int = 0) -> "ScenarioSuite":
        """The standard robustness sweep: one scenario per taxonomy kind."""
        return cls(
            [
                Scenario("clean", kind="clean", seed=seed),
                Scenario("noise", kind="noise", noise_sigma=0.25, seed=seed),
                Scenario("dead_electrode", kind="dead_electrodes", num_dead=1, seed=seed),
                Scenario("dropout", kind="dropout", dropout_probability=0.15, seed=seed),
                Scenario("drift", kind="drift", seed=seed),
            ]
        )

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self._scenarios.values())

    def __len__(self) -> int:
        return len(self._scenarios)

    def __contains__(self, name: str) -> bool:
        return name in self._scenarios

    def __getitem__(self, name: str) -> Scenario:
        try:
            return self._scenarios[name]
        except KeyError:
            raise KeyError(
                f"no scenario '{name}'; have {sorted(self._scenarios)}"
            ) from None

    @property
    def names(self) -> Tuple[str, ...]:
        """Scenario names in insertion order."""
        return tuple(self._scenarios)
