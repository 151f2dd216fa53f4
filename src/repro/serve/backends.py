"""Serving backends: one protocol, two execution engines.

A backend turns a stacked ``(batch, channels, samples)`` window array into
``(batch, num_classes)`` float logits.  Two implementations cover the two
inference paths the repository already validates end-to-end:

* :class:`FloatBackend` — the traced :class:`~repro.deploy.graph.ComputeGraph`
  of the trained model (the same graph :func:`build_int8_backend` lowers)
  replayed by :class:`~repro.deploy.engine.FloatGraphExecutor`.  Bit-for-bit
  identical to ``model(Tensor(x))``; the weights are snapshotted when the
  backend is built.
* :class:`Int8Backend` — the lowered :class:`~repro.deploy.lowering.QuantizedGraph`
  replayed by :class:`~repro.deploy.int_engine.IntegerGraphExecutor`, i.e.
  the GAP8 integer numerics.  Its logits are the dequantised int8 grid, so
  serving accuracy equals the deployment-report accuracy.  The lowering
  tabulates the I-BERT GELU/softmax nonlinearities, which the executor
  gathers instead of evaluating the polynomials.

Both expose the same :class:`Backend` protocol, which is what
:class:`repro.serve.server.InferenceServer` and the
:class:`~repro.serve.batcher.DynamicBatcher` consume — later backends
(sharded, multi-process, remote) only need to implement ``run``.  The
protocol is also the seam the fault-tolerance layer composes through:
:class:`repro.serve.faults.FaultInjectingBackend` wraps any backend to
inject scheduled faults (via the server's ``backend_wrapper`` hook), and
dispatch-level retries, circuit breaking and int8→float degradation all
operate on ``run`` calls without the backends knowing.
"""

from __future__ import annotations

from typing import Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from ..deploy.engine import FloatGraphExecutor
from ..deploy.int_engine import IntegerGraphExecutor
from ..deploy.lowering import QuantizedGraph, lower_to_int8
from ..deploy.passes import LoweringConfig
from ..deploy.tracers import trace_model
from ..nn.module import Module

__all__ = [
    "Backend",
    "FloatBackend",
    "Int8Backend",
    "build_float_backend",
    "build_int8_backend",
]


@runtime_checkable
class Backend(Protocol):
    """Anything that classifies a stacked batch of sEMG windows."""

    name: str

    @property
    def input_shape(self) -> Tuple[int, int]:
        """Expected per-window shape ``(channels, samples)``."""
        ...

    @property
    def num_classes(self) -> int:
        """Number of gesture classes in the logits."""
        ...

    def run(self, windows: np.ndarray) -> np.ndarray:
        """Map ``(batch, channels, samples)`` windows to float logits."""
        ...

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Class indices (argmax over :meth:`run`)."""
        ...


def _model_geometry(model: Module) -> Tuple[int, int, int]:
    cfg = model.config
    return int(cfg.num_channels), int(cfg.window_samples), int(cfg.num_classes)


class FloatBackend:
    """Float replay of the model's traced graph (evaluation semantics).

    The model is traced once at construction, so later changes to its
    weights do not reach the backend, exactly as with :class:`Int8Backend`.
    """

    name = "float"

    def __init__(self, model: Module) -> None:
        self.model = model.eval()
        self.executor = FloatGraphExecutor(trace_model(self.model))
        self._channels, self._samples, self._classes = _model_geometry(model)

    @property
    def input_shape(self) -> Tuple[int, int]:
        """Expected per-window shape ``(channels, samples)``."""
        return (self._channels, self._samples)

    @property
    def num_classes(self) -> int:
        """Number of gesture classes in the logits."""
        return self._classes

    def run(self, windows: np.ndarray) -> np.ndarray:
        """Float logits for ``(batch, channels, samples)`` windows."""
        return self.executor.run(windows)

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Class indices (argmax over :meth:`run`)."""
        return np.argmax(self.run(windows), axis=-1)

    def __repr__(self) -> str:
        return f"FloatBackend({type(self.model).__name__}, input={self.input_shape})"


class Int8Backend:
    """Integer-only replay of a lowered graph (the on-target numerics).

    The lowered graph decides how each node runs (see
    :class:`~repro.deploy.int_engine.IntegerGraphExecutor`): MAC nodes as
    one integer GEMM across the whole micro-batch, GELU/softmax through
    their lookup tables.
    """

    name = "int8"

    def __init__(self, quantized: QuantizedGraph) -> None:
        self.quantized = quantized
        self.executor = IntegerGraphExecutor(quantized)
        graph = quantized.graph
        self._input_shape = tuple(int(size) for size in graph.graph_input.shape)
        self._classes = int(graph.output.shape[-1])

    @property
    def input_shape(self) -> Tuple[int, int]:
        """Expected per-window shape ``(channels, samples)``."""
        return self._input_shape  # type: ignore[return-value]

    @property
    def num_classes(self) -> int:
        """Number of gesture classes in the logits."""
        return self._classes

    def run(self, windows: np.ndarray) -> np.ndarray:
        """Dequantised float logits for ``(batch, channels, samples)`` windows."""
        return self.executor.run(windows)

    def run_integer(self, windows: np.ndarray) -> np.ndarray:
        """The raw int8-grid logits (what the MCU would emit)."""
        return self.executor.run_integer(windows)

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Class indices of the integer-only inference path."""
        return self.executor.predict(windows)

    def __repr__(self) -> str:
        return (
            f"Int8Backend(graph='{self.quantized.graph.name}', "
            f"input={self.input_shape})"
        )


def build_float_backend(model: Module) -> FloatBackend:
    """Wrap a trained model as a serving backend (evaluation mode)."""
    return FloatBackend(model)


def build_int8_backend(
    model: Module,
    calibration: Optional[np.ndarray] = None,
    *,
    calibration_batch: int = 16,
    seed: int = 0,
    config: Optional[LoweringConfig] = None,
) -> Int8Backend:
    """Trace, calibrate and lower ``model``, then wrap the integer engine.

    ``calibration`` should be representative ``(batch, channels, samples)``
    windows; when omitted, a deterministic standard-normal batch is used
    (adequate for the synthetic data distribution, and reproducible so the
    backend cache stays consistent across processes).

    ``config`` is the :class:`~repro.deploy.passes.LoweringConfig` forwarded
    to :func:`~repro.deploy.lowering.lower_to_int8` (its defaults when
    omitted).
    """
    graph = trace_model(model.eval())
    if calibration is None:
        rng = np.random.default_rng(seed)
        channels, samples, _ = _model_geometry(model)
        calibration = rng.normal(size=(calibration_batch, channels, samples))
    quantized = lower_to_int8(graph, np.asarray(calibration, dtype=np.float64), config)
    return Int8Backend(quantized)
