"""Serving backends: one protocol, met by the two graph executors.

A backend turns a stacked ``(batch, channels, samples)`` window array into
``(batch, num_classes)`` float logits.  The deploy toolchain's graph
executors are the backends as they stand; each reads ``input_shape`` and
``num_classes`` from its graph:

* :func:`build_float_backend` traces the model and returns the graph's
  :class:`~repro.deploy.engine.FloatGraphExecutor` (``"float"``),
  bit-for-bit identical to ``model(Tensor(x))``.
* :func:`build_int8_backend` lowers the same graph and returns its
  :class:`~repro.deploy.int_engine.IntegerGraphExecutor` (``"int8"``,
  alias ``Int8Backend``): the GAP8 integer numerics, so serving accuracy
  equals the deployment-report accuracy.  GELU/softmax run through the
  lowering's lookup tables.

Both snapshot the model's weights when they are built.  The
:class:`Backend` protocol is what
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
from ..deploy.lowering import lower_to_int8
from ..deploy.passes import LoweringConfig
from ..deploy.tracers import trace_model
from ..nn.module import Module

__all__ = [
    "Backend",
    "Int8Backend",
    "build_float_backend",
    "build_int8_backend",
]


@runtime_checkable
class Backend(Protocol):
    """Anything that classifies a stacked batch of sEMG windows."""

    name: str
    #: Expected per-window shape ``(channels, samples)``.
    input_shape: Tuple[int, ...]
    #: Number of gesture classes in the logits.
    num_classes: int

    def run(self, windows: np.ndarray) -> np.ndarray:
        """Map ``(batch, channels, samples)`` windows to float logits."""
        ...

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Class indices (argmax over :meth:`run`)."""
        ...


#: An alias of the integer executor, for callers that construct ``Int8Backend(quantized)``.
Int8Backend = IntegerGraphExecutor


def build_float_backend(model: Module) -> FloatGraphExecutor:
    """Trace ``model`` in evaluation mode and replay its graph in float.

    The weights are snapshotted by the trace: later training does not
    reach the backend.
    """
    return FloatGraphExecutor(trace_model(model.eval()))


def build_int8_backend(
    model: Module,
    calibration: Optional[np.ndarray] = None,
    *,
    config: Optional[LoweringConfig] = None,
) -> IntegerGraphExecutor:
    """Trace, calibrate and lower ``model`` to the integer executor.

    ``calibration`` should be representative ``(batch, channels, samples)``
    windows; when omitted, a batch of 16 standard-normal windows from seed
    0 is used (adequate for the synthetic data distribution, and
    reproducible so the backend cache stays consistent across processes).

    ``config`` is the :class:`~repro.deploy.passes.LoweringConfig` forwarded
    to :func:`~repro.deploy.lowering.lower_to_int8` (its defaults when
    omitted).
    """
    graph = trace_model(model.eval())
    if calibration is None:
        calibration = np.random.default_rng(0).normal(size=(16,) + graph.graph_input.shape)
    quantized = lower_to_int8(graph, np.asarray(calibration, dtype=np.float64), config)
    return IntegerGraphExecutor(quantized)
