"""The one int8 grid, shared by the deployment and by QAT.

The paper deploys int8 models produced by quantisation-aware training (QAT):
weights and activations are stored and processed as 8-bit symmetric
integers on the GAP8 target.  This module is the one definition of that
grid; the lowering (:mod:`repro.deploy.lowering`), the integer executor and
QAT (:mod:`repro.quant.qat`) all import it:

* :data:`QMIN`, :data:`QMAX` — the int8 range ``[-128, 127]``;
* :func:`weight_scale` — the per-tensor symmetric scale of a weight;
* :func:`quantize` / :func:`dequantize` — ``q = clip(round(x / scale))``
  as ``int32`` and ``x ≈ q · scale``;
* :func:`fake_quantize` — quantise-dequantise in float, the
  straight-through operator of QAT.

Weights divide their bound by 128 (``-QMIN``); activations, calibrated by
the lowering, divide theirs by 127 (``QMAX``).  So a weight's positive
maximum maps to +128 and clips to 127.  The ROADMAP item "Fix the symmetric
quantiser's positive-bound clip" changes the weight divisor to 127; until it
lands, both divisors stay as they are, because the deployed weights depend
on them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["QMIN", "QMAX", "weight_scale", "quantize", "dequantize", "fake_quantize"]

#: The one integer grid of the deployment: every activation, weight and
#: lookup-table domain is int8 (the paper's 8/8 GAP8 format).
QMIN, QMAX = -128, 127


def weight_scale(values: np.ndarray) -> float:
    """Per-tensor symmetric scale of a weight: ``max|values| / 128``.

    An all-zero tensor gets the bound ``1e-8`` instead of zero, so the
    scale never divides by zero.
    """
    bound = float(np.abs(values).max())
    return (bound if bound != 0.0 else 1e-8) / -QMIN


def quantize(values: np.ndarray, scale: float) -> np.ndarray:
    """Quantise float ``values`` onto the int8 grid, as ``int32``."""
    q = np.round(np.asarray(values, dtype=np.float64) / scale)
    return np.clip(q, QMIN, QMAX).astype(np.int32)


def dequantize(values: np.ndarray, scale: float) -> np.ndarray:
    """Reconstruct float values from integers on the grid."""
    return np.asarray(values, dtype=np.float64) * scale


def fake_quantize(values: np.ndarray, scale: float) -> np.ndarray:
    """Quantise-dequantise in float (the straight-through QAT operator)."""
    return dequantize(quantize(values, scale), scale)
