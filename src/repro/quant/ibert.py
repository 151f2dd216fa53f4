"""Integer-only kernels for transformer non-linearities (I-BERT style).

The paper follows I-BERT (Kim et al., 2021) to replace the floating-point
operators inside MHSA layers with integer-only counterparts when deploying
on GAP8: softmax, GELU and LayerNorm are evaluated with second-order
polynomial approximations and integer square roots so that the whole
inference uses int8/int32 arithmetic.

This module implements those kernels over NumPy integer arrays.  They are
used (i) by the quantised-deployment pipeline to emulate on-target
numerics, and (ii) by the test-suite, which checks each integer kernel
against its floating-point reference within the accuracy bounds reported in
the I-BERT paper.

All functions follow the I-BERT convention of representing a real tensor
``x`` as ``q * scale`` with integer ``q``.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

__all__ = [
    "SOFTMAX_OUTPUT_BITS",
    "integer_polynomial",
    "integer_erf",
    "integer_gelu",
    "integer_exp",
    "integer_softmax",
    "integer_sqrt",
    "integer_layernorm",
]

#: Fraction bits of the fixed-point softmax output grid: probabilities are
#: returned as integers with scale ``2**-SOFTMAX_OUTPUT_BITS``.  Shared with
#: the LUT-based softmax kernel in :mod:`repro.deploy.int_engine`, which must
#: reproduce this normalisation bit for bit.
SOFTMAX_OUTPUT_BITS = 15


def integer_polynomial(
    q: np.ndarray, scale: float, coefficients: Tuple[float, float, float]
) -> Tuple[np.ndarray, float]:
    """Evaluate ``a (x + b)^2 + c`` in integer arithmetic.

    Parameters
    ----------
    q, scale:
        Integer tensor and its scale (``x = q * scale``).
    coefficients:
        ``(a, b, c)`` of the second-order polynomial.

    Returns
    -------
    ``(q_out, scale_out)`` such that the result is ``q_out * scale_out``.
    """
    a, b, c = coefficients
    q_b = int(math.floor(b / scale))
    q_c = int(math.floor(c / (a * scale * scale)))
    scale_out = a * scale * scale
    q_out = (q.astype(np.int64) + q_b) ** 2 + q_c
    return q_out, scale_out


def integer_erf(q: np.ndarray, scale: float) -> Tuple[np.ndarray, float]:
    """I-BERT's integer approximation of ``erf(x)``.

    Uses the sign-decomposed second-order polynomial approximation
    ``erf(x) ~ sign(x) * [a (clip(|x|, max=-b) + b)^2 + 1]`` with the
    I-BERT constants ``a=-0.2888, b=-1.769``.
    """
    a, b = -0.2888, -1.769
    signs = np.sign(q)
    q_abs = np.abs(q.astype(np.int64))
    q_clipped = np.minimum(q_abs, int(-b / scale))
    q_poly, scale_poly = integer_polynomial(q_clipped, scale, (a, b, 1.0))
    q_out = signs * q_poly
    return q_out, scale_poly


def integer_gelu(q: np.ndarray, scale: float) -> Tuple[np.ndarray, float]:
    """Integer-only GELU: ``x * 0.5 * (1 + erf(x / sqrt(2)))``."""
    q_erf, scale_erf = integer_erf(q, scale / math.sqrt(2.0))
    one = int(math.floor(1.0 / scale_erf))
    q_out = q.astype(np.int64) * (q_erf + one)
    scale_out = scale * scale_erf / 2.0
    return q_out, scale_out


def integer_exp(q: np.ndarray, scale: float) -> Tuple[np.ndarray, float]:
    """Integer-only ``exp`` for non-positive inputs (softmax numerator).

    Decomposes ``x = -ln(2) * z + r`` with integer ``z`` and evaluates
    ``exp(r)`` with I-BERT's second-order polynomial, then shifts by ``z``.
    """
    ln2 = math.log(2.0)
    # Polynomial approximating exp(r) on r in (-ln2, 0]:
    coefficients = (0.3585, 1.353, 0.344)
    q = np.minimum(q.astype(np.int64), 0)
    q_ln2 = int(math.floor(ln2 / scale))
    if q_ln2 == 0:
        q_ln2 = 1
    z = (-q) // q_ln2
    remainder = q + z * q_ln2  # in (-q_ln2, 0]
    q_poly, scale_poly = integer_polynomial(remainder, scale, coefficients)
    # exp(x) = exp(r) * 2^{-z}; keep precision by shifting into a fixed budget.
    max_shift = 30
    z = np.minimum(z, max_shift)
    q_out = np.maximum(q_poly >> z.astype(np.int64), 0)
    return q_out, scale_poly


def integer_softmax(q: np.ndarray, scale: float, axis: int = -1) -> Tuple[np.ndarray, float]:
    """Integer-only softmax along ``axis``.

    Returns integer probabilities ``q_out`` with scale ``2**-bits`` such that
    ``q_out * scale_out`` sums to (approximately) one along ``axis``.
    """
    output_bits = SOFTMAX_OUTPUT_BITS
    q = q.astype(np.int64)
    q_shifted = q - q.max(axis=axis, keepdims=True)
    q_exp, scale_exp = integer_exp(q_shifted, scale)
    total = q_exp.sum(axis=axis, keepdims=True)
    total = np.maximum(total, 1)
    factor = 2**output_bits
    q_out = (q_exp * factor) // total
    return q_out, 1.0 / factor


def integer_sqrt(values: np.ndarray) -> np.ndarray:
    """Element-wise ``floor(sqrt(x))`` of non-negative int64 values.

    Exact over the whole int64 range: the float64 square root lands within
    one of the answer, and one integer compare each way corrects it.  The
    compares use ``a * a > x  <=>  a > x // a`` so they cannot overflow.
    I-BERT (Alg. 4) runs Newton iterations instead; the test suite keeps
    that loop as the reference.
    """
    values = np.asarray(values, dtype=np.int64)
    if np.any(values < 0):
        raise ValueError("integer_sqrt expects non-negative inputs")
    root = np.sqrt(values.astype(np.float64)).astype(np.int64)
    root -= root > values // np.maximum(root, 1)
    root += root + 1 <= values // (root + 1)
    return root


def integer_layernorm(
    q: np.ndarray,
    scale: float,
    weight: np.ndarray,
    bias: np.ndarray,
    output_bits: int = 8,
) -> Tuple[np.ndarray, float]:
    """Integer-only LayerNorm over the last axis.

    The mean and variance are accumulated in int32/int64, the standard
    deviation is computed with :func:`integer_sqrt`, and the affine
    parameters are folded in at the output scale.
    """
    q = q.astype(np.int64)
    features = q.shape[-1]
    mean = q.sum(axis=-1, keepdims=True) // features
    centered = q - mean
    variance = (centered * centered).sum(axis=-1, keepdims=True) // features
    std = np.maximum(integer_sqrt(variance), 1)
    # Normalised value in a fixed-point format with `output_bits` fraction bits.
    factor = 2**output_bits
    normalised = (centered * factor) // std
    scale_out = 1.0 / factor
    # Fold the affine parameters (kept in float, as I-BERT folds them into
    # the following requantisation step).
    q_out = np.round(normalised * weight + bias / scale_out).astype(np.int64)
    return q_out, scale_out
