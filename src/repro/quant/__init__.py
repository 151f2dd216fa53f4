"""``repro.quant`` — the one int8 quantiser, QAT and the I-BERT integer kernels."""

from .ibert import (
    integer_erf,
    integer_exp,
    integer_gelu,
    integer_layernorm,
    integer_polynomial,
    integer_softmax,
    integer_sqrt,
)
from .qat import QATConfig, QATResult, quantization_aware_finetune
from .quantizers import QMAX, QMIN, dequantize, fake_quantize, quantize, weight_scale

__all__ = [
    "QMIN",
    "QMAX",
    "weight_scale",
    "quantize",
    "dequantize",
    "fake_quantize",
    "QATConfig",
    "QATResult",
    "quantization_aware_finetune",
    "integer_polynomial",
    "integer_erf",
    "integer_gelu",
    "integer_exp",
    "integer_softmax",
    "integer_sqrt",
    "integer_layernorm",
]
